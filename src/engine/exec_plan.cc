#include "engine/exec_plan.h"

#include "common/str_util.h"

namespace dynview {

namespace {

void Deferred(const Status& st, const char* indent, std::string* out) {
  if (!st.ok()) *out += indent + ("deferred: " + st.ToString()) + "\n";
}

/// Renders `p` as run by `runs`; no runs means the global layer, which
/// reads the union of the groundings.
void DescribePipeline(const Pipeline& p,
                      const std::vector<const PipelineRun*>& runs,
                      std::string* out) {
  for (size_t i = 0; i < p.scans.size(); ++i) {
    const Pipeline::Scan& scan = p.scans[i];
    std::vector<std::string> relations;
    for (const PipelineRun* run : runs) {
      relations.push_back(run->relations[i].first + "::" +
                          run->relations[i].second);
    }
    *out += "    scan " + std::to_string(i + 1) + ": " +
            (runs.empty() ? "union of the groundings" : Join(relations, ", "));
    if (i > 0) {
      *out += scan.key_sql.empty()
                  ? "; cross product"
                  : "; hash join on " + Join(scan.key_sql, ", ");
    }
    *out += "\n";
    Deferred(scan.unresolved, "      ", out);
    if (scan.missing) *out += "      deferred: relation does not resolve\n";
    Deferred(scan.bind_error, "      ", out);
    if (!scan.pushed_sql.empty()) {
      *out += "      pushed: " + Join(scan.pushed_sql, " and ") + "\n";
    }
    if (!scan.post_sql.empty()) {
      *out += "      after join: " + Join(scan.post_sql, " and ") + "\n";
    }
  }
  Deferred(p.tail_error, "    ", out);
  std::vector<std::string> names;
  for (const Column& c : p.out_schema.columns()) names.push_back(c.name);
  *out += p.grouped ? "    group by " + std::to_string(p.group_keys.size()) +
                          " key(s)" + (p.having ? " having" : "")
          : p.fused ? "    fused scan, filter and project"
                    : "    project";
  *out += " -> " + Join(names, ", ") + "\n";
  if (p.distinct) *out += "    distinct\n";
  if (!p.order.empty()) {
    *out += "    order by " + std::to_string(p.order.size()) + " key(s)\n";
  }
  if (p.limit >= 0) *out += "    limit " + std::to_string(p.limit) + "\n";
}

}  // namespace

uint64_t ScanEstimate(const ExecPlan& plan) {
  uint64_t scans = 0;
  for (const BranchPlan& b : plan.branches) {
    for (const PipelineRun& run : b.runs) scans += run.relations.size();
  }
  return scans;
}

std::string Describe(const ExecPlan& plan) {
  std::string out;
  for (size_t bi = 0; bi < plan.branches.size(); ++bi) {
    const BranchPlan& b = plan.branches[bi];
    out += "branch " + std::to_string(bi + 1) + ": ";
    if (b.higher_order) {
      out += "fan-out, " + std::to_string(b.enumerated) +
             " grounding(s) enumerated, " + std::to_string(b.pruned) +
             " pruned, " + std::to_string(b.runs.size()) + " run\n";
    } else {
      out += b.deferred.ok() ? "first-order\n" : "not built\n";
    }
    Deferred(b.deferred, "  ", &out);
    for (size_t pi = 0; pi < b.pipelines.size(); ++pi) {
      std::vector<const PipelineRun*> runs;
      for (const PipelineRun& run : b.runs) {
        if (run.pipeline == pi) runs.push_back(&run);
      }
      out += "  pipeline " + std::to_string(pi + 1) + ": " +
             std::to_string(runs.size()) + " run(s)\n";
      for (const PipelineRun* run : runs) {
        Deferred(run->constant_error, "    ", &out);
      }
      DescribePipeline(b.pipelines[pi], runs, &out);
    }
    if (b.runs.empty()) Deferred(b.empty_schema.status(), "  ", &out);
    if (b.limit >= 0) {
      out += "  limit " + std::to_string(b.limit) + " over the union\n";
    }
    if (b.global) {
      out += "  global layer over the union\n";
      Deferred(b.global_error, "    ", &out);
      DescribePipeline(*b.global, {}, &out);
    }
    if (bi + 1 < plan.branches.size()) {
      out += b.union_all ? "union all\n" : "union\n";
    }
  }
  return out;
}

}  // namespace dynview
