#include "layers.h"

#include "observe/metrics.h"
#include "plan_cache/fingerprint.h"
#include "sql/parser.h"

namespace perfbench {

void LayerSamples::Merge(const LayerSamples& o) {
  auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  cat(&parse_us, o.parse_us);
  cat(&fingerprint_us, o.fingerprint_us);
  cat(&rewrite_us, o.rewrite_us);
  cat(&explain_us, o.explain_us);
  cat(&execute_us, o.execute_us);
  cat(&answer_us, o.answer_us);
  cat(&self_us, o.self_us);
  cat(&groundings, o.groundings);
  cat(&scanned_per_row, o.scanned_per_row);
  skipped += o.skipped;
}

void ProbeLayers(dynview::IntegrationSystem* system, const std::string& sql,
                 const dynview::AnswerResult& answered, double answer_us,
                 bool explain,
                 const std::shared_ptr<dynview::ExprProgramCache>& programs,
                 Tracer* tracer, uint64_t req, uint64_t root,
                 LayerSamples* out) {
  double parse = 0, fp = 0, rewrite = 0, execute = 0;
  auto parsed = Timed(tracer, "sql.parse", req, root, &parse,
                      [&] { return dynview::Parser::ParseSelect(sql); });
  if (!parsed.ok()) {
    ++out->skipped;
    return;
  }
  Timed(tracer, "plan_cache.fingerprint", req, root, &fp, [&] {
    return dynview::FingerprintStatement(*parsed.value(),
                                         dynview::FingerprintMode::kExact);
  });
  auto rewritten = Timed(tracer, "core.rewrite", req, root, &rewrite, [&] {
    return system->Rewrite(sql, /*multiset=*/true);
  });
  if (!rewritten.ok()) {
    ++out->skipped;
    return;
  }
  std::unique_ptr<dynview::SelectStmt> stmt = rewritten.value().query->Clone();
  dynview::QueryContext qc;
  qc.PinSnapshot(system->catalog()->Snapshot());
  qc.set_expr_programs(programs != nullptr
                           ? programs
                           : std::make_shared<dynview::ExprProgramCache>());
  auto executed = Timed(tracer, "engine.execute", req, root, &execute,
                        [&] { return system->engine()->Execute(stmt.get(), &qc); });
  if (!executed.ok()) {
    ++out->skipped;
    return;
  }
  if (explain) {
    double us = 0;
    auto text = Timed(tracer, "optimizer.explain", req, root, &us,
                      [&] { return system->ExplainOptimized(sql); });
    if (!text.ok()) ++out->skipped;
    out->explain_us.push_back(us);
  }
  out->parse_us.push_back(parse);
  out->fingerprint_us.push_back(fp);
  out->rewrite_us.push_back(rewrite);
  out->execute_us.push_back(execute);
  out->answer_us.push_back(answer_us);
  out->self_us.push_back(answered.plan_cached
                             ? answer_us - execute
                             : answer_us - parse - fp - rewrite - execute);
  if (answered.observer != nullptr) {
    const dynview::MetricsRegistry& m = answered.observer->metrics;
    out->groundings.push_back(static_cast<double>(
        m.Value(dynview::counters::kGroundingsEvaluated)));
    const double rows = static_cast<double>(answered.table.num_rows());
    if (rows > 0) {
      out->scanned_per_row.push_back(
          static_cast<double>(m.Value(dynview::counters::kRowsScanned)) / rows);
    }
  }
}

namespace {

void SetLayerDefaults(RunResult* result) {
  const std::pair<const char*, const char*> kLayers[] = {
      {"sql.parse_us", "us"},
      {"plan_cache.fingerprint_us", "us"},
      {"plan_cache.hit_ratio", "ratio"},
      {"plan_cache.stale_miss_ratio", "ratio"},
      {"plan_cache.lookups", "count"},
      {"core.rewrite_us", "us"},
      {"optimizer.explain_us", "us"},
      {"engine.execute_us", "us"},
      {"engine.groundings_per_query", "count"},
      {"engine.rows_scanned_per_result_row", "ratio"},
      {"integration.answer_us", "us"},
      {"integration.self_us", "us"},
      {"server.queue_ms", "ms"},
      {"server.exec_ms", "ms"},
      {"server.wire_ms", "ms"},
      {"server.bytes_per_reply", "bytes"},
      {"server.shed_ratio", "ratio"},
      {"schemasql.delta_us", "us"},
      {"storage.encode_us", "us"},
      {"storage.wal_bytes_per_commit", "bytes"},
      {"storage.checkpoint_ms", "ms"},
      {"storage.replay_records_per_s", "1/s"},
      {"trace.overhead_p50_ms", "ms"},
  };
  for (const auto& [name, unit] : kLayers) result->Set(name, 0, unit);
}

}  // namespace

void ReportLayers(const LayerSamples& s, const dynview::PlanCacheStats& before,
                  const dynview::PlanCacheStats& after, RunResult* result) {
  SetLayerDefaults(result);
  result->Set("sql.parse_us", Median(s.parse_us), "us");
  result->Set("plan_cache.fingerprint_us", Median(s.fingerprint_us), "us");
  result->Set("core.rewrite_us", Median(s.rewrite_us), "us");
  result->Set("optimizer.explain_us", Median(s.explain_us), "us");
  result->Set("engine.execute_us", Median(s.execute_us), "us");
  result->Set("engine.groundings_per_query", Median(s.groundings), "count");
  result->Set("engine.rows_scanned_per_result_row", Median(s.scanned_per_row),
              "ratio");
  result->Set("integration.answer_us", Median(s.answer_us), "us");
  result->Set("integration.self_us", Median(s.self_us), "us");
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  const double stale =
      static_cast<double>(after.invalidations - before.invalidations);
  const double lookups = hits + misses;
  result->Set("plan_cache.lookups", lookups, "count");
  result->Set("plan_cache.hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio");
  result->Set("plan_cache.stale_miss_ratio", lookups > 0 ? stale / lookups : 0,
              "ratio");
  result->Note("layer probes: " + std::to_string(s.answer_us.size()) +
               " reads, " + std::to_string(s.explain_us.size()) +
               " explains, " + std::to_string(s.skipped) + " skipped");
}

}  // namespace perfbench
