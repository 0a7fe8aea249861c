// The traced run's per-layer view of one read: after the end-to-end call,
// the benchmark calls each layer's public entry point on the same query
// text and records a span per call.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/expr_compile.h"
#include "integration/integration.h"

namespace perfbench {

struct LayerSamples {
  std::vector<double> parse_us;
  std::vector<double> fingerprint_us;
  std::vector<double> rewrite_us;
  std::vector<double> explain_us;
  std::vector<double> execute_us;
  std::vector<double> answer_us;
  std::vector<double> self_us;
  std::vector<double> groundings;
  std::vector<double> scanned_per_row;
  /// Probes that could not run, e.g. a rewrite racing a commit whose fence
  /// advance it has not seen yet. The answer itself is checked elsewhere.
  uint64_t skipped = 0;

  void Merge(const LayerSamples& o);
};

/// Runs the layer calls for `sql`, whose end-to-end answer `answered` took
/// `answer_us`:
///   sql.parse         Parser::ParseSelect
///   plan_cache.fingerprint  FingerprintStatement on the parsed statement
///   core.rewrite      IntegrationSystem::Rewrite (Alg. 5.1 over all sources)
///   engine.execute    QueryEngine::Execute on the chosen rewriting
///   optimizer.explain ExplainOptimized (when `explain`)
/// and derives integration.self: the answer minus the parts it actually
/// ran — execute alone on a plan-cache hit; parse, fingerprint, rewrite and
/// execute on a miss. `programs` is the compiled-expression memo a cached
/// plan would share (null: compile afresh, as a cold answer does).
void ProbeLayers(dynview::IntegrationSystem* system, const std::string& sql,
                 const dynview::AnswerResult& answered, double answer_us,
                 bool explain,
                 const std::shared_ptr<dynview::ExprProgramCache>& programs,
                 Tracer* tracer, uint64_t req, uint64_t root,
                 LayerSamples* out);

/// Sets every per-layer metric: the sql/plan_cache/core/optimizer/engine/
/// integration ones from `s` and the cache counters, the others to 0 until
/// the caller fills them. A layer a workload does not exercise reports 0.
void ReportLayers(const LayerSamples& s, const dynview::PlanCacheStats& before,
                  const dynview::PlanCacheStats& after, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
