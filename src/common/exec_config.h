#ifndef DYNVIEW_COMMON_EXEC_CONFIG_H_
#define DYNVIEW_COMMON_EXEC_CONFIG_H_

#include <cstddef>
#include <thread>

namespace dynview {

/// Execution knobs threaded through QueryEngine (and from there into the
/// operators and the view materializer).
struct ExecConfig {
  /// Total parallelism including the calling thread. 0 = one per hardware
  /// thread; 1 = fully serial evaluation (the pre-parallel behavior, kept
  /// for debugging and as the determinism baseline).
  size_t num_threads = 0;

  /// Morsel granularity: operator inputs at or below this row count run
  /// serially, larger inputs are split into ~this many rows per task.
  /// Serial-vs-parallel is a pure performance decision — results are
  /// bag-identical either way.
  size_t morsel_rows = 2048;

  /// Backpressure cap on the engine pool's task queue: an adversarial
  /// grounding fan-out cannot enqueue unbounded work — once the queue holds
  /// this many pending tasks, further helper submissions are refused and
  /// the submitting ParallelFor drains its iterations on the threads
  /// already running (correctness never depends on helpers being queued).
  /// 0 = unbounded.
  size_t max_queued_tasks = 1024;

  size_t ResolvedThreads() const {
    if (num_threads > 0) return num_threads;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
  }
};

}  // namespace dynview

#endif  // DYNVIEW_COMMON_EXEC_CONFIG_H_
