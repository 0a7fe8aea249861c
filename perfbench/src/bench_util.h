// Measurement plumbing shared by every workload: the run options, clocks,
// sample statistics, an order-independent answer digest, the in-memory span
// recorder of the traced run, and the result record printed as JSON.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "relational/table.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for durable state; each run makes and removes its
  /// own subdirectory.
  std::string work_dir = ".bench_build/work";
  /// Where the traced run writes its spans (JSON lines).
  std::string trace_file;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline Clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Latency recorded for a failed or shed request: it misses every limit.
inline constexpr double kFailedLatencyUs = 1e12;

/// Nearest-rank percentile (q in [0, 1]) of `v`; sorts `v` in place.
/// Returns 0 for an empty sample.
double Percentile(std::vector<double>* v, double q);
double Median(std::vector<double> v);

/// splitmix64: the seeded generator behind every input the benchmark makes.
uint64_t Mix64(uint64_t x);

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix64(state_ += 0x9e3779b97f4a7c15ULL); }
  /// Uniform in [lo, hi).
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo));
  }

 private:
  uint64_t state_;
};

/// Order-independent digest of a bag of rows: row count plus two sums of
/// per-row hashes. Equal bags give equal digests; adding a row to a bag adds
/// its hash, so a reference can be updated row by row.
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  uint64_t mixsum = 0;

  void Add(const dynview::Row& row);
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum == o.sum && mixsum == o.mixsum;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};

Digest DigestTable(const dynview::Table& table);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Spans of the traced run, kept in memory and written when the run ends.
/// A span names the layer call it timed; spans of one request share `req`,
/// and `parent` is the request's root span (0 for a root).
class Tracer {
 public:
  struct Span {
    uint64_t id;
    uint64_t parent;
    uint64_t req;
    const char* name;  // Static string.
    int64_t start_ns;
    int64_t end_ns;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  uint64_t NewRequest() { return next_req_.fetch_add(1) + 1; }
  /// Records a finished span and returns its id.
  uint64_t Record(const char* name, uint64_t req, uint64_t parent,
                  Clock::time_point start, Clock::time_point end);
  /// Writes one JSON object per span to `path`; false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  std::atomic<uint64_t> next_req_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
};

/// Times one call into a layer and records it as a span of `req`.
template <typename Fn>
auto Timed(Tracer* tracer, const char* name, uint64_t req, uint64_t parent,
           double* us, Fn&& fn) {
  Clock::time_point t0 = Clock::now();
  auto out = fn();
  Clock::time_point t1 = Clock::now();
  if (us != nullptr) *us = MicrosBetween(t0, t1);
  if (tracer != nullptr) tracer->Record(name, req, parent, t0, t1);
  return out;
}

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run reports. `metrics` holds the end-to-end set in an untraced
/// run and the per-layer set in a traced one.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False when set-up itself could not be verified (a reference mismatch
  /// before any timed operation ran).
  bool setup_ok = true;
  std::map<std::string, Metric> metrics;
  /// Human-readable context (sample counts, thread layout) for stderr.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

std::string ResultJson(const RunResult& result);

/// A run is made of one-second rounds, and each timed metric is reported
/// as the quiet-host estimate over its per-round values: interference from
/// other tenants of a shared host only ever slows a round down, so the
/// lower quartile (upper quartile for a rate) follows the program's own
/// cost, while a change to the program moves every round.
double QuietLow(std::vector<double> per_round);
double QuietHigh(std::vector<double> per_round);

/// Read statistics of a run made of rounds: each round contributes its own
/// p50, p99 and throughput.
class RoundSeries {
 public:
  /// `latency_us` holds one sample per attempted read (kFailedLatencyUs for
  /// a failed one); `ok` counts the successful reads in `seconds`.
  void AddRound(std::vector<double> latency_us, uint64_t ok, double seconds);
  /// latency_p50_ms, latency_p99_ms and throughput_ops_s.
  void Report(RunResult* result) const;
  double QuietP50Ms() const { return QuietLow(p50_ms_); }

 private:
  std::vector<double> p50_ms_, p99_ms_, ops_s_;
  uint64_t samples_ = 0;
  uint64_t fewest_ = 0;  // Smallest per-round sample count.
};

/// Rounds of a run: one per second, at least one.
int RoundsFor(double seconds);
inline constexpr double kReadShare = 0.8;  // Of a round, for the read slice.

/// A directory of this run under Options::work_dir, removed with the
/// object.
class RunDir {
 public:
  explicit RunDir(const Options& options);
  ~RunDir();
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
