#include "bench_util.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace perfbench {

double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  if (rank == 0) rank = 1;
  return (*v)[std::min(rank, v->size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

uint64_t HashRow(const dynview::Row& row) {
  uint64_t h = 0x243f6a8885a308d3ULL;
  for (const dynview::Value& v : row) {
    h = Mix64(h ^ (static_cast<uint64_t>(v.kind()) * 0x100000001b3ULL) ^
              static_cast<uint64_t>(v.GroupHash()));
  }
  return h;
}

}  // namespace

void Digest::Add(const dynview::Row& row) {
  uint64_t h = HashRow(row);
  ++rows;
  sum += h;
  mixsum += Mix64(h);
}

Digest DigestTable(const dynview::Table& table) {
  Digest d;
  for (const dynview::Row& row : table.rows()) d.Add(row);
  return d;
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

uint64_t Tracer::Record(const char* name, uint64_t req, uint64_t parent,
                        Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return 0;
  auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{id, parent, req, name, ns(start), ns(end)});
  return id;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"req\":" << s.req << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += (result.setup_ok && result.failed == 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : result.metrics) {
    if (!first) out += ", ";
    first = false;
    double v = std::isfinite(m.value) ? m.value : kFailedLatencyUs;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit +
           "\"}";
  }
  out += "}}";
  return out;
}

void RoundSeries::AddRound(std::vector<double> latency_us, uint64_t ok,
                           double seconds) {
  const uint64_t n = latency_us.size();
  samples_ += n;
  fewest_ = p50_ms_.empty() ? n : std::min(fewest_, n);
  p50_ms_.push_back(Percentile(&latency_us, 0.50) / 1e3);
  p99_ms_.push_back(Percentile(&latency_us, 0.99) / 1e3);
  ops_s_.push_back(static_cast<double>(ok) / seconds);
}

void RoundSeries::Report(RunResult* result) const {
  result->Set("latency_p50_ms", QuietLow(p50_ms_), "ms");
  result->Set("latency_p99_ms", QuietLow(p99_ms_), "ms");
  result->Set("throughput_ops_s", QuietHigh(ops_s_), "1/s");
  result->Note("reads: " + std::to_string(samples_) + " samples in " +
               std::to_string(p50_ms_.size()) + " rounds, at least " +
               std::to_string(fewest_) + " per round");
  std::string rounds = "per-round p50/p99 ms:";
  char buf[48];
  for (size_t i = 0; i < p50_ms_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), " %.3f/%.3f", p50_ms_[i], p99_ms_[i]);
    rounds += buf;
  }
  result->Note(rounds);
}

int RoundsFor(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds)));
}

double QuietLow(std::vector<double> per_round) {
  return Percentile(&per_round, 0.25);
}

double QuietHigh(std::vector<double> per_round) {
  return Percentile(&per_round, 0.75);
}

RunDir::RunDir(const Options& options) {
  path_ = options.work_dir + "/run-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_, ec);
}

RunDir::~RunDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench
