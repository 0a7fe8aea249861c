// durable_ingest: OpenDurable on a fresh directory, fsync on every WAL
// append (the durability contract). I::stock holds 10 companies × 100 dates
// and s2 is materialized from it. One writer applies one-row maintainer
// deltas as insert/delete pairs, so the base size stays at 1000 facts, with
// Checkpoint() every 64 commits (never on a timer). Three readers query the
// maintained source meanwhile; every commit bumps the catalog version, so
// their reads often miss the plan cache as stale. The run ends with
// restarts that replay the WAL written since the last checkpoint.
//
// Layout: 1 writer thread + 3 reader threads (closed loops),
// ExecConfig::num_threads = 1.

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "federation.h"
#include "layers.h"
#include "persist.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kCompanies = 10;
constexpr int kDates = 100;
constexpr size_t kThreads = 1;
constexpr int kReaders = 3;
constexpr int kSetupsPerRound = 3;
constexpr int kReplayPairs = 80;  // WAL records per restart: 161.
constexpr int kExplainEvery = 8;

/// A read and what it returns at any commit: the base facts selected by
/// `P > bound` (or `P < bound`), plus the writer's in-flight row when it
/// qualifies.
struct ReadTemplate {
  std::string sql;
  int64_t bound = 0;
  bool greater = false;
  bool with_date = false;
  Digest base;

  Digest Expected(const std::optional<dynview::Row>& in_flight) const {
    Digest d = base;
    if (in_flight.has_value()) {
      const dynview::Row& row = *in_flight;
      const int64_t p = row[2].as_int();
      if (greater ? p > bound : p < bound) {
        if (with_date) d.Add(row);
        else d.Add({row[0], row[2]});
      }
    }
    return d;
  }
};

struct ReaderStats {
  std::vector<double> latency_us;
  uint64_t ok = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  LayerSamples layers;
  std::string error;
};

}  // namespace

RunResult RunDurableIngest(const Options& opt) {
  RunResult result;
  result.Note("layout: 1 writer + 3 reader threads, num_threads=1, fsync on, "
              "checkpoint every 64 commits, base 10 companies x 100 dates");
  const StockData data = GenerateStock(opt.seed, kCompanies, kDates);
  std::vector<ReadTemplate> reads(2);
  reads[0].bound = PriceAtRank(data, 0.75);
  reads[0].greater = true;
  reads[0].with_date = true;
  reads[0].sql =
      "select C, D, P from I::stock T, T.company C, T.date D, T.price P "
      "where P > " + std::to_string(reads[0].bound);
  reads[1].bound = PriceAtRank(data, 0.20);
  reads[1].sql = "select C, P from I::stock T, T.company C, T.price P where P < " +
                 std::to_string(reads[1].bound);
  {
    Reference ref(data);
    for (ReadTemplate& t : reads) {
      auto direct = ref.Evaluate(t.sql);
      if (!direct.ok()) {
        result.setup_ok = false;
        result.Note("reference: " + direct.status().ToString());
        return result;
      }
      t.base = DigestTable(direct.value());
    }
  }

  RunDir dir(opt);
  const FederationSpec spec{/*decoys=*/0, /*i_holds_data=*/true, kThreads};
  std::vector<double> setup_s;
  int setups = 0;
  // Set-up as a deployment pays it: the federation, opened durable on a
  // fresh directory.
  auto deploy = [&]() -> dynview::Result<Federation> {
    const std::string path = dir.path() + "/setup-" + std::to_string(setups++);
    Clock::time_point t0 = Clock::now();
    auto built = BuildFederation(data, spec);
    dynview::Status st =
        built.ok() ? built.value().system->OpenDurable(path) : built.status();
    setup_s.push_back(SecondsSince(t0));
    DV_RETURN_IF_ERROR(st);
    return built;
  };
  auto deployed = deploy();
  if (!deployed.ok()) {
    result.setup_ok = false;
    result.Note("setup: " + deployed.status().ToString());
    return result;
  }
  Federation fed = std::move(deployed).value();
  dynview::IntegrationSystem* system = fed.system.get();

  std::optional<Federation> twin;
  if (opt.trace) {
    auto built = BuildFederation(data, spec);
    if (!built.ok()) {
      result.setup_ok = false;
      result.Note("twin: " + built.status().ToString());
      return result;
    }
    twin.emplace(std::move(built).value());
  }
  StorageBench storage(&fed, &data, dir.path() + "/setup-0", dir.path(),
                       kThreads, twin.has_value() ? &*twin : nullptr);
  dynview::Status st = storage.Prepare(kReplayPairs);
  if (!st.ok()) {
    result.setup_ok = false;
    result.Note("storage: " + st.ToString());
    return result;
  }
  DeltaWriter& writer = storage.writer();

  Tracer tracer(opt.trace);
  auto read_loop = [&](int r, Clock::time_point end, bool trace,
                       ReaderStats* out) {
    dynview::AnswerOptions multiset;
    multiset.multiset = true;
    uint64_t j = static_cast<uint64_t>(r);
    for (Clock::time_point t0 = Clock::now(); t0 < end; t0 = Clock::now()) {
      const ReadTemplate& t = reads[j++ % reads.size()];
      auto answer = system->AnswerGuarded(t.sql, multiset);
      Clock::time_point t1 = Clock::now();
      const double us = MicrosBetween(t0, t1);
      ++out->attempted;
      bool good = answer.ok();
      if (good) {
        const uint64_t version = answer.value().snapshot_version;
        good = version >= writer.base_version() &&
               DigestTable(answer.value().table) ==
                   t.Expected(writer.InFlightRow(version));
      }
      if (!good) {
        ++out->failed;
        out->latency_us.push_back(kFailedLatencyUs);
        if (out->error.empty()) {
          out->error =
              answer.ok() ? "answer differs from the reference at version " +
                                std::to_string(answer.value().snapshot_version)
                          : answer.status().ToString();
        }
        continue;
      }
      ++out->ok;
      out->latency_us.push_back(us);
      if (trace) {
        uint64_t req = tracer.NewRequest();
        uint64_t root = tracer.Record("integration.answer", req, 0, t0, t1);
        ProbeLayers(system, t.sql, answer.value(), us, j % kExplainEvery == 0,
                    nullptr, &tracer, req, root, &out->layers);
      }
    }
  };

  RoundSeries untraced, traced;
  LayerSamples layers;
  const int rounds = RoundsFor(opt.seconds);
  const int untraced_rounds = opt.trace ? std::max(1, rounds / 3) : rounds;
  const double slice_s = opt.seconds / rounds * kReadShare;
  dynview::PlanCacheStats cache_before{};
  for (int round = 0; round < rounds && st.ok(); ++round) {
    const bool trace = round >= untraced_rounds;
    if (trace && round == untraced_rounds) {
      cache_before = system->plan_cache_stats();
      writer.set_tracer(&tracer);
    }
    for (int i = 0; i < kSetupsPerRound; ++i) {
      ++result.attempted;
      if (!deploy().ok()) ++result.failed;
    }

    std::vector<ReaderStats> stats(kReaders);
    std::vector<std::thread> threads;
    Clock::time_point start = Clock::now();
    Clock::time_point end = start + ToDuration(slice_s);
    threads.emplace_back([&] {
      while (st.ok() && Clock::now() < end) st = writer.Step();
    });
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back(read_loop, r, end, trace, &stats[r]);
    }
    for (std::thread& t : threads) t.join();
    const double elapsed = SecondsSince(start);
    ReaderStats round_all;
    for (ReaderStats& src : stats) {
      round_all.latency_us.insert(round_all.latency_us.end(),
                                  src.latency_us.begin(), src.latency_us.end());
      round_all.ok += src.ok;
      layers.Merge(src.layers);
      result.attempted += src.attempted;
      result.failed += src.failed;
      if (!src.error.empty()) result.Note("reader: " + src.error);
    }
    (trace ? traced : untraced)
        .AddRound(std::move(round_all.latency_us), round_all.ok, elapsed);
    storage.EndRound();
  }
  if (!st.ok()) {
    ++result.failed;
    result.Note("writer: " + st.ToString());
  }
  const dynview::PlanCacheStats cache_after = system->plan_cache_stats();

  if (opt.trace) ReportLayers(layers, cache_before, cache_after, &result);
  ReportRun(opt, untraced, traced, setup_s, storage, tracer, &result);
  return result;
}

}  // namespace perfbench
