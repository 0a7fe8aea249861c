// inproc_fanout: in-process AnswerGuarded and ExecutePrepared on the Fig. 6
// stock federation. I is virtual and the s2 source spans 50 companies, so
// every answer fans out over 50 groundings. A fixed set of five queries
// means every timed answer is a plan-cache hit: the engine and the cached
// answer path do the work; sql, core, server and storage do none.
//
// Layout: 4 client threads (closed loops) on a serial engine,
// ExecConfig::num_threads = 1: all four cores are busy, and a core that the
// host takes away delays one answer, not every answer's fan-out. The
// storage metrics come from a durable twin of the federation, between read
// slices, so the reads never see a commit.

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

constexpr int kCompanies = 50;
constexpr int kDates = 100;
constexpr size_t kThreads = 1;
constexpr int kClients = 4;
constexpr int kSetupsPerRound = 3;
constexpr int kPairsPerRound = 16;
constexpr int kReplayPairs = 40;  // WAL records per restart: 81.

struct Op {
  std::string sql;  // The text answered (parameters substituted).
  bool prepared = false;
  dynview::Value param;
  Digest expect;
  std::shared_ptr<dynview::ExprProgramCache> programs =
      std::make_shared<dynview::ExprProgramCache>();
};

const char kPreparedSql[] =
    "select C, P from I::stock T, T.company C, T.price P where P > ?";

std::vector<Op> MakeOps(const StockData& data) {
  auto at = [&](double q) { return std::to_string(PriceAtRank(data, q)); };
  std::vector<Op> ops(5);
  ops[0].sql = "select C, P from I::stock T, T.company C, T.price P where P > " +
               at(0.80);
  ops[1].sql =
      "select C, D from I::stock T, T.company C, T.date D, T.price P "
      "where P < " + at(0.10);
  ops[2].sql =
      "select C, D, P from I::stock T, T.company C, T.date D, T.price P "
      "where P > " + at(0.40) + " and P < " + at(0.50);
  for (int i = 3; i < 5; ++i) {
    int64_t p = PriceAtRank(data, i == 3 ? 0.85 : 0.90);
    ops[i].prepared = true;
    ops[i].param = dynview::Value::Int(p);
    ops[i].sql = "select C, P from I::stock T, T.company C, T.price P where P > " +
                 std::to_string(p);
  }
  return ops;
}

struct ClientStats {
  std::vector<double> latency_us;
  uint64_t ok = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  LayerSamples layers;
};

/// Set-up as a deployment pays it: the federation plus the prepared query.
dynview::Status Deploy(const StockData& data, const FederationSpec& spec,
                       std::optional<Federation>* fed,
                       std::shared_ptr<dynview::PreparedQuery>* prepared,
                       std::vector<double>* setup_s) {
  Clock::time_point t0 = Clock::now();
  auto built = BuildFederation(data, spec);
  if (built.ok()) {
    auto p = built.value().system->Prepare(kPreparedSql);
    if (!p.ok()) built = p.status();
    else *prepared = std::move(p).value();
  }
  setup_s->push_back(SecondsSince(t0));
  DV_RETURN_IF_ERROR(built.status());
  fed->emplace(std::move(built).value());
  return dynview::Status::OK();
}

}  // namespace

RunResult RunInprocFanout(const Options& opt) {
  RunResult result;
  result.Note("layout: 4 client threads, num_threads=1, " +
              std::to_string(kCompanies) + " companies x " +
              std::to_string(kDates) + " dates");
  const StockData data = GenerateStock(opt.seed, kCompanies, kDates);
  std::vector<Op> ops = MakeOps(data);
  Reference ref(data);
  for (Op& op : ops) {
    auto direct = ref.Evaluate(op.sql);
    if (!direct.ok()) {
      result.setup_ok = false;
      result.Note("reference: " + direct.status().ToString());
      return result;
    }
    op.expect = DigestTable(direct.value());
  }

  const FederationSpec spec{/*decoys=*/0, /*i_holds_data=*/false, kThreads};
  std::vector<double> setup_s;
  std::optional<Federation> fed;
  std::shared_ptr<dynview::PreparedQuery> prepared;
  dynview::Status st = Deploy(data, spec, &fed, &prepared, &setup_s);
  if (!st.ok()) {
    result.setup_ok = false;
    result.Note("setup: " + st.ToString());
    return result;
  }
  dynview::IntegrationSystem* system = fed->system.get();
  dynview::AnswerOptions multiset;
  multiset.multiset = true;
  auto answer = [&](const Op& op) {
    return op.prepared ? system->ExecutePrepared(*prepared, {op.param}, multiset)
                       : system->AnswerGuarded(op.sql, multiset);
  };
  // Warm-up: every query planned once and checked before timing starts.
  for (const Op& op : ops) {
    auto r = answer(op);
    if (!r.ok() || DigestTable(r.value().table) != op.expect) {
      result.setup_ok = false;
      result.Note("warm-up answer differs from the reference: " + op.sql);
      return result;
    }
  }

  RunDir dir(opt);
  std::optional<Federation> durable, delta_twin;
  std::optional<StorageBench> storage;
  st = PrepareStorage(data, spec, dir.path(), opt.trace, kReplayPairs,
                      &durable, &delta_twin, &storage);
  if (!st.ok()) {
    result.setup_ok = false;
    result.Note("storage: " + st.ToString());
    return result;
  }

  Tracer tracer(opt.trace);
  LayerSamples layers;
  RoundSeries untraced, traced;
  const int rounds = RoundsFor(opt.seconds);
  // The traced run keeps its first third of rounds untraced, for the
  // tracing overhead.
  const int untraced_rounds = opt.trace ? std::max(1, rounds / 3) : rounds;
  const double slice_s = opt.seconds / rounds * kReadShare;
  dynview::PlanCacheStats cache_before{};
  std::vector<size_t> next_op(kClients);
  for (int c = 0; c < kClients; ++c) next_op[c] = static_cast<size_t>(c);
  auto client = [&](int c, Clock::time_point end, bool trace, ClientStats* out) {
    for (Clock::time_point t0 = Clock::now(); t0 < end; t0 = Clock::now()) {
      const size_t n = next_op[c]++;
      const Op& op = ops[n % ops.size()];
      auto r = answer(op);
      Clock::time_point t1 = Clock::now();
      const double us = MicrosBetween(t0, t1);
      ++out->attempted;
      if (!r.ok() || DigestTable(r.value().table) != op.expect) {
        ++out->failed;
        out->latency_us.push_back(kFailedLatencyUs);
        continue;
      }
      ++out->ok;
      out->latency_us.push_back(us);
      if (trace) {
        uint64_t req = tracer.NewRequest();
        uint64_t root = tracer.Record("integration.answer", req, 0, t0, t1);
        ProbeLayers(system, op.sql, r.value(), us, /*explain=*/n % 8 == 0,
                    op.programs, &tracer, req, root, &out->layers);
      }
    }
  };
  for (int round = 0; round < rounds; ++round) {
    const bool trace = round >= untraced_rounds;
    if (trace && round == untraced_rounds) {
      cache_before = system->plan_cache_stats();
      storage->writer().set_tracer(&tracer);
    }
    for (int i = 0; i < kSetupsPerRound; ++i) {
      std::optional<Federation> scratch;
      std::shared_ptr<dynview::PreparedQuery> unused;
      ++result.attempted;
      if (!Deploy(data, spec, &scratch, &unused, &setup_s).ok()) ++result.failed;
    }

    std::vector<ClientStats> stats(kClients);
    std::vector<std::thread> threads;
    Clock::time_point start = Clock::now();
    Clock::time_point end = start + ToDuration(slice_s);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(client, c, end, trace, &stats[c]);
    }
    for (std::thread& t : threads) t.join();
    const double elapsed = SecondsSince(start);
    std::vector<double> latency_us;
    uint64_t ok = 0;
    for (ClientStats& c : stats) {
      latency_us.insert(latency_us.end(), c.latency_us.begin(),
                        c.latency_us.end());
      ok += c.ok;
      result.attempted += c.attempted;
      result.failed += c.failed;
      layers.Merge(c.layers);
    }
    (trace ? traced : untraced).AddRound(std::move(latency_us), ok, elapsed);

    const Clock::time_point commit_end =
        Clock::now() + ToDuration(kCommitSliceMaxS);
    for (int i = 0; i < kPairsPerRound && st.ok() && Clock::now() < commit_end;
         ++i) {
      st = storage->writer().Step();
    }
    storage->EndRound();
  }
  if (!st.ok()) {
    ++result.failed;
    result.Note("writer: " + st.ToString());
  }
  const dynview::PlanCacheStats cache_after = system->plan_cache_stats();

  if (opt.trace) ReportLayers(layers, cache_before, cache_after, &result);
  ReportRun(opt, untraced, traced, setup_s, *storage, tracer, &result);
  return result;
}

}  // namespace perfbench
