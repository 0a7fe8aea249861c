// wire_adhoc: ServerClient sessions against a QueryServer on loopback. The
// federation has 7 sources over small tables: 6 decoys that cannot answer a
// price query, registered before s2 (the bench_compiled shape). Every
// request carries a fresh seeded literal in a bound no price reaches
// (`P < <literal>`), so it misses the plan cache and pays parse,
// fingerprint, Alg. 5.1 probing and compile, while its rows stay those of
// its template. Results span several chunk frames; every 20th request is an
// `explain` on the cheap lane.
//
// Layout: 4 sessions, one client thread each (closed loop, one request in
// flight per session). The engine is serial, ExecConfig::num_threads = 1,
// so the server runs each request on one of its 4 fallback workers. The storage metrics come from a durable twin
// of the federation, between read slices.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "federation.h"
#include "layers.h"
#include "persist.h"
#include "relational/csv.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kCompanies = 8;
constexpr int kDates = 30;
constexpr int kDecoys = 6;
constexpr size_t kThreads = 1;
constexpr int kSessions = 4;
constexpr size_t kChunkRows = 32;
constexpr int kExplainEvery = 20;
constexpr int kSetupsPerRound = 5;
constexpr int kPairsPerRound = 32;
constexpr int kReplayPairs = 400;  // WAL records per restart: 801.

/// The literal a template is planned with at set-up; requests replace it
/// with a fresh one.
const char kPlaceholder[] = "999999999";

struct Template {
  std::string head;  // Everything before the fresh literal.
  std::string csv;   // In-process typed CSV of the answer.
  std::string explain;  // ExplainOptimized with the literal masked.
};

std::string ReplaceAll(std::string s, const std::string& from,
                       const std::string& to) {
  for (size_t pos = s.find(from); pos != std::string::npos;
       pos = s.find(from, pos + to.size())) {
    s.replace(pos, from.size(), to);
  }
  return s;
}

std::vector<Template> MakeTemplates(const StockData& data) {
  auto at = [&](double q) { return std::to_string(PriceAtRank(data, q)); };
  return {
      {"select C, D, P from I::stock T, T.company C, T.date D, T.price P "
       "where P > " + at(0.50) + " and P < ", "", ""},
      {"select C, P from I::stock T, T.company C, T.price P where P < " +
           at(0.40) + " and P < ", "", ""},
      {"select C, D from I::stock T, T.company C, T.date D, T.price P "
       "where P > " + at(0.70) + " and P < ", "", ""},
  };
}

struct Deployment {
  Federation fed;
  std::unique_ptr<dynview::QueryServer> server;
  std::vector<std::unique_ptr<dynview::ServerClient>> clients;

  ~Deployment() {
    clients.clear();
    if (server != nullptr) server->Stop();
  }
};

dynview::Result<std::unique_ptr<Deployment>> Deploy(const StockData& data,
                                                    const FederationSpec& spec) {
  auto d = std::make_unique<Deployment>();
  DV_ASSIGN_OR_RETURN(d->fed, BuildFederation(data, spec));
  dynview::ServerOptions options;
  options.chunk_rows = kChunkRows;
  d->server = std::make_unique<dynview::QueryServer>(d->fed.system.get(), options);
  DV_RETURN_IF_ERROR(d->server->Start());
  for (int s = 0; s < kSessions; ++s) {
    DV_ASSIGN_OR_RETURN(auto client,
                        dynview::ServerClient::Connect("127.0.0.1",
                                                       d->server->port()));
    d->clients.push_back(std::move(client));
  }
  return d;
}

struct SessionStats {
  std::vector<double> latency_us;
  std::vector<double> queue_ms, exec_ms, wire_ms;
  uint64_t ok = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t chunks = 0;
  LayerSamples layers;
  std::vector<std::string> errors;
};

uint64_t Sum(const std::map<std::string, uint64_t>& m,
             std::initializer_list<const char*> names) {
  uint64_t total = 0;
  for (const char* n : names) {
    auto it = m.find(n);
    if (it != m.end()) total += it->second;
  }
  return total;
}

}  // namespace

RunResult RunWireAdhoc(const Options& opt) {
  RunResult result;
  result.Note("layout: 4 sessions x 1 client thread, num_threads=1 (4 server workers), "
              "7 sources, " +
              std::to_string(kCompanies) + " companies x " +
              std::to_string(kDates) + " dates, chunk_rows=32, explain 1 in 20");
  const StockData data = GenerateStock(opt.seed, kCompanies, kDates);
  const FederationSpec spec{kDecoys, /*i_holds_data=*/false, kThreads};
  std::vector<Template> templates = MakeTemplates(data);
  {
    // Expected replies: the in-process answer of each template, itself
    // checked against direct evaluation on I.
    Reference ref(data);
    auto twin = BuildFederation(data, spec);
    if (!twin.ok()) {
      result.setup_ok = false;
      result.Note("twin: " + twin.status().ToString());
      return result;
    }
    dynview::AnswerOptions multiset;
    multiset.multiset = true;
    for (Template& t : templates) {
      const std::string sql = t.head + kPlaceholder;
      auto answer = twin.value().system->AnswerGuarded(sql, multiset);
      auto direct = ref.Evaluate(sql);
      auto explain = twin.value().system->ExplainOptimized(sql);
      if (!answer.ok() || !direct.ok() || !explain.ok() ||
          DigestTable(answer.value().table) != DigestTable(direct.value())) {
        result.setup_ok = false;
        result.Note("in-process answer differs from the reference: " + sql);
        return result;
      }
      t.csv = dynview::TableToCsvTyped(answer.value().table);
      t.explain = ReplaceAll(explain.value(), kPlaceholder, "#");
    }
  }

  std::vector<double> setup_s;
  auto deploy = [&]() {
    Clock::time_point t0 = Clock::now();
    auto deployed = Deploy(data, spec);
    setup_s.push_back(SecondsSince(t0));
    return deployed;
  };
  auto deployed = deploy();
  if (!deployed.ok()) {
    result.setup_ok = false;
    result.Note("setup: " + deployed.status().ToString());
    return result;
  }
  std::unique_ptr<Deployment> dep = std::move(deployed).value();

  RunDir dir(opt);
  std::optional<Federation> durable, delta_twin;
  std::optional<StorageBench> storage;
  dynview::Status st = PrepareStorage(data, spec, dir.path(), opt.trace,
                                      kReplayPairs, &durable, &delta_twin,
                                      &storage);
  if (!st.ok()) {
    result.setup_ok = false;
    result.Note("storage: " + st.ToString());
    return result;
  }

  // Per-session twins for the traced run's layer probes, so the probes
  // neither warm nor evict the served system's caches.
  std::vector<std::optional<Federation>> twins(kSessions);
  if (opt.trace) {
    for (auto& twin : twins) {
      auto built = BuildFederation(data, spec);
      if (!built.ok()) {
        result.setup_ok = false;
        result.Note("twin: " + built.status().ToString());
        return result;
      }
      twin.emplace(std::move(built).value());
    }
  }

  Tracer tracer(opt.trace);
  std::vector<uint64_t> seq(kSessions, 0);
  std::vector<Rng> rngs;
  for (int s = 0; s < kSessions; ++s) {
    rngs.emplace_back(Mix64(opt.seed * 31 + static_cast<uint64_t>(s)));
  }
  // One closed loop per session until `end`; `trace` adds the layer probes.
  auto session = [&](int s, Clock::time_point end, bool trace,
                     SessionStats* out) {
    dynview::ServerClient* client = dep->clients[s].get();
    dynview::AnswerOptions multiset;
    multiset.multiset = true;
    dynview::ClientQueryOptions wire_multiset;
    wire_multiset.multiset = true;
    for (Clock::time_point t0 = Clock::now(); t0 < end; t0 = Clock::now()) {
      const uint64_t n = seq[s]++;
      const Template& t = templates[n % templates.size()];
      // Unique per request across sessions, above every price.
      const std::string literal = std::to_string(
          1000000 + (n * kSessions + static_cast<uint64_t>(s)) * 1000 +
          rngs[s].Next() % 1000);
      const std::string sql = t.head + literal;
      const bool explain = n % kExplainEvery == kExplainEvery - 1;
      auto reply =
          explain ? client->Explain(sql) : client->Query(sql, wire_multiset);
      Clock::time_point t1 = Clock::now();
      const double us = MicrosBetween(t0, t1);
      ++out->attempted;
      bool good = reply.ok() && reply.value().status.ok();
      if (good) {
        good = explain ? ReplaceAll(reply.value().text, literal, "#") == t.explain
                       : reply.value().csv == t.csv;
      }
      if (!good) {
        ++out->failed;
        out->latency_us.push_back(kFailedLatencyUs);
        if (out->errors.size() < 3) {
          out->errors.push_back(
              !reply.ok() ? reply.status().ToString()
                          : !reply.value().status.ok()
                                ? reply.value().status.ToString()
                                : "reply differs from the in-process answer: " +
                                      sql);
        }
        continue;
      }
      ++out->ok;
      out->latency_us.push_back(us);
      const dynview::ClientReply& r = reply.value();
      out->chunks += r.chunks;
      out->queue_ms.push_back(r.queue_ms);
      out->exec_ms.push_back(r.exec_ms);
      out->wire_ms.push_back(us / 1e3 - r.queue_ms - r.exec_ms);
      if (!trace) continue;
      dynview::IntegrationSystem* twin = twins[s]->system.get();
      uint64_t req = tracer.NewRequest();
      uint64_t root = tracer.Record(explain ? "client.explain" : "client.query",
                                    req, 0, t0, t1);
      double answer_us = 0;
      auto answered = Timed(&tracer, "integration.answer", req, root, &answer_us,
                            [&] { return twin->AnswerGuarded(sql, multiset); });
      if (!answered.ok()) {
        ++out->layers.skipped;
        continue;
      }
      ProbeLayers(twin, sql, answered.value(), answer_us, explain, nullptr,
                  &tracer, req, root, &out->layers);
    }
  };

  RoundSeries untraced, traced;
  SessionStats traced_all;
  uint64_t untraced_chunks = 0, untraced_ok = 0;
  const int rounds = RoundsFor(opt.seconds);
  const int untraced_rounds = opt.trace ? std::max(1, rounds / 3) : rounds;
  const double slice_s = opt.seconds / rounds * kReadShare;
  std::map<std::string, uint64_t> server_before;
  dynview::PlanCacheStats cache_before{};
  // Warm-up: connections, pool threads and the server's allocations.
  {
    std::vector<SessionStats> warm(kSessions);
    std::vector<std::thread> threads;
    Clock::time_point end = Clock::now() + ToDuration(0.3);
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back(session, s, end, false, &warm[s]);
    }
    for (std::thread& t : threads) t.join();
  }
  for (int round = 0; round < rounds; ++round) {
    const bool trace = round >= untraced_rounds;
    if (trace && round == untraced_rounds) {
      server_before = dep->server->MetricsSnapshot();
      cache_before = dep->fed.system->plan_cache_stats();
      storage->writer().set_tracer(&tracer);
    }
    for (int i = 0; i < kSetupsPerRound; ++i) {
      ++result.attempted;
      if (!deploy().ok()) ++result.failed;
    }

    std::vector<SessionStats> stats(kSessions);
    std::vector<std::thread> threads;
    Clock::time_point start = Clock::now();
    Clock::time_point end = start + ToDuration(slice_s);
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back(session, s, end, trace, &stats[s]);
    }
    for (std::thread& t : threads) t.join();
    const double elapsed = SecondsSince(start);
    SessionStats round_all;
    for (SessionStats& src : stats) {
      SessionStats& dst = trace ? traced_all : round_all;
      dst.queue_ms.insert(dst.queue_ms.end(), src.queue_ms.begin(),
                          src.queue_ms.end());
      dst.exec_ms.insert(dst.exec_ms.end(), src.exec_ms.begin(),
                         src.exec_ms.end());
      dst.wire_ms.insert(dst.wire_ms.end(), src.wire_ms.begin(),
                         src.wire_ms.end());
      dst.layers.Merge(src.layers);
      round_all.latency_us.insert(round_all.latency_us.end(),
                                  src.latency_us.begin(), src.latency_us.end());
      round_all.ok += src.ok;
      if (!trace) {
        untraced_chunks += src.chunks;
        untraced_ok += src.ok;
      }
      result.attempted += src.attempted;
      result.failed += src.failed;
      for (const std::string& e : src.errors) result.Note("session: " + e);
    }
    (trace ? traced : untraced)
        .AddRound(std::move(round_all.latency_us), round_all.ok, elapsed);

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
  const dynview::PlanCacheStats cache_after = dep->fed.system->plan_cache_stats();
  const std::map<std::string, uint64_t> server_after =
      dep->server->MetricsSnapshot();

  if (opt.trace) {
    ReportLayers(traced_all.layers, cache_before, cache_after, &result);
    result.Set("server.queue_ms", Median(traced_all.queue_ms), "ms");
    result.Set("server.exec_ms", Median(traced_all.exec_ms), "ms");
    result.Set("server.wire_ms", Median(traced_all.wire_ms), "ms");
    auto delta = [&](std::initializer_list<const char*> names) {
      return Sum(server_after, names) - Sum(server_before, names);
    };
    const uint64_t requests = delta({"server.requests"});
    const uint64_t shed =
        delta({"server.shed_queue_full", "server.shed_session_cap",
               "server.shed_pool_backpressure"});
    const uint64_t bytes = delta({"server.bytes_sent"});
    result.Set("server.bytes_per_reply",
               requests > 0 ? static_cast<double>(bytes) / requests : 0, "bytes");
    result.Set("server.shed_ratio",
               requests > 0 ? static_cast<double>(shed) / requests : 0, "ratio");
  } else {
    result.Note("chunk frames per reply: " +
                std::to_string(static_cast<double>(untraced_chunks) /
                               static_cast<double>(std::max<uint64_t>(1, untraced_ok))));
  }
  ReportRun(opt, untraced, traced, setup_s, *storage, tracer, &result);
  return result;
}

}  // namespace perfbench
