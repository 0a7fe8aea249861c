// Wire-protocol load generator and demo server for src/server/.
//
// Three ways to run it:
//
//   dynview_client --serve --port 7433
//       Start a query server over a generated stock federation and block
//       until Ctrl-C. Pair it with a second invocation below.
//
//   dynview_client --host 127.0.0.1 --port 7433 --sessions 8 --qps 50
//       Drive an external server: 8 concurrent sessions, 50 req/s each
//       (open loop). --qps 0 (default) is closed loop: each session fires
//       its next request the moment the previous reply lands.
//
//   dynview_client --sessions 8 --duration-ms 3000
//       No --port: spin up an embedded server in-process and drive it —
//       the one-command quickstart.
//
// The workload is deterministic for a fixed --seed: each session derives
// its own RNG and draws verbs from the --workload mix (mixed = 70% heavy
// fan-out query, 15% first-order query, 15% EXPLAIN on the cheap lane).
// Shed responses (kResourceExhausted + retry-after) are counted, not
// retried — the printed shed rate is the server's admission decision,
// undiluted. Exit prints client-side throughput + latency percentiles and
// the server's own stats-verb counters.

#include <atomic>
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "integration/integration.h"
#include "observe/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/stock_data.h"

using namespace dynview;

namespace {

constexpr char kFanOut[] =
    "select R, D, P from s2 -> R, R T, T.date D, T.price P";

std::string FirstOrderSql(int company) {
  return "select T.date, T.price from I::stock T where T.company = '" +
         CompanyName(company) + "'";
}

struct Flags {
  bool serve = false;
  std::string host = "127.0.0.1";
  int port = 0;  // 0 in load-gen mode = embedded server.
  int sessions = 4;
  double qps = 0.0;  // Per session; 0 = closed loop.
  int duration_ms = 2000;
  uint64_t seed = 42;
  std::string workload = "mixed";  // mixed | fanout | firstorder
  int deadline_ms = -1;
  int companies = 3;  // Embedded/serve catalog size.
  int dates = 5;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--serve] [--host H] [--port N] [--sessions N] [--qps Q]\n"
      "          [--duration-ms MS] [--seed S] [--workload mixed|fanout|"
      "firstorder]\n"
      "          [--deadline-ms MS] [--companies N] [--dates N]\n",
      argv0);
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      size_t eq = arg.find('=');
      if (eq != std::string::npos) return arg.substr(eq + 1);
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    std::string name = arg.substr(0, arg.find('='));
    if (name == "--serve") {
      f.serve = true;
    } else if (name == "--host") {
      f.host = value();
    } else if (name == "--port") {
      f.port = std::atoi(value().c_str());
    } else if (name == "--sessions") {
      f.sessions = std::atoi(value().c_str());
    } else if (name == "--qps") {
      f.qps = std::atof(value().c_str());
    } else if (name == "--duration-ms") {
      f.duration_ms = std::atoi(value().c_str());
    } else if (name == "--seed") {
      f.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (name == "--workload") {
      f.workload = value();
    } else if (name == "--deadline-ms") {
      f.deadline_ms = std::atoi(value().c_str());
    } else if (name == "--companies") {
      f.companies = std::atoi(value().c_str());
    } else if (name == "--dates") {
      f.dates = std::atoi(value().c_str());
    } else {
      Usage(argv[0]);
    }
  }
  if (f.sessions < 1 || f.duration_ms < 1 ||
      (f.workload != "mixed" && f.workload != "fanout" &&
       f.workload != "firstorder")) {
    Usage(argv[0]);
  }
  return f;
}

void InstallFederation(Catalog* catalog, const Flags& f) {
  StockGenConfig cfg;
  cfg.num_companies = f.companies;
  cfg.num_dates = f.dates;
  cfg.seed = f.seed;
  Table s1 = GenerateStockS1(cfg);
  if (!InstallStockS1(catalog, "I", s1).ok() ||
      !InstallStockS2(catalog, "s2", s1).ok()) {
    std::fprintf(stderr, "failed to install the stock federation\n");
    std::exit(1);
  }
}

std::atomic<bool> g_interrupted{false};
void OnSigInt(int) { g_interrupted.store(true); }

int Serve(const Flags& f) {
  Catalog catalog;
  InstallFederation(&catalog, f);
  IntegrationSystem system(&catalog, "s2");
  ServerOptions sopts;
  sopts.host = f.host;
  sopts.port = f.port;
  QueryServer server(&system, sopts);
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("dynview server listening on %s:%d (%d companies, %d dates)\n",
              f.host.c_str(), server.port(), f.companies, f.dates);
  std::printf("Ctrl-C to stop.\n");
  std::signal(SIGINT, OnSigInt);
  while (!g_interrupted.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Stop();
  std::map<std::string, uint64_t> stats = server.MetricsSnapshot();
  std::printf(
      "stopped: accepted=%llu requests=%llu\n",
      static_cast<unsigned long long>(stats[counters::kServerAccepted]),
      static_cast<unsigned long long>(stats[counters::kServerRequests]));
  return 0;
}

/// One session's tally, merged after join.
struct SessionResult {
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  uint64_t rows = 0;
  std::vector<double> latencies_ms;  // OK requests only.
};

void RunSession(const Flags& f, int index, int port, SessionResult* out) {
  auto client = ServerClient::Connect(f.host, port, "dynview_client");
  if (!client.ok()) {
    out->errors++;
    return;
  }
  // Session-private deterministic stream: the mix each session draws is a
  // pure function of (--seed, session index).
  std::mt19937_64 rng(f.seed ^ (0x9e3779b97f4a7c15ull * (index + 1)));
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<int> company(0, std::max(1, f.companies) - 1);

  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::milliseconds(f.duration_ms);
  const auto period =
      f.qps > 0.0 ? std::chrono::duration_cast<std::chrono::steady_clock::
                                                   duration>(
                        std::chrono::duration<double>(1.0 / f.qps))
                  : std::chrono::steady_clock::duration::zero();
  auto next_send = start;

  while (std::chrono::steady_clock::now() < deadline) {
    if (f.qps > 0.0) {  // Open loop: fixed arrival schedule.
      std::this_thread::sleep_until(next_send);
      next_send += period;
      if (next_send > deadline) break;
    }

    ClientQueryOptions qopts;
    qopts.multiset = true;
    if (f.deadline_ms > 0) qopts.deadline_ms = f.deadline_ms;

    int roll = pct(rng);
    bool explain = false;
    std::string sql;
    if (f.workload == "fanout") {
      sql = kFanOut;
    } else if (f.workload == "firstorder") {
      sql = FirstOrderSql(company(rng));
    } else if (roll < 70) {
      sql = kFanOut;
    } else if (roll < 85) {
      sql = FirstOrderSql(company(rng));
    } else {
      explain = true;
      sql = FirstOrderSql(company(rng));
    }

    const auto t0 = std::chrono::steady_clock::now();
    auto reply = explain ? client.value()->Explain(sql)
                         : client.value()->Query(sql, qopts);
    const auto t1 = std::chrono::steady_clock::now();
    if (!reply.ok()) {  // Transport failure: the session is gone.
      out->errors++;
      return;
    }
    const ClientReply& r = reply.value();
    if (r.status.ok()) {
      out->ok++;
      out->rows += r.rows;
      out->latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    } else if (r.retry_after_ms > 0) {
      out->shed++;  // Admission decision, reported not retried.
    } else {
      out->errors++;
    }
  }
}

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t idx = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

int LoadGen(const Flags& f) {
  // Embedded mode: no --port means stand up a private server in-process.
  Catalog catalog;
  std::unique_ptr<IntegrationSystem> system;
  std::unique_ptr<QueryServer> server;
  int port = f.port;
  if (port == 0) {
    InstallFederation(&catalog, f);
    system = std::make_unique<IntegrationSystem>(&catalog, "s2");
    server = std::make_unique<QueryServer>(system.get());
    Status st = server->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "embedded server start failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    port = server->port();
  }

  char mode[64];
  if (f.qps > 0) {
    std::snprintf(mode, sizeof(mode), "open loop @ %.1f qps/session", f.qps);
  } else {
    std::snprintf(mode, sizeof(mode), "closed loop");
  }
  std::printf("=== dynview_client: %d sessions, %s, workload=%s, %d ms%s ===\n",
              f.sessions, mode, f.workload.c_str(), f.duration_ms,
              server ? " (embedded server)" : "");

  std::vector<SessionResult> results(f.sessions);
  std::vector<std::thread> threads;
  const auto wall0 = std::chrono::steady_clock::now();
  for (int t = 0; t < f.sessions; ++t) {
    threads.emplace_back(RunSession, f, t, port, &results[t]);
  }
  for (auto& th : threads) th.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();

  uint64_t ok = 0, shed = 0, errors = 0, rows = 0;
  std::vector<double> latencies;
  for (const SessionResult& r : results) {
    ok += r.ok;
    shed += r.shed;
    errors += r.errors;
    rows += r.rows;
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
  }
  std::sort(latencies.begin(), latencies.end());
  const uint64_t total = ok + shed + errors;

  std::printf("requests=%llu ok=%llu shed=%llu errors=%llu rows=%llu\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(rows));
  std::printf("throughput=%.1f req/s over %.2f s\n",
              wall_s > 0 ? total / wall_s : 0.0, wall_s);
  std::printf("latency ms: p50=%.2f p95=%.2f p99=%.2f max=%.2f\n",
              Percentile(latencies, 0.50), Percentile(latencies, 0.95),
              Percentile(latencies, 0.99),
              latencies.empty() ? 0.0 : latencies.back());

  // The server's own view, over the wire — works embedded or remote.
  auto probe = ServerClient::Connect(f.host, port, "dynview_client-stats");
  if (probe.ok()) {
    auto stats = probe.value()->Stats();
    if (stats.ok() && stats.value().status.ok()) {
      std::printf("server:");
      for (const auto& [name, v] : stats.value().stats) {
        std::printf(" %s=%llu", name.c_str(),
                    static_cast<unsigned long long>(v));
      }
      std::printf("\n");
    }
  }
  if (server) server->Stop();
  return errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags f = ParseFlags(argc, argv);
  return f.serve ? Serve(f) : LoadGen(f);
}
