// Query-server suite (ctest -L server): the robustness contract of
// src/server/ — wire codec round-trips, concurrent sessions byte-identical
// to in-process AnswerGuarded, deterministic load shedding (admission
// queues, per-session caps, thread-pool backpressure), cooperative
// disconnect cancellation, and chaos inputs (failpoints on accept/read/
// write, torn/garbage/oversized frames) degrading to clean errors.
// scripts/run_experiments.sh additionally runs this binary under
// ThreadSanitizer.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analyze/diagnostic.h"
#include "common/failpoint.h"
#include "integration/integration.h"
#include "observe/metrics.h"
#include "relational/csv.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

constexpr char kFanOut[] =
    "select R, D, P from s2 -> R, R T, T.date D, T.price P";

/// One counter of the server's `stats` surface (0 when never touched).
uint64_t Counter(const QueryServer& server, const char* name) {
  const std::map<std::string, uint64_t> snapshot = server.MetricsSnapshot();
  auto it = snapshot.find(name);
  return it == snapshot.end() ? 0 : it->second;
}

// First-order companion: a query on the integration schema.
constexpr char kFirstOrder[] =
    "select T.date, T.price from I::stock T where T.company = 'coA'";

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::DisarmAll();
    StockGenConfig cfg;
    Table s1 = GenerateStockS1(cfg);
    ASSERT_TRUE(InstallStockS1(&catalog_, "I", s1).ok());
    ASSERT_TRUE(InstallStockS2(&catalog_, "s2", s1).ok());
  }
  void TearDown() override { FailPoints::DisarmAll(); }

  static void ArmLatency(const char* point, int ms) {
    FailSpec spec;
    spec.mode = FailMode::kLatency;
    spec.latency_ms = ms;
    FailPoints::Arm(point, spec);
  }

  static bool WaitFor(const std::function<bool()>& pred, int timeout_ms) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return pred();
  }

  Catalog catalog_;
};

// --- Wire codec ------------------------------------------------------------

TEST(WireTest, FrameDecoderReassemblesArbitrarySplits) {
  const std::string payloads[] = {"{\"a\":1}", "", std::string(1000, 'x')};
  std::string stream;
  for (const std::string& p : payloads) stream += EncodeFrame(p);

  // Feed one byte at a time: framing must not depend on read boundaries.
  FrameDecoder decoder(1 << 20);
  std::vector<std::string> got;
  for (char c : stream) {
    ASSERT_TRUE(decoder.Feed(&c, 1).ok());
    std::string out;
    while (decoder.Next(&out)) got.push_back(out);
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], payloads[0]);
  EXPECT_EQ(got[1], payloads[1]);
  EXPECT_EQ(got[2], payloads[2]);
  EXPECT_FALSE(decoder.HasPartial());
}

TEST(WireTest, FrameDecoderRejectsOversizedDeclaration) {
  FrameDecoder decoder(16);
  const std::string frame = EncodeFrame(std::string(17, 'x'));
  Status s = decoder.Feed(frame.data(), frame.size());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  // Permanent: no frame ever comes out, further feeds keep failing.
  std::string out;
  EXPECT_FALSE(decoder.Next(&out));
  EXPECT_FALSE(decoder.Feed("x", 1).ok());
}

TEST(WireTest, JsonRoundTripsEscapesAndRejectsMalformed) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s").String("a\"b\\c\n\t\x01π");
  w.Key("i").Int(-42);
  w.Key("arr").BeginArray().Int(1).Bool(true).Null().EndArray();
  w.Key("nested").BeginObject().Key("d").Double(0.5).EndObject();
  w.EndObject();

  Result<JsonValue> parsed = JsonParse(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = parsed.value();
  EXPECT_EQ(doc.GetString("s"), "a\"b\\c\n\t\x01π");
  EXPECT_EQ(doc.GetInt("i"), -42);
  ASSERT_TRUE(doc.Find("arr")->is_array());
  EXPECT_EQ(doc.Find("arr")->items.size(), 3u);
  EXPECT_EQ(doc.Find("nested")->GetDouble("d"), 0.5);

  for (const char* bad :
       {"", "{", "{\"a\":}", "[1,]", "nul", "\"\\u12\"", "{\"a\":1}x",
        "{\"a\" 1}"}) {
    EXPECT_FALSE(JsonParse(bad).ok()) << "accepted: " << bad;
  }
  // Depth bomb: 100 nested arrays must hit the depth limit, not the stack.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(JsonParse(deep).ok());
}

// --- Query execution over the wire -----------------------------------------

TEST_F(ServerTest, ConcurrentSessionsMatchInProcessAnswersByteForByte) {
  IntegrationSystem system(&catalog_, "s2");
  ServerOptions sopts;
  sopts.chunk_rows = 4;  // Force multi-chunk streaming.
  QueryServer server(&system, sopts);
  ASSERT_TRUE(server.Start().ok());

  AnswerOptions options;
  options.multiset = true;
  auto expected = system.AnswerGuarded(kFanOut, options);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  const std::string expected_csv = TableToCsvTyped(expected.value().table);
  const uint64_t expected_rows = expected.value().table.num_rows();

  constexpr int kSessions = 4;
  constexpr int kQueriesPerSession = 3;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> max_chunks{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([&] {
      auto client = ServerClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int q = 0; q < kQueriesPerSession; ++q) {
        ClientQueryOptions qopts;
        qopts.multiset = true;
        auto reply = client.value()->Query(kFanOut, qopts);
        if (!reply.ok() || !reply.value().status.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (reply.value().csv != expected_csv ||
            reply.value().rows != expected_rows) {
          mismatches.fetch_add(1);
        }
        uint64_t seen = reply.value().chunks;
        uint64_t cur = max_chunks.load();
        while (seen > cur && !max_chunks.compare_exchange_weak(cur, seen)) {
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(max_chunks.load(), 1u) << "chunk_rows=4 should stream >1 chunk";
  EXPECT_EQ(Counter(server, counters::kServerAccepted),
            static_cast<uint64_t>(kSessions));
  server.Stop();
}

TEST_F(ServerTest, ExplainAndQueryShareThePlanCacheUnderCommits) {
  // Sessions interleave `explain` and `query` of the same SQL — a rewriting
  // onto s2 and a direct fan-out over s2 — while a writer commits to s2.
  // Explain plans on the cheap lane into the plan cache the queries read.
  IntegrationSystem system(&catalog_, "I");
  const std::string source =
      "create view s2::C(date, price) as select D, P "
      "from I::stock T, T.company C, T.date D, T.price P";
  ASSERT_TRUE(system.RegisterSource(source).ok());
  QueryServer server(&system);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::string> sqls = {
      "select C, D, P from I::stock T, T.company C, T.date D, T.price P "
      "where P > 100",
      kFanOut};
  // Row changes leave every relation and schema in place, so the plan text
  // is the same at every version.
  std::vector<std::string> explains;
  for (const std::string& sql : sqls) {
    auto text = system.ExplainOptimized(sql);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    explains.push_back(text.value());
  }

  std::mutex mu;
  std::map<uint64_t, std::shared_ptr<const CatalogSnapshot>> snapshots;
  auto record = [&] {
    auto snap = catalog_.Snapshot();
    std::lock_guard<std::mutex> lock(mu);
    snapshots[snap->version()] = snap;
  };
  record();
  std::atomic<int> failures{0};
  std::atomic<bool> writing{true};
  std::thread writer([&] {
    Table coa = *catalog_.ResolveTable("s2", "coA").value();
    const int price = coa.schema().IndexOf("price");
    for (int i = 0; i < 20; ++i) {
      Row row = coa.row(0);
      row[price] = Value::Int(1000 + i);
      coa.AppendRowUnchecked(std::move(row));
      if (!catalog_.PutTable("s2", "coA", coa).ok()) {
        failures.fetch_add(1);
        break;
      }
      record();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    writing = false;
  });

  struct Answer {
    size_t sql = 0;
    uint64_t version = 0;
    std::string csv;
  };
  constexpr int kSessions = 3;
  std::vector<std::vector<Answer>> answers(kSessions);
  std::atomic<int> explain_mismatches{0};
  std::vector<std::thread> sessions;
  for (int t = 0; t < kSessions; ++t) {
    sessions.emplace_back([&, t] {
      auto client = ServerClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      ClientQueryOptions bag;
      bag.multiset = true;
      for (int round = 0; round < 8 || writing; ++round) {
        const size_t q = static_cast<size_t>(round + t) % sqls.size();
        auto explained = client.value()->Explain(sqls[q]);
        if (!explained.ok() || !explained.value().status.ok()) {
          failures.fetch_add(1);
        } else if (explained.value().text != explains[q]) {
          explain_mismatches.fetch_add(1);
        }
        auto reply = client.value()->Query(sqls[q], bag);
        if (!reply.ok() || !reply.value().status.ok()) {
          failures.fetch_add(1);
          continue;
        }
        answers[t].push_back(
            {q, reply.value().snapshot_version, reply.value().csv});
      }
    });
  }
  writer.join();
  for (auto& th : sessions) th.join();
  server.Stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(explain_mismatches.load(), 0);

  // Every answer equals a serial answer at its snapshot version.
  ExecConfig serial;
  serial.num_threads = 1;
  IntegrationSystem twin(&catalog_, "I", IntegrationOptions{serial});
  ASSERT_TRUE(twin.RegisterSource(source).ok());
  AnswerOptions bag;
  bag.multiset = true;
  size_t checked = 0;
  for (const std::vector<Answer>& list : answers) {
    for (const Answer& a : list) {
      auto it = snapshots.find(a.version);
      ASSERT_NE(it, snapshots.end()) << "unrecorded version " << a.version;
      QueryContext qc(bag.guards);
      qc.PinSnapshot(it->second);
      auto expected = twin.AnswerGuarded(sqls[a.sql], bag, &qc);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ASSERT_EQ(expected.value().snapshot_version, a.version);
      EXPECT_EQ(TableToCsvTyped(expected.value().table), a.csv)
          << sqls[a.sql] << " at version " << a.version;
      ++checked;
    }
  }
  EXPECT_GE(checked, static_cast<size_t>(kSessions * 8));
}

TEST_F(ServerTest, ExplainLintPrepareExecuteAndStatsOverTheWire) {
  IntegrationSystem system(&catalog_, "s2");
  QueryServer server(&system);
  ASSERT_TRUE(server.Start().ok());
  auto client = ServerClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ServerClient& c = *client.value();
  EXPECT_GT(c.hello().session, 0u);

  // Explain matches the in-process rendering byte for byte.
  auto explain = c.Explain(kFirstOrder);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  ASSERT_TRUE(explain.value().status.ok())
      << explain.value().status.ToString();
  auto direct = system.ExplainOptimized(kFirstOrder);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(explain.value().text, direct.value());

  // A higher-order query explains too: the fan-out `query` runs, with one
  // scanned relation per grounding.
  auto fanout = c.Explain(kFanOut);
  ASSERT_TRUE(fanout.ok());
  ASSERT_TRUE(fanout.value().status.ok()) << fanout.value().status.ToString();
  const std::string& plan = fanout.value().text;
  EXPECT_NE(plan.find("fan-out, 3 grounding(s) enumerated, 0 pruned, 3 run"),
            std::string::npos)
      << plan;
  for (const char* relation : {"s2::coA", "s2::coB", "s2::coC"}) {
    EXPECT_NE(plan.find(relation), std::string::npos) << relation << plan;
  }

  // Lint matches RenderDiagnosticsJson of LintSources.
  auto lint = c.Lint();
  ASSERT_TRUE(lint.ok() && lint.value().status.ok());
  EXPECT_EQ(lint.value().text, RenderDiagnosticsJson(system.LintSources()));

  // Prepare + execute reproduces the plain query result.
  ClientQueryOptions qopts;
  qopts.multiset = true;
  auto query = c.Query(kFanOut, qopts);
  ASSERT_TRUE(query.ok() && query.value().status.ok());
  auto prepared = c.Prepare(kFanOut);
  ASSERT_TRUE(prepared.ok() && prepared.value().status.ok());
  EXPECT_GT(prepared.value().prepared, 0u);
  EXPECT_EQ(prepared.value().prepared_params, 0);
  auto executed = c.Execute(prepared.value().prepared, {}, qopts);
  ASSERT_TRUE(executed.ok() && executed.value().status.ok());
  EXPECT_EQ(executed.value().csv, query.value().csv);

  // Executing an unknown prepared id is a request-level NotFound.
  auto missing = c.Execute(999, {}, qopts);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status.code(), StatusCode::kNotFound);

  // Unparseable SQL is the parser's positioned error, not NotFound.
  auto garbled = c.Query("selec 1", qopts);
  ASSERT_TRUE(garbled.ok());
  EXPECT_EQ(garbled.value().status.code(), StatusCode::kParseError)
      << garbled.value().status.ToString();
  EXPECT_NE(garbled.value().status.message().find("at offset 0"),
            std::string::npos);

  // Ping and stats answer inline; stats carries the server.* counters.
  auto ping = c.Ping();
  ASSERT_TRUE(ping.ok() && ping.value().status.ok());
  auto stats = c.Stats();
  ASSERT_TRUE(stats.ok() && stats.value().status.ok());
  EXPECT_GT(stats.value().stats["server.requests"], 0u);
  EXPECT_GT(stats.value().stats["server.requests_admitted"], 0u);
  EXPECT_EQ(stats.value().stats["server.requests"],
            server.MetricsSnapshot()["server.requests"]);

  // A second hello on a handshaken session is rejected, connection survives.
  Request hello;
  hello.verb = Verb::kHello;
  auto id = c.SendRequest(std::move(hello));
  ASSERT_TRUE(id.ok());
  auto rehello = c.Await(id.value());
  ASSERT_TRUE(rehello.ok());
  EXPECT_EQ(rehello.value().status.code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(c.Ping().ok());
  server.Stop();
}

// --- One metrics surface ---------------------------------------------------

TEST_F(ServerTest, StatsPolledDuringLintAuditAndQueriesKeepsExactTotals) {
  // Lint and audit tally into the system registry on pool workers while
  // every query copies its analyze.* family at answer end and a poller reads
  // all of it through `stats` on the reactor. The totals come out exact.
  IntegrationSystem system(&catalog_, "s2");
  QueryServer server(&system);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kRounds = 8;
  std::atomic<int> failures{0};
  std::atomic<uint64_t> sent{0};
  auto session = [&](const std::function<Result<ClientReply>(ServerClient&)>&
                         verb) {
    auto client = ServerClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) {
      failures.fetch_add(1);
      return;
    }
    for (int i = 0; i < kRounds; ++i) {
      auto reply = verb(*client.value());
      sent.fetch_add(1);
      if (!reply.ok() || !reply.value().status.ok()) failures.fetch_add(1);
    }
  };
  auto lint = [](ServerClient& c) { return c.Lint(); };
  auto audit = [](ServerClient& c) { return c.Audit(); };
  auto query = [](ServerClient& c) {
    ClientQueryOptions qopts;
    qopts.multiset = true;
    return c.Query(kFanOut, qopts);
  };

  std::atomic<bool> done{false};
  std::thread poller([&] {
    auto client = ServerClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) {
      failures.fetch_add(1);
      return;
    }
    while (!done.load()) {
      auto reply = client.value()->Stats();
      sent.fetch_add(1);
      if (!reply.ok() || !reply.value().status.ok()) failures.fetch_add(1);
      (void)server.MetricsSnapshot();
    }
  });
  std::vector<std::thread> sessions;
  for (int i = 0; i < 2; ++i) {
    sessions.emplace_back(session, lint);
    sessions.emplace_back(session, audit);
    sessions.emplace_back(session, query);
  }
  for (auto& t : sessions) t.join();
  done.store(true);
  poller.join();

  EXPECT_EQ(failures.load(), 0);
  IntegrationSystem one_lint(&catalog_, "s2");
  (void)one_lint.LintSources();
  const uint64_t checks_per_lint =
      one_lint.metrics().Value(counters::kAnalyzeChecksRun);
  const std::map<std::string, uint64_t> stats = server.MetricsSnapshot();
  auto at = [&](const char* name) {
    auto it = stats.find(name);
    return it == stats.end() ? 0 : it->second;
  };
  EXPECT_EQ(at(counters::kAuditRuns), 2u * kRounds);
  EXPECT_EQ(at(counters::kServerRequests), sent.load());
  EXPECT_GT(checks_per_lint, 0u);
  EXPECT_EQ(at(counters::kAnalyzeChecksRun), 2u * kRounds * checks_per_lint);
  server.Stop();
}

TEST_F(ServerTest, StatsReplyCarriesEveryCounterFamily) {
  const std::string dir =
      "/tmp/dynview_server_stats_" + std::to_string(::getpid());
  ASSERT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
  {
    IntegrationSystem system(&catalog_, "I");
    ASSERT_TRUE(system.OpenDurable(dir).ok());
    // Registered after OpenDurable: the source record is a WAL append.
    ASSERT_TRUE(system
                    .RegisterSource("create view s2::C(date, price) as "
                                    "select D, P from I::stock T, "
                                    "T.company C, T.date D, T.price P")
                    .ok());
    QueryServer server(&system);
    ASSERT_TRUE(server.Start().ok());
    auto client = ServerClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ServerClient& c = *client.value();

    for (int i = 0; i < 2; ++i) {
      auto reply = c.Query(kFirstOrder);
      ASSERT_TRUE(reply.ok() && reply.value().status.ok());
    }
    auto lint = c.Lint();
    ASSERT_TRUE(lint.ok() && lint.value().status.ok());
    auto stats = c.Stats();
    ASSERT_TRUE(stats.ok() && stats.value().status.ok());
    std::map<std::string, uint64_t> reply = stats.value().stats;
    EXPECT_GE(reply[counters::kPlanCacheHits], 1u);
    EXPECT_GT(reply[counters::kAnalyzeChecksRun], 0u);
    EXPECT_GT(reply[counters::kStorageWalAppends], 0u);
    EXPECT_EQ(reply[counters::kServerRequests], 4u);  // 2 queries, lint, stats.
    // The reply is the in-process surface, family for family.
    const PlanCacheStats cache = system.plan_cache_stats();
    EXPECT_EQ(reply[counters::kPlanCacheHits], cache.hits);
    EXPECT_EQ(reply[counters::kPlanCacheMisses], cache.misses);
    EXPECT_EQ(reply[counters::kStorageWalAppends],
              system.storage_metrics()->Value(counters::kStorageWalAppends));
    server.Stop();
    ASSERT_TRUE(system.CloseDurable().ok());
  }
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

// --- Load shedding ---------------------------------------------------------

TEST_F(ServerTest, ShedsDeterministicallyWhenHeavyQueueIsFull) {
  ArmLatency("engine.grounding", 30);
  IntegrationSystem system(&catalog_, "s2");
  ServerOptions sopts;
  sopts.admission.max_concurrent = 1;
  sopts.admission.max_queued_heavy = 1;
  QueryServer server(&system, sopts);
  ASSERT_TRUE(server.Start().ok());
  auto client = ServerClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ServerClient& c = *client.value();

  // Four pipelined heavy queries hit admission back to back: one runs, one
  // queues, two shed — decided serially on the reactor, so exactly ids 3
  // and 4 are shed, every run. Each carries a generous deadline: the server
  // bounds its queue by shedding the excess, so the admitted two finish
  // inside theirs and nothing is answered kDeadlineExceeded.
  std::vector<uint64_t> ids;
  ClientQueryOptions qopts;
  qopts.multiset = true;
  qopts.deadline_ms = 10000;
  for (int i = 0; i < 4; ++i) {
    auto id = c.SendQuery(kFanOut, qopts);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  int ok = 0, shed = 0;
  for (uint64_t id : ids) {
    auto reply = c.Await(id);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_NE(reply.value().status.code(), StatusCode::kDeadlineExceeded)
        << "request " << id << " was admitted past its deadline";
    if (reply.value().status.ok()) {
      ++ok;
      continue;
    }
    ++shed;
    EXPECT_EQ(reply.value().status.code(), StatusCode::kResourceExhausted);
    EXPECT_GT(reply.value().retry_after_ms, 0);
    EXPECT_EQ(reply.value().queue_depth, "1/1");
    EXPECT_GE(id, ids[2]) << "only the tail of the burst may shed";
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(shed, 2);
  EXPECT_EQ(Counter(server, counters::kServerShedQueueFull), 2u);
  server.Stop();
}

TEST_F(ServerTest, CheapLaneOvertakesQueuedHeavyQueries) {
  ArmLatency("engine.grounding", 20);
  IntegrationSystem system(&catalog_, "s2");
  ServerOptions sopts;
  sopts.admission.max_concurrent = 1;
  QueryServer server(&system, sopts);
  ASSERT_TRUE(server.Start().ok());
  auto client = ServerClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ServerClient& c = *client.value();

  ClientQueryOptions qopts;
  qopts.multiset = true;
  auto q1 = c.SendQuery(kFanOut, qopts);   // Runs (holds the only slot).
  auto q2 = c.SendQuery(kFanOut, qopts);   // Heavy, queued.
  auto q3 = c.SendExplain(kFirstOrder);    // Cheap, queued after q2.
  ASSERT_TRUE(q1.ok() && q2.ok() && q3.ok());

  // Completion order on the wire: q1, then the cheap lane drains first.
  std::vector<uint64_t> order;
  for (int i = 0; i < 3; ++i) {
    auto reply = c.AwaitNext();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(reply.value().status.ok())
        << reply.value().status.ToString();
    order.push_back(reply.value().id);
  }
  EXPECT_EQ(order, (std::vector<uint64_t>{q1.value(), q3.value(),
                                          q2.value()}));
  server.Stop();
}

TEST_F(ServerTest, PoolBackpressureShedsWithResourceExhausted) {
  // The engine's own TrySubmit cap refuses the admission submission: one
  // worker (num_threads=2), a one-deep pool queue, and admission configured
  // to allow more concurrency than the pool can hold.
  ArmLatency("engine.grounding", 30);
  IntegrationOptions iopts;
  iopts.exec.num_threads = 2;
  iopts.exec.max_queued_tasks = 1;
  IntegrationSystem system(&catalog_, "s2", iopts);
  ServerOptions sopts;
  sopts.admission.max_concurrent = 4;
  QueryServer server(&system, sopts);
  ASSERT_TRUE(server.Start().ok());
  auto client = ServerClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ServerClient& c = *client.value();

  ClientQueryOptions qopts;
  qopts.multiset = true;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = c.SendQuery(kFanOut, qopts);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  int ok = 0, shed = 0;
  for (uint64_t id : ids) {
    auto reply = c.Await(id);
    ASSERT_TRUE(reply.ok());
    if (reply.value().status.ok()) {
      ++ok;
      continue;
    }
    ++shed;
    EXPECT_EQ(reply.value().status.code(), StatusCode::kResourceExhausted);
    EXPECT_NE(reply.value().status.message().find("thread pool queue full"),
              std::string::npos)
        << reply.value().status.ToString();
    EXPECT_NE(reply.value().queue_depth.find("/1"), std::string::npos);
    EXPECT_GT(reply.value().retry_after_ms, 0);
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1);
  EXPECT_EQ(ok + shed, 3);
  EXPECT_EQ(Counter(server, counters::kServerShedPool),
            static_cast<uint64_t>(shed));
  server.Stop();
}

TEST_F(ServerTest, SessionInflightCapSheds) {
  ArmLatency("engine.grounding", 30);
  IntegrationSystem system(&catalog_, "s2");
  ServerOptions sopts;
  sopts.admission.max_concurrent = 1;
  sopts.admission.max_inflight_per_session = 2;
  QueryServer server(&system, sopts);
  ASSERT_TRUE(server.Start().ok());
  auto client = ServerClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ServerClient& c = *client.value();
  EXPECT_EQ(c.hello().max_inflight, 2u);

  ClientQueryOptions qopts;
  qopts.multiset = true;
  auto q1 = c.SendQuery(kFanOut, qopts);  // Running.
  auto q2 = c.SendQuery(kFanOut, qopts);  // Queued: session holds 2.
  auto q3 = c.SendQuery(kFanOut, qopts);  // Over the cap: shed.
  ASSERT_TRUE(q1.ok() && q2.ok() && q3.ok());
  auto r3 = c.Await(q3.value());
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3.value().status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r3.value().status.message().find("session concurrency cap"),
            std::string::npos);
  EXPECT_TRUE(c.Await(q1.value()).value().status.ok());
  EXPECT_TRUE(c.Await(q2.value()).value().status.ok());
  EXPECT_EQ(Counter(server, counters::kServerShedSessionCap), 1u);
  server.Stop();
}

// --- Guards ----------------------------------------------------------------

TEST_F(ServerTest, DeadlineAndBudgetGuardsPropagate) {
  ArmLatency("engine.grounding", 30);
  IntegrationSystem system(&catalog_, "s2");
  QueryServer server(&system);
  ASSERT_TRUE(server.Start().ok());
  auto client = ServerClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ServerClient& c = *client.value();

  ClientQueryOptions tight;
  tight.multiset = true;
  tight.deadline_ms = 1;
  auto late = c.Query(kFanOut, tight);
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late.value().status.code(), StatusCode::kDeadlineExceeded)
      << late.value().status.ToString();

  FailPoints::DisarmAll();
  ClientQueryOptions budget;
  budget.multiset = true;
  budget.row_budget = 1;
  auto over = c.Query(kFanOut, budget);
  ASSERT_TRUE(over.ok());
  EXPECT_EQ(over.value().status.code(), StatusCode::kResourceExhausted)
      << over.value().status.ToString();
  server.Stop();
}

// --- Chaos -----------------------------------------------------------------

TEST_F(ServerTest, DisconnectMidQueryCancelsCooperatively) {
  ArmLatency("engine.grounding", 20);
  IntegrationSystem system(&catalog_, "s2");
  QueryServer server(&system);
  ASSERT_TRUE(server.Start().ok());
  {
    auto client = ServerClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    ClientQueryOptions qopts;
    qopts.multiset = true;
    ASSERT_TRUE(client.value()->SendQuery(kFanOut, qopts).ok());
    client.value()->CloseAbruptly();  // Mid-query vanish.
  }
  EXPECT_TRUE(WaitFor(
      [&] { return Counter(server, counters::kServerDisconnectCancels) >= 1; },
      5000))
      << "disconnect did not cancel the in-flight query";

  // The server shrugged it off: a fresh session still answers.
  auto again = ServerClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(again.ok());
  ClientQueryOptions qopts;
  qopts.multiset = true;
  auto reply = again.value()->Query(kFanOut, qopts);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().status.ok());
  server.Stop();
}

TEST_F(ServerTest, IoFailpointsDegradeToCleanCloses) {
  IntegrationSystem system(&catalog_, "s2");
  QueryServer server(&system);
  ASSERT_TRUE(server.Start().ok());

  // server.accept: the connection is dropped before the handshake, the next
  // one sails through (error-once).
  FailSpec once;
  once.mode = FailMode::kErrorOnce;
  FailPoints::Arm("server.accept", once);
  auto refused = ServerClient::Connect("127.0.0.1", server.port());
  EXPECT_FALSE(refused.ok());
  auto client = ServerClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // server.read: the next inbound traffic kills exactly this connection.
  FailPoints::Arm("server.read", once);
  ASSERT_TRUE(client.value()->SendRawFrame("{\"verb\":\"ping\"}").ok());
  auto dead = client.value()->Ping();
  EXPECT_FALSE(dead.ok() && dead.value().status.ok());

  // server.write: the reply flush kills the connection; server survives.
  auto w = ServerClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(w.ok());
  FailPoints::Arm("server.write", once);
  auto lost = w.value()->Ping();
  EXPECT_FALSE(lost.ok() && lost.value().status.ok());

  FailPoints::DisarmAll();
  auto healthy = ServerClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(healthy.ok());
  EXPECT_TRUE(healthy.value()->Ping().ok());
  EXPECT_GE(Counter(server, counters::kServerFailpointTrips), 3u);

  // The server degraded, it did not corrupt: a fan-out query on a fresh
  // connection returns the in-process answer byte for byte.
  AnswerOptions options;
  options.multiset = true;
  auto expected = system.AnswerGuarded(kFanOut, options);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto fresh = ServerClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ClientQueryOptions qopts;
  qopts.multiset = true;
  auto reply = fresh.value()->Query(kFanOut, qopts);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply.value().status.ok()) << reply.value().status.ToString();
  EXPECT_EQ(reply.value().csv, TableToCsvTyped(expected.value().table));
  server.Stop();
}

TEST_F(ServerTest, MalformedFramesAreRejectedWithoutCrashing) {
  IntegrationSystem system(&catalog_, "s2");
  ServerOptions sopts;
  sopts.max_frame_bytes = 4096;
  QueryServer server(&system, sopts);
  ASSERT_TRUE(server.Start().ok());

  // Garbage JSON in a well-formed frame: error reply, then the server drops
  // the connection (a peer that cannot form JSON cannot be trusted to frame).
  {
    auto c = ServerClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.value()->SendRawFrame("this is not json").ok());
    auto reply = c.value()->AwaitNext();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply.value().status.code(), StatusCode::kParseError);
    auto after = c.value()->Ping();
    EXPECT_FALSE(after.ok() && after.value().status.ok());
  }
  EXPECT_GE(Counter(server, counters::kServerBadFrames), 1u);

  // Oversized declared length: deterministic error + drop.
  {
    auto c = ServerClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(c.ok());
    uint32_t huge = 1u << 30;
    char header[4];
    memcpy(header, &huge, 4);
    ASSERT_TRUE(c.value()->SendRawBytes(std::string(header, 4)).ok());
    auto reply = c.value()->AwaitNext();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().status.code(), StatusCode::kResourceExhausted);
  }
  EXPECT_TRUE(WaitFor(
      [&] { return Counter(server, counters::kServerOversizedFrames) >= 1; },
      5000));

  // Torn frame: half a header, then gone. Counted, survived.
  {
    auto c = ServerClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.value()->SendRawBytes(std::string("\x08\x00", 2)).ok());
    c.value()->CloseAbruptly();
  }
  EXPECT_TRUE(WaitFor(
      [&] { return Counter(server, counters::kServerBadFrames) >= 2; }, 5000));

  // A well-behaved session still works after all of the above.
  auto healthy = ServerClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(healthy.ok());
  EXPECT_TRUE(healthy.value()->Ping().ok());
  server.Stop();
}

TEST_F(ServerTest, HandshakeIsRequiredBeforeAnyVerb) {
  IntegrationSystem system(&catalog_, "s2");
  QueryServer server(&system);
  ASSERT_TRUE(server.Start().ok());

  // Raw socket, no hello: the first query is refused and the connection
  // closed.
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  Request req;
  req.id = 7;
  req.verb = Verb::kQuery;
  req.sql = kFanOut;
  const std::string frame = EncodeFrame(EncodeRequest(req));
  ASSERT_EQ(write(fd, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));

  // Read the error frame back by hand.
  std::string buf;
  char chunk[4096];
  FrameDecoder decoder(1 << 20);
  std::string payload;
  bool got = false;
  for (int i = 0; i < 100 && !got; ++i) {
    ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    ASSERT_TRUE(decoder.Feed(chunk, static_cast<size_t>(n)).ok());
    got = decoder.Next(&payload);
  }
  ASSERT_TRUE(got);
  Result<JsonValue> doc = JsonParse(payload);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().GetString("type"), "error");
  EXPECT_EQ(doc.value().GetInt("id"), 7);
  EXPECT_EQ(ParseStatusCodeName(doc.value().GetString("code")),
            StatusCode::kInvalidArgument);
  // Then EOF: the connection is gone.
  ssize_t n = read(fd, chunk, sizeof(chunk));
  EXPECT_EQ(n, 0);
  close(fd);
  server.Stop();
}

TEST_F(ServerTest, StopDrainsInFlightWorkAndIsIdempotent) {
  ArmLatency("engine.grounding", 10);
  IntegrationSystem system(&catalog_, "s2");
  QueryServer server(&system);
  ASSERT_TRUE(server.Start().ok());
  auto client = ServerClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ClientQueryOptions qopts;
  qopts.multiset = true;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.value()->SendQuery(kFanOut, qopts).ok());
  }
  server.Stop();  // Mid-flight: must cancel/drain, never hang or crash.
  server.Stop();  // Idempotent.
  EXPECT_FALSE(server.running());

  // The engine is untouched: in-process answers still work.
  AnswerOptions options;
  options.multiset = true;
  EXPECT_TRUE(system.AnswerGuarded(kFanOut, options).ok());
}

TEST_F(ServerTest, ServerRunsOnSerialEngineWithFallbackPool) {
  IntegrationOptions iopts;
  iopts.exec.num_threads = 1;  // No shared engine pool at all.
  IntegrationSystem system(&catalog_, "s2", iopts);
  ServerOptions sopts;
  sopts.fallback_workers = 2;
  QueryServer server(&system, sopts);
  ASSERT_TRUE(server.Start().ok());
  auto client = ServerClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ClientQueryOptions qopts;
  qopts.multiset = true;
  auto reply = client.value()->Query(kFanOut, qopts);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().status.ok());

  AnswerOptions options;
  options.multiset = true;
  auto expected = system.AnswerGuarded(kFanOut, options);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(reply.value().csv, TableToCsvTyped(expected.value().table));
  server.Stop();
}

}  // namespace
}  // namespace dynview
