// Randomized-heterogeneity fuzz suite (ctest -L fuzz).
//
// The fuzzer itself lives in fuzzer.{h,cc} beside this file, a test-support
// library linked only here. These tests pin down the CI contract: a
// bounded, seeded run is deterministic and clean (no oracle mismatches)
// across compilation modes and thread counts {1, 8}; every DDL kind is
// exercised; durable scenarios crash mid-stream and replay to the pre-crash
// answers; and the fuzz.oracle failpoint proves the minimization +
// repro-dump plumbing fires when a mismatch really happens.
//
// DYNVIEW_FUZZ_ITERS / DYNVIEW_FUZZ_SEED scale the same binary into the
// nightly soak (scripts/run_experiments.sh).

#include "fuzzer.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/failpoint.h"

namespace dynview {
namespace {

namespace fs = std::filesystem;

fs::path FreshDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() / ("dynview_fuzz_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class FuzzTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoints::DisarmAll(); }
  void TearDown() override { FailPoints::DisarmAll(); }
};

// The CI workhorse: one seeded run covers >= 200 (catalog, DDL step, query)
// triples, applies all six DDL kinds, and the six-way differential oracle
// (direct t1/t8, the Sec. 6 optimizer, rewriting t1/t8, plan-cache hit path)
// stays byte-identical, as does the shape arm's rebound query against its
// cold twin.
TEST_F(FuzzTest, SeededRunIsCleanAndCoversAllDdlKinds) {
  FuzzConfig config;
  config.seed = 1;
  config.scenarios = 6;
  config.queries_per_step = 4;
  config.extra_steps = 2;
  // The nightly soak scales this exact test via DYNVIEW_FUZZ_ITERS /
  // DYNVIEW_FUZZ_SEED and collects minimized repros under
  // DYNVIEW_FUZZ_REPRO (scripts/run_experiments.sh).
  config = FuzzConfig::FromEnv(config);
  if (const char* repro = std::getenv("DYNVIEW_FUZZ_REPRO")) {
    config.repro_dir = repro;
  }
  FuzzReport report = HeterogeneityFuzzer(config).Run();

  EXPECT_TRUE(report.ok()) << report.first_failure;
  EXPECT_EQ(report.mismatches, 0);
  EXPECT_GE(report.triples, 200) << report.Summary();
  EXPECT_GT(report.checks, report.triples);  // Several strategies per triple.
  // The optimizer planned and ran some queries, and declined the
  // higher-order ones.
  EXPECT_GT(report.optimizer_checks, 0) << report.Summary();
  EXPECT_GT(report.optimizer_refusals, 0) << report.Summary();
  // Every triple compared a cold answer with its plan-cache hit on the
  // 1- and 8-thread systems (the warm-vs-cold arm).
  EXPECT_GE(report.warm_cold_checks, report.triples) << report.Summary();
  // The shape arm compared shape-tier hits with a cold twin, and rebound
  // literals flipped some literal guards (both guard outcomes ran).
  EXPECT_GT(report.shape_checks, 0) << report.Summary();
  EXPECT_GT(report.shape_fallbacks, 0) << report.Summary();
  // The commit arm compared warm answers across rows-only commits with
  // cold ones, and some of them were served by a plan cached before the
  // commit.
  EXPECT_GT(report.commit_checks, 0) << report.Summary();
  EXPECT_GT(report.commit_hits, 0) << report.Summary();
  // The candidate arm answered usable sources alone, each by its own
  // rewriting.
  EXPECT_GT(report.candidate_checks, 0) << report.Summary();
  EXPECT_GT(report.ddl_applied, 0);
  for (const char* kind :
       {"add-attribute", "drop-attribute", "rename-attribute",
        "rename-relation", "promote-label-to-data", "demote-data-to-label"}) {
    EXPECT_TRUE(report.kinds_applied.count(kind)) << "kind not exercised: "
                                                  << kind;
  }
  // Propagation actually ran: fenced sources were rebuilt along the way.
  EXPECT_GT(report.remats, 0);
}

// Same config => byte-identical report, including every counter. This is
// what makes a fuzz failure in CI reproducible by anyone from the seed.
TEST_F(FuzzTest, RunTwiceIsDeterministic) {
  FuzzConfig config;
  config.seed = 7;
  config.scenarios = 3;
  config.queries_per_step = 3;
  config.extra_steps = 1;
  FuzzReport a = HeterogeneityFuzzer(config).Run();
  FuzzReport b = HeterogeneityFuzzer(config).Run();
  EXPECT_TRUE(a.ok()) << a.first_failure;
  EXPECT_EQ(a.Summary(), b.Summary());
}

// A different seed must actually change the generated workload (otherwise
// the soak re-runs one fixed scenario all night).
TEST_F(FuzzTest, SeedChangesWorkload) {
  FuzzConfig config;
  config.scenarios = 2;
  config.queries_per_step = 3;
  config.extra_steps = 1;
  config.seed = 11;
  FuzzReport a = HeterogeneityFuzzer(config).Run();
  config.seed = 12;
  FuzzReport b = HeterogeneityFuzzer(config).Run();
  EXPECT_TRUE(a.ok()) << a.first_failure;
  EXPECT_TRUE(b.ok()) << b.first_failure;
  EXPECT_NE(a.Summary(), b.Summary());
}

// Durable scenarios crash mid-DDL-stream (checkpoint fails, WAL survives),
// recover into a fresh catalog, and must replay to the exact pre-crash head
// and answers before the stream continues.
TEST_F(FuzzTest, DurableScenariosCrashAndReplayMidStream) {
  fs::path dir = FreshDir("durable");
  FuzzConfig config;
  config.seed = 3;
  config.scenarios = 2;
  config.queries_per_step = 3;
  config.extra_steps = 1;
  config.durable = true;
  config.durable_dir = dir.string();
  FuzzReport report = HeterogeneityFuzzer(config).Run();
  EXPECT_TRUE(report.ok()) << report.first_failure;
  EXPECT_EQ(report.crashes_replayed, config.scenarios) << report.Summary();
  fs::remove_all(dir);
}

// DYNVIEW_FUZZ_ITERS / DYNVIEW_FUZZ_SEED drive the nightly soak without a
// rebuild: FromEnv layers them over the compiled-in defaults.
TEST_F(FuzzTest, FromEnvAppliesSoakKnobs) {
  ::setenv("DYNVIEW_FUZZ_ITERS", "17", 1);
  ::setenv("DYNVIEW_FUZZ_SEED", "99", 1);
  FuzzConfig config = FuzzConfig::FromEnv();
  EXPECT_EQ(config.scenarios, 17);
  EXPECT_EQ(config.seed, 99u);
  ::unsetenv("DYNVIEW_FUZZ_ITERS");
  ::unsetenv("DYNVIEW_FUZZ_SEED");
  FuzzConfig plain = FuzzConfig::FromEnv();
  EXPECT_EQ(plain.scenarios, FuzzConfig().scenarios);
  EXPECT_EQ(plain.seed, FuzzConfig().seed);
}

// fuzz.oracle injects a synthetic mismatch, proving the failure path end to
// end: the run reports it, delta-minimizes the DDL prefix against a replay,
// and dumps a self-contained repro file.
TEST_F(FuzzTest, OracleFailpointYieldsMinimizedRepro) {
  fs::path dir = FreshDir("repro");
  FuzzConfig config;
  config.seed = 5;
  config.scenarios = 1;
  config.queries_per_step = 2;
  config.extra_steps = 1;
  config.repro_dir = dir.string();
  FailSpec spec;
  spec.mode = FailMode::kErrorAlways;
  spec.match = "select";  // Every generated query trips the oracle.
  FailPoints::Arm("fuzz.oracle", spec);
  FuzzReport report = HeterogeneityFuzzer(config).Run();
  FailPoints::DisarmAll();

  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.mismatches, 0);
  EXPECT_NE(report.first_failure.find("fuzz.oracle"), std::string::npos)
      << report.first_failure;
  ASSERT_FALSE(report.repro_path.empty());
  std::string dump = Slurp(report.repro_path);
  EXPECT_NE(dump.find("seed"), std::string::npos);
  EXPECT_NE(dump.find("query"), std::string::npos);
  EXPECT_NE(dump.find("reproduced_in_replay: yes"), std::string::npos) << dump;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dynview
