// perfbench: the end-to-end benchmark of DynView.
//
//   perfbench --workload <inproc_fanout|wire_adhoc|durable_ingest>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--trace-file <path>]
//   perfbench --selftest
//
// Prints notes on stderr and, as the last line of stdout, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--trace-file <path>] | --selftest\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (!(opt.seconds > 0)) return Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--trace-file") {
      opt.trace_file = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (selftest) {
    int failures = perfbench::RunSelfTest(opt);
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return failures == 0 ? 0 : 1;
  }

  perfbench::RunResult result;
  if (opt.workload == "inproc_fanout") {
    result = perfbench::RunInprocFanout(opt);
  } else if (opt.workload == "wire_adhoc") {
    result = perfbench::RunWireAdhoc(opt);
  } else if (opt.workload == "durable_ingest") {
    result = perfbench::RunDurableIngest(opt);
  } else {
    return Usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "%s: %s\n", opt.workload.c_str(), note.c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  return 0;
}
