// The benchmark's workloads. Each builds its inputs from Options::seed,
// measures for Options::seconds and checks every answer it times.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "bench_util.h"

namespace perfbench {

RunResult RunInprocFanout(const Options& options);
RunResult RunWireAdhoc(const Options& options);
RunResult RunDurableIngest(const Options& options);

/// Negative tests of the benchmark's own checks; returns the number of
/// checks that failed to flag a planted fault.
int RunSelfTest(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
