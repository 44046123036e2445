//===- Main.cpp - ltp-perfbench: the repository's end-to-end benchmark ----===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// usage: ltp-perfbench --workload kernels|schedule|cold|warm --seed N
//                      --seconds S --trace 0|1 --run-dir DIR
//                      [--trace-file FILE]
//
// Runs one workload with inputs generated from the seed, checks every
// output, and prints as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics and
// tracing overhead of a traced run (--trace 1). perfbench/run.py builds
// this binary and gives every run a fresh, private --run-dir.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Workloads.h"

#include "support/ArgParse.h"
#include "support/Format.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace perfbench;

namespace {

void printResult(Result &R, const std::vector<Metric> &Metrics) {
  std::string Body;
  for (const Metric &M : Metrics) {
    if (!std::isfinite(M.Value))
      R.fail("metric " + M.Name + " is not a finite number");
    Body += ltp::strFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                           Body.empty() ? "" : ", ", M.Name.c_str(),
                           std::isfinite(M.Value) ? M.Value : 0.0,
                           M.Unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              R.Failed == 0 ? "true" : "false",
              static_cast<long long>(R.Attempted),
              static_cast<long long>(R.Failed), Body.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  ltp::ArgParse Args(Argc, Argv);
  Options O;
  O.Workload = Args.getString("workload", "");
  O.Seed = static_cast<uint64_t>(Args.getInt("seed", 1));
  O.Seconds = static_cast<double>(Args.getInt("seconds", 10));
  O.Trace = Args.getInt("trace", 0) != 0;
  O.RunDir = Args.getString("run-dir", "");
  O.TracePath = Args.getString("trace-file", "");
  if (O.RunDir.empty() || O.Seconds <= 0) {
    std::fprintf(stderr, "error: --run-dir and a positive --seconds are "
                         "required\n");
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("seed: %llu  workload: %s  seconds: %g  trace: %d\n",
              static_cast<unsigned long long>(O.Seed), O.Workload.c_str(),
              O.Seconds, O.Trace ? 1 : 0);
  spans().setEnabled(O.Trace);

  Result R;
  if (O.Workload == "kernels")
    R = runKernels(O);
  else if (O.Workload == "schedule")
    R = runSchedule(O);
  else if (O.Workload == "cold")
    R = runCold(O);
  else if (O.Workload == "warm")
    R = runWarm(O);
  else {
    std::fprintf(stderr, "error: unknown workload '%s' (kernels, schedule, "
                         "cold, warm)\n",
                 O.Workload.c_str());
    return 2;
  }
  if (R.Attempted == 0) {
    std::fprintf(stderr, "error: no operation was attempted\n");
    return 1;
  }
  R.addE2E("success_rate",
           std::max<double>(0.0, static_cast<double>(R.Attempted - R.Failed) /
                                     static_cast<double>(R.Attempted)),
           "ratio");
  if (O.Trace && !O.TracePath.empty() && !spans().write(O.TracePath))
    std::fprintf(stderr, "warning: cannot write %s\n", O.TracePath.c_str());
  printResult(R, O.Trace ? R.PerLayer : R.EndToEnd);
  return 0;
}
