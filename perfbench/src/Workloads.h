//===- Workloads.h - the four workloads of ltp-perfbench --------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//

#ifndef LTP_PERFBENCH_WORKLOADS_H
#define LTP_PERFBENCH_WORKLOADS_H

#include "Bench.h"

namespace perfbench {

/// Generated-kernel speed at the paper's sizes (runtime, jit, codegen).
Result runKernels(const Options &O);

/// Schedule-only requests over the socket (benchmarks, core, analysis).
Result runSchedule(const Options &O);

/// Unique compile requests against an empty kernel store (serve, jit).
Result runCold(const Options &O);

/// Dedup-cached compile requests (serve).
Result runWarm(const Options &O);

} // namespace perfbench

#endif // LTP_PERFBENCH_WORKLOADS_H
