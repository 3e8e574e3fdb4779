// The benchmark's workloads. Each runs in one process on one calling
// thread, through the library's public entry points only.
#ifndef PANDIA_PERFBENCH_WORKLOADS_H_
#define PANDIA_PERFBENCH_WORKLOADS_H_

#include "perfbench/common.h"

namespace perfbench {

// `advise`: placement advice on x5-2 through Predictor,
// TryFindBestPlacement and TryFindCheapestPlacement.
Result RunAdvise(const Options& options);

// `serve_churn` and `serve_packed`: request lines through
// serve::FleetService::HandleLine.
Result RunServe(const Options& options);

// Puts a traced run's metrics in report order and adds every per-layer
// metric the workload does not measure with value 0, so every traced run
// reports the same metric set.
void AddMissingLayerMetrics(Result& result);

}  // namespace perfbench

#endif  // PANDIA_PERFBENCH_WORKLOADS_H_
