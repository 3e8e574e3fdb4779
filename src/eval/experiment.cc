#include "src/eval/experiment.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "src/obs/metrics.h"
#include "src/obs/parallel_metrics.h"
#include "src/obs/trace.h"
#include "src/predictor/prediction_cache.h"
#include "src/topology/enumerate.h"
#include "src/util/check.h"
#include "src/util/parallel.h"
#include "src/util/stats.h"

namespace pandia {
namespace eval {
namespace {

double BestGapPct(const SweepResult& result, size_t index) {
  const double best_perf = 1.0 / result.placements[result.best_measured_index].measured_time;
  const double perf = 1.0 / result.placements[index].measured_time;
  return (best_perf - perf) / best_perf * 100.0;
}

}  // namespace

std::vector<Placement> SweepPlacements(const MachineTopology& topo,
                                       const SweepOptions& options) {
  std::vector<Placement> placements;
  if (CountCanonicalPlacements(topo) <= options.exhaustive_limit) {
    const std::vector<Placement>& all = CanonicalPlacements(topo);
    if (options.filter) {
      std::copy_if(all.begin(), all.end(), std::back_inserter(placements),
                   options.filter);
    } else {
      placements = all;
    }
  } else {
    placements = SampleCanonicalPlacements(topo, options.sample_count, options.seed,
                                           options.filter);
    // The full-machine placement anchors the "peak at maximum threads"
    // statistic (§6.1); keep it in every sample that admits it.
    const Placement full = Placement::TwoPerCore(topo, topo.NumHwThreads());
    if ((!options.filter || options.filter(full)) &&
        std::find(placements.begin(), placements.end(), full) == placements.end()) {
      placements.push_back(full);
      std::sort(placements.begin(), placements.end(), Placement::PaperOrderLess);
    }
  }
  PANDIA_CHECK_MSG(!placements.empty(), "no placements matched the sweep options");
  return placements;
}

SweepResult RunSweep(const sim::Machine& machine, const Predictor& predictor,
                     const sim::WorkloadSpec& workload, const SweepOptions& options) {
  const obs::TraceSpan span("eval.sweep");
  SweepResult result;
  result.workload = workload.name;
  result.machine = machine.topology().name;
  const std::vector<Placement> placements =
      SweepPlacements(machine.topology(), options);
  static obs::Counter& sweep_placements =
      obs::MetricsRegistry::Global().counter("eval.sweep_placements");
  obs::InstallParallelMetrics();
  PredictionCache* cache =
      options.common.use_cache ? &PredictionCache::Global() : nullptr;
  // Each placement's measure+predict pair runs independently; slot i of the
  // result vector belongs to placement i, so the sweep series is identical
  // to a serial run at any job count.
  std::vector<PlacementResult> results;
  results.reserve(placements.size());
  for (const Placement& placement : placements) {
    results.push_back(PlacementResult{placement});
  }
  util::ParallelFor(placements.size(), options.common.jobs, [&](size_t i) {
    PlacementResult& pr = results[i];
    {
      const obs::TraceSpan measure_span("sweep.measure");
      pr.measured_time =
          machine.RunOne(workload, pr.placement).jobs[0].completion_time;
    }
    {
      const obs::TraceSpan predict_span("sweep.predict");
      pr.predicted_time = PredictCached(predictor, pr.placement, cache)->time;
    }
    sweep_placements.Increment();
  });
  result.placements = std::move(results);
  ComputeMetrics(result);
  return result;
}

void ComputeMetrics(SweepResult& result) {
  PANDIA_CHECK(!result.placements.empty());
  // Normalize each series to its own best performance (Figure 1's y-axis).
  double best_measured_perf = 0.0;
  double best_predicted_perf = 0.0;
  for (size_t i = 0; i < result.placements.size(); ++i) {
    const PlacementResult& pr = result.placements[i];
    PANDIA_CHECK(pr.measured_time > 0.0 && pr.predicted_time > 0.0);
    if (1.0 / pr.measured_time > best_measured_perf) {
      best_measured_perf = 1.0 / pr.measured_time;
      result.best_measured_index = i;
    }
    if (1.0 / pr.predicted_time > best_predicted_perf) {
      best_predicted_perf = 1.0 / pr.predicted_time;
      result.best_predicted_index = i;
    }
  }
  std::vector<double> errors;
  std::vector<double> diffs;
  errors.reserve(result.placements.size());
  diffs.reserve(result.placements.size());
  for (PlacementResult& pr : result.placements) {
    pr.measured_norm = (1.0 / pr.measured_time) / best_measured_perf;
    pr.predicted_norm = (1.0 / pr.predicted_time) / best_predicted_perf;
    errors.push_back(std::fabs(pr.predicted_norm - pr.measured_norm) /
                     pr.measured_norm * 100.0);
    diffs.push_back(pr.measured_norm - pr.predicted_norm);
  }
  result.error_mean = Mean(errors);
  result.error_median = Median(errors);

  // Offset error (§6.1): shift the predicted series by the mean difference
  // before measuring, which scores trend accuracy rather than calibration.
  const double offset = Mean(diffs);
  std::vector<double> offset_errors;
  offset_errors.reserve(result.placements.size());
  for (const PlacementResult& pr : result.placements) {
    offset_errors.push_back(std::fabs(pr.predicted_norm + offset - pr.measured_norm) /
                            pr.measured_norm * 100.0);
  }
  result.offset_error_mean = Mean(offset_errors);
  result.offset_error_median = Median(offset_errors);

  result.best_placement_gap_pct = BestGapPct(result, result.best_predicted_index);
  const Placement& best = result.placements[result.best_measured_index].placement;
  result.best_uses_all_threads =
      best.TotalThreads() == best.topology().NumHwThreads();
  for (size_t i = 0; i < result.placements.size(); ++i) {
    const Placement& placement = result.placements[i].placement;
    if (placement.TotalThreads() == placement.topology().NumHwThreads() &&
        BestGapPct(result, i) <= 1.0) {
      result.full_machine_within_one_pct = true;
      break;
    }
  }
}

SweepBaselineResult RunSweepBaseline(const sim::Machine& machine,
                                     const sim::WorkloadSpec& workload,
                                     const WorkloadDescription& description,
                                     const SweepResult& full_sweep,
                                     double tolerance_pct) {
  SweepBaselineResult result;
  result.workload = workload.name;

  // Cost of the compact and spread sweeps: every run is timed in full.
  const MachineTopology& topo = machine.topology();
  double sweep_cost = 0.0;
  double sweep_best_perf = 0.0;
  for (const std::vector<Placement>& series :
       {CompactSweep(topo), SpreadSweep(topo)}) {
    for (const Placement& placement : series) {
      const double time = machine.RunOne(workload, placement).jobs[0].completion_time;
      sweep_cost += time;
      sweep_best_perf = std::max(sweep_best_perf, 1.0 / time);
    }
  }

  // Cost of Pandia's six profiling runs: t1 * (1 + r2 + ... + r6).
  const double pandia_cost =
      description.t1 *
      (1.0 + description.r2 + description.r3 + description.r4 + description.r5 +
       description.r6);
  result.cost_ratio = sweep_cost / pandia_cost;

  const double best_perf =
      1.0 / full_sweep.placements[full_sweep.best_measured_index].measured_time;
  result.sweep_best_gap_pct = (best_perf - sweep_best_perf) / best_perf * 100.0;
  result.found_best = result.sweep_best_gap_pct <= tolerance_pct + 1e-9;
  result.pandia_best_gap_pct = full_sweep.best_placement_gap_pct;
  return result;
}

bool AtMostTwoSockets(const Placement& placement) {
  return placement.NumActiveSockets() <= 2;
}

bool AtMostTwentyCores(const Placement& placement) {
  int cores = 0;
  for (int s = 0; s < placement.topology().num_sockets; ++s) {
    cores += placement.CoresUsedOnSocket(s);
  }
  return cores <= 20;
}

}  // namespace eval
}  // namespace pandia
