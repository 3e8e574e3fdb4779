#include "src/predictor/optimizer.h"

#include <algorithm>
#include <memory>

#include "src/obs/metrics.h"
#include "src/obs/parallel_metrics.h"
#include "src/obs/trace.h"
#include "src/predictor/prediction_cache.h"
#include "src/topology/enumerate.h"
#include "src/util/check.h"
#include "src/util/parallel.h"

namespace pandia {
namespace {

// The candidate set of one search, as a view: pointers into the topology's
// CanonicalPlacements() memo on the exhaustive path, or into `sampled`.
// Move-only: a moved vector keeps its buffer, so the view stays valid; a
// copy would point into the original.
struct Candidates {
  Candidates() = default;
  Candidates(Candidates&&) = default;
  Candidates& operator=(Candidates&&) = default;

  std::vector<Placement> sampled;
  std::vector<const Placement*> view;
};

StatusOr<Candidates> CandidatePlacements(const MachineTopology& topo,
                                         const OptimizerOptions& options) {
  const obs::TraceSpan span("optimizer.candidates");
  // Reproducibility metrics: with these plus the constraint, a sweep's exact
  // candidate set can be reconstructed from logs alone.
  static obs::Gauge& space_size =
      obs::MetricsRegistry::Global().gauge("optimizer.space_size");
  static obs::Gauge& sampled =
      obs::MetricsRegistry::Global().gauge("optimizer.sampled");
  static obs::Gauge& sample_seed =
      obs::MetricsRegistry::Global().gauge("optimizer.sample_seed");
  static obs::Gauge& sample_count =
      obs::MetricsRegistry::Global().gauge("optimizer.sample_count");
  static obs::Counter& exhaustive_runs =
      obs::MetricsRegistry::Global().counter("optimizer.exhaustive_runs");
  static obs::Counter& sampled_runs =
      obs::MetricsRegistry::Global().counter("optimizer.sampled_runs");

  const uint64_t space = CountCanonicalPlacements(topo);
  space_size.Set(static_cast<double>(space));
  Candidates candidates;
  if (space <= options.exhaustive_limit) {
    sampled.Set(0.0);
    exhaustive_runs.Increment();
    const std::vector<Placement>& all = CanonicalPlacements(topo);
    if (!options.constraint) {
      candidates.view.reserve(all.size());
    }
    for (const Placement& placement : all) {
      if (!options.constraint || options.constraint(placement)) {
        candidates.view.push_back(&placement);
      }
    }
  } else {
    sampled.Set(1.0);
    sample_seed.Set(static_cast<double>(options.sample_seed));
    sample_count.Set(static_cast<double>(options.sample_count));
    sampled_runs.Increment();
    candidates.sampled = SampleCanonicalPlacements(
        topo, options.sample_count, options.sample_seed, options.constraint);
    candidates.view.reserve(candidates.sampled.size());
    for (const Placement& placement : candidates.sampled) {
      candidates.view.push_back(&placement);
    }
  }
  if (candidates.view.empty()) {
    return Status::InvalidArgument("no placements satisfy the constraint");
  }
  return candidates;
}

obs::Counter& PlacementsEvaluatedCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("optimizer.placements_evaluated");
  return counter;
}

// Predicts every candidate, fanning out across options.common.jobs workers. Each
// prediction lands in the slot matching its candidate index, so the result
// vector is identical to a serial loop regardless of job count. Cache hits
// are shared with the cache, not copied.
std::vector<std::shared_ptr<const Prediction>> PredictCandidates(
    const Predictor& predictor, const std::vector<const Placement*>& candidates,
    const OptimizerOptions& options) {
  obs::InstallParallelMetrics();
  PlacementsEvaluatedCounter().Increment(candidates.size());
  std::vector<std::shared_ptr<const Prediction>> predictions(candidates.size());
  PredictionCache* cache =
      options.common.use_cache ? &PredictionCache::Global() : nullptr;
  util::ParallelFor(candidates.size(), options.common.jobs, [&](size_t i) {
    predictions[i] = PredictCached(predictor, *candidates[i], cache);
  });
  // Divergent solves keep their slot (the ranking stays deterministic and
  // complete) but are surfaced: counted here, flagged in reports, and never
  // memoized (see PredictCached).
  uint64_t non_converged = 0;
  for (const std::shared_ptr<const Prediction>& prediction : predictions) {
    if (!prediction->converged) {
      ++non_converged;
    }
  }
  if (non_converged > 0) {
    static obs::Counter& counter =
        obs::MetricsRegistry::Global().counter("optimizer.non_converged_ranked");
    counter.Increment(non_converged);
  }
  return predictions;
}

}  // namespace

std::function<bool(const Placement&)> NoSmtConstraint() {
  return [](const Placement& placement) {
    const std::vector<uint8_t>& per_core = placement.PerCore();
    return std::none_of(per_core.begin(), per_core.end(),
                        [](uint8_t threads) { return threads >= 2; });
  };
}

std::function<bool(const Placement&)> MaxSocketsConstraint(int max_sockets) {
  PANDIA_CHECK(max_sockets > 0);
  return [max_sockets](const Placement& placement) {
    return placement.NumActiveSockets() <= max_sockets;
  };
}

std::function<bool(const Placement&)> MaxThreadsConstraint(int max_threads) {
  PANDIA_CHECK(max_threads > 0);
  return [max_threads](const Placement& placement) {
    return placement.TotalThreads() <= max_threads;
  };
}

RankedPlacement FindBestPlacement(const Predictor& predictor,
                                  const OptimizerOptions& options) {
  std::vector<RankedPlacement> ranked = RankPlacements(predictor, 1, options);
  PANDIA_CHECK(!ranked.empty());
  return std::move(ranked.front());
}

std::vector<RankedPlacement> RankPlacements(const Predictor& predictor, size_t top_k,
                                            const OptimizerOptions& options) {
  StatusOr<std::vector<RankedPlacement>> ranked =
      TryRankPlacements(predictor, top_k, options);
  PANDIA_CHECK_MSG(ranked.ok(), ranked.status().message().c_str());
  return std::move(*ranked);
}

StatusOr<RankedPlacement> TryFindBestPlacement(const Predictor& predictor,
                                               const OptimizerOptions& options) {
  StatusOr<std::vector<RankedPlacement>> ranked =
      TryRankPlacements(predictor, 1, options);
  PANDIA_RETURN_IF_ERROR(ranked.status());
  PANDIA_CHECK(!ranked->empty());
  return std::move(ranked->front());
}

StatusOr<std::vector<RankedPlacement>> TryRankPlacements(
    const Predictor& predictor, size_t top_k, const OptimizerOptions& options) {
  if (top_k == 0) {
    return Status::InvalidArgument("top_k must be positive");
  }
  const obs::TraceSpan span("optimizer.rank");
  StatusOr<Candidates> candidates =
      CandidatePlacements(predictor.machine().topo, options);
  PANDIA_RETURN_IF_ERROR(candidates.status());
  const std::vector<std::shared_ptr<const Prediction>> predictions =
      PredictCandidates(predictor, candidates->view, options);
  std::vector<size_t> order(predictions.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  // Stable sort over candidates in their deterministic enumeration/sample
  // order: speedup ties resolve to the earlier candidate, so the ranking is
  // reproducible across runs and identical at every job count.
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return predictions[a]->speedup > predictions[b]->speedup;
  });
  order.resize(std::min(order.size(), top_k));
  std::vector<RankedPlacement> ranked;
  ranked.reserve(order.size());
  for (const size_t i : order) {
    ranked.push_back(RankedPlacement{*candidates->view[i], *predictions[i]});
  }
  return ranked;
}

StatusOr<RankedPlacement> TryFindCheapestPlacement(const Predictor& predictor,
                                                   double target_fraction,
                                                   const OptimizerOptions& options) {
  if (!(target_fraction > 0.0 && target_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "target_fraction must be in (0, 1]");
  }
  const obs::TraceSpan span("optimizer.cheapest");
  StatusOr<Candidates> candidates =
      CandidatePlacements(predictor.machine().topo, options);
  PANDIA_RETURN_IF_ERROR(candidates.status());
  const std::vector<const Placement*>& view = candidates->view;
  const std::vector<std::shared_ptr<const Prediction>> predictions =
      PredictCandidates(predictor, view, options);
  double best_speedup = 0.0;
  for (const std::shared_ptr<const Prediction>& prediction : predictions) {
    best_speedup = std::max(best_speedup, prediction->speedup);
  }
  const double target = best_speedup * target_fraction;
  // Index-based cost order; the winner alone is copied out.
  auto cost_less = [&](size_t a, size_t b) {
    const Placement& pa = *view[a];
    const Placement& pb = *view[b];
    if (pa.TotalThreads() != pb.TotalThreads()) {
      return pa.TotalThreads() < pb.TotalThreads();
    }
    if (pa.NumActiveSockets() != pb.NumActiveSockets()) {
      return pa.NumActiveSockets() < pb.NumActiveSockets();
    }
    return predictions[a]->speedup > predictions[b]->speedup;
  };
  std::optional<size_t> cheapest;
  for (size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i]->speedup + 1e-12 < target) {
      continue;
    }
    if (!cheapest.has_value() || cost_less(i, *cheapest)) {
      cheapest = i;
    }
  }
  // The best candidate always meets its own target, so a non-empty
  // candidate set guarantees a result.
  PANDIA_CHECK(cheapest.has_value());
  return RankedPlacement{*view[*cheapest], *predictions[*cheapest]};
}

std::optional<RankedPlacement> FindCheapestPlacement(const Predictor& predictor,
                                                     double target_fraction,
                                                     const OptimizerOptions& options) {
  StatusOr<RankedPlacement> cheapest =
      TryFindCheapestPlacement(predictor, target_fraction, options);
  PANDIA_CHECK_MSG(cheapest.ok(), cheapest.status().message().c_str());
  return *std::move(cheapest);
}

}  // namespace pandia
