// The `advise` workload: a seeded stream of placement-advice requests on
// x5-2, whose 18,144 canonical placements the optimizer enumerates
// exhaustively.
//
// Each request names a description from the 22-workload suite, an
// objective (best, or cheapest at 0.9 of best) and a constraint (none,
// no SMT, one socket, at most 8 threads), and is followed by one point
// query: the predicted speedup of one given placement, as
// `pandia_predict DESC PLACEMENT` answers it. The stream is stratified so
// every seed runs the same mix: each block of 22 requests names every
// description once, in seeded order, and description w gets request class
// (w + block) mod 8. A description's two unconstrained requests therefore
// come in consecutive blocks (the second hits what the first inserted), and
// 22 x 18,144 entries overflow the cache's 2^18 capacity, so misses, hits
// and evictions all occur in every run.
#include <algorithm>
#include <array>
#include <iterator>
#include <optional>

#include "perfbench/workloads.h"
#include "src/eval/pipeline.h"
#include "src/predictor/optimizer.h"
#include "src/predictor/prediction_cache.h"
#include "src/serialize/wire.h"
#include "src/topology/enumerate.h"
#include "src/util/strings.h"
#include "src/workloads/workloads.h"

namespace perfbench {
namespace {

using namespace pandia;

constexpr int kClasses = 8;  // 2 objectives x 4 constraints
constexpr double kCheapestFraction = 0.9;
constexpr const char* kObjectiveNames[] = {"best", "cheapest"};
constexpr const char* kConstraintNames[] = {"none", "no-smt", "one-socket",
                                            "max-8-threads"};
// Expected digest of the first kGoldenOps requests of seed kGoldenSeed.
constexpr uint64_t kGoldenSeed = 20170423;
constexpr int64_t kGoldenOps = 8;
// Stream length of a time-bounded run; runs never get near it (~10 advices
// per second).
constexpr size_t kStreamAdvices = 100000;
// Advices in a traced run: 8 blocks, so every description meets every
// request class once, and the cache fills and starts evicting.
constexpr size_t kTracedAdvices = 8 * 22;
constexpr const char* kGoldenDigest = "07e3d22576cf870e";

struct AdviceRequest {
  int workload = 0;
  int objective = 0;   // index into kObjectiveNames
  int constraint = 0;  // index into kConstraintNames
  uint64_t point = 0;  // selects the point-query placement
};

std::vector<AdviceRequest> AdviceStream(uint64_t seed, size_t count, int workloads) {
  Rng rng(seed);
  std::vector<AdviceRequest> stream;
  stream.reserve(count + static_cast<size_t>(workloads));
  for (int block = 0; stream.size() < count; ++block) {
    for (const int w : Permutation(rng, workloads)) {
      const int request_class = (w + block) % kClasses;
      stream.push_back(AdviceRequest{w, request_class % 2, request_class / 2,
                                     rng.NextU64()});
    }
  }
  stream.resize(count);
  return stream;
}

// Everything one run set-up builds: the machine description, the suite's
// descriptions and predictors, and the optimizer options per constraint.
struct Advisor {
  eval::Pipeline pipeline{"x5-2"};
  std::vector<std::string> names;
  std::vector<Predictor> predictors;
  std::vector<Placement> placements;  // point-query candidates
  std::vector<OptimizerOptions> options;

  Advisor() {
    PredictionOptions prediction;
    prediction.common.jobs = 1;
    const std::vector<sim::WorkloadSpec> suite = workloads::EvaluationSuite();
    const std::vector<WorkloadDescription> descriptions =
        pipeline.ProfileAll(suite, /*jobs=*/1);
    for (size_t i = 0; i < suite.size(); ++i) {
      names.push_back(suite[i].name);
      predictors.push_back(pipeline.MakePredictor(descriptions[i], prediction));
    }
    placements = EnumerateCanonicalPlacements(pipeline.description().topo);
    for (int c = 0; c < 4; ++c) {
      OptimizerOptions option;
      option.common.jobs = 1;
      option.common.use_cache = true;
      if (c == 1) {
        option.constraint = NoSmtConstraint();
      } else if (c == 2) {
        option.constraint = MaxSocketsConstraint(1);
      } else if (c == 3) {
        option.constraint = MaxThreadsConstraint(8);
      }
      options.push_back(std::move(option));
    }
  }

  StatusOr<RankedPlacement> Advise(const AdviceRequest& request) const {
    const Predictor& predictor = predictors[static_cast<size_t>(request.workload)];
    const OptimizerOptions& option = options[static_cast<size_t>(request.constraint)];
    return request.objective == 0
               ? TryFindBestPlacement(predictor, option)
               : TryFindCheapestPlacement(predictor, kCheapestFraction, option);
  }

  const Placement& PointPlacement(const AdviceRequest& request) const {
    return placements[request.point % placements.size()];
  }

  std::string AdviceText(const AdviceRequest& request,
                         const StatusOr<RankedPlacement>& advice) const {
    const std::string head = StrFormat(
        "%s %s %s ", names[static_cast<size_t>(request.workload)].c_str(),
        kObjectiveNames[request.objective], kConstraintNames[request.constraint]);
    if (!advice.ok()) {
      return head + "err " + advice.status().message() + "\n";
    }
    return head + StrFormat("%s %.17g\n",
                            wire::PlacementToCsv(advice->placement).c_str(),
                            advice->prediction.speedup);
  }

  std::string PointText(const AdviceRequest& request,
                        const StatusOr<Prediction>& prediction) const {
    const std::string head =
        StrFormat("%s predict %s ", names[static_cast<size_t>(request.workload)].c_str(),
                  wire::PlacementToCsv(PointPlacement(request)).c_str());
    if (!prediction.ok()) {
      return head + "err " + prediction.status().message() + "\n";
    }
    return head + StrFormat("%.17g\n", prediction->speedup);
  }
};

// The seed-independent warm-up request of description `w`: one small
// constrained advice.
AdviceRequest WarmUpRequest(int w) { return AdviceRequest{w, 0, 3, 0}; }

// One set-up: descriptions, predictors, an empty prediction cache, and the
// warm-up advices.
std::unique_ptr<Advisor> SetUp() {
  PredictionCache::Global().Clear();
  auto advisor = std::make_unique<Advisor>();
  for (int w = 0; w < static_cast<int>(advisor->predictors.size()); ++w) {
    (void)advisor->Advise(WarmUpRequest(w));
  }
  return advisor;
}

// Runs `count` set-ups (the last one is kept) and appends their times.
std::unique_ptr<Advisor> TimedSetUps(int count, std::vector<double>& seconds) {
  std::unique_ptr<Advisor> advisor;
  for (int i = 0; i < count; ++i) {
    advisor.reset();
    const int64_t start = NowNs();
    advisor = SetUp();
    seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }
  return advisor;
}

struct Served {
  std::vector<std::string> outputs;  // advice then point-query text, per request
  std::vector<double> advice_ms;
  // Unconstrained cheapest-placement advices. Each follows the unconstrained
  // best-placement advice for the same description one block earlier, so it
  // is answered from the cache.
  std::vector<double> repeat_ms;
  std::vector<double> point_ms;
  double elapsed_s = 0.0;
  uint64_t failed = 0;
};

// The measured loop: advices (and their point queries) until the time or
// request budget runs out.
Served Serve(const Advisor& advisor, const std::vector<AdviceRequest>& stream,
             double seconds, Digest& digest) {
  Served served;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  for (const AdviceRequest& request : stream) {
    const int64_t t0 = NowNs();
    const StatusOr<RankedPlacement> advice = advisor.Advise(request);
    const int64_t t1 = NowNs();
    const StatusOr<Prediction> point =
        advisor.predictors[static_cast<size_t>(request.workload)].TryPredict(
            advisor.PointPlacement(request));
    const int64_t t2 = NowNs();
    served.advice_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    if (request.constraint == 0 && request.objective == 1) {
      served.repeat_ms.push_back(served.advice_ms.back());
    }
    served.point_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
    served.failed += (advice.ok() ? 0 : 1) + (point.ok() ? 0 : 1);
    served.outputs.push_back(advisor.AdviceText(request, advice));
    served.outputs.push_back(advisor.PointText(request, point));
    digest.Update(served.outputs[served.outputs.size() - 2]);
    digest.Update(served.outputs.back());
    if (seconds > 0.0 && t2 >= deadline) {
      break;
    }
  }
  served.elapsed_s = static_cast<double>(NowNs() - start) * 1e-9;
  return served;
}

// Replays the optimizer's steps through their public layers, timing each:
// enumeration, the constraint filter, a cache lookup per candidate, an
// uncached Predict and an insert per miss, then ranking. `cache` sees
// exactly the operations PredictCached performs on the global cache, so
// hits, misses and evictions match the optimizer's.
struct DecomposedAdvice {
  StatusOr<RankedPlacement> advice = Status::Internal("not run");
  double enumerate_ns = 0.0;
  double hit_ns = 0.0;
  double miss_lookup_ns = 0.0;
  double predict_ns = 0.0;
  double insert_ns = 0.0;
  uint64_t hits = 0;
  uint64_t predicts = 0;
};

DecomposedAdvice AdviseDecomposed(const Advisor& advisor, const AdviceRequest& request,
                                  obs::Tracer& tracer, PredictionCache& cache) {
  DecomposedAdvice out;
  const obs::TraceSpan root(tracer, "advice");
  const Predictor& predictor = advisor.predictors[static_cast<size_t>(request.workload)];
  const OptimizerOptions& option = advisor.options[static_cast<size_t>(request.constraint)];
  const MachineTopology& topo = predictor.machine().topo;
  std::vector<Placement> candidates;
  {
    const obs::TraceSpan span(tracer, "topology.enumerate");
    const int64_t t0 = NowNs();
    (void)CountCanonicalPlacements(topo);
    candidates = EnumerateCanonicalPlacements(topo);
    out.enumerate_ns = static_cast<double>(NowNs() - t0);
  }
  if (option.constraint) {
    std::erase_if(candidates, [&](const Placement& p) { return !option.constraint(p); });
  }
  if (candidates.empty()) {
    out.advice = Status::InvalidArgument("no placements satisfy the constraint");
    return out;
  }
  std::vector<Prediction> predictions(candidates.size());
  {
    const obs::TraceSpan span(tracer, "optimizer.candidates",
                              static_cast<int64_t>(candidates.size()));
    for (size_t i = 0; i < candidates.size(); ++i) {
      const int64_t t0 = NowNs();
      const PredictionCacheKey key{predictor.context_fingerprint(),
                                   PlacementFingerprint(candidates[i])};
      std::optional<Prediction> hit = cache.Lookup(key);
      const int64_t t1 = NowNs();
      if (hit.has_value()) {
        out.hit_ns += static_cast<double>(t1 - t0);
        ++out.hits;
        predictions[i] = *std::move(hit);
        continue;
      }
      out.miss_lookup_ns += static_cast<double>(t1 - t0);
      Prediction prediction = predictor.Predict(candidates[i]);
      const int64_t t2 = NowNs();
      out.predict_ns += static_cast<double>(t2 - t1);
      ++out.predicts;
      if (prediction.converged) {
        cache.Insert(key, prediction);
      }
      out.insert_ns += static_cast<double>(NowNs() - t2);
      predictions[i] = std::move(prediction);
    }
  }
  const obs::TraceSpan span(tracer, "optimizer.rank");
  std::vector<RankedPlacement> ranked;
  ranked.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    ranked.push_back(RankedPlacement{std::move(candidates[i]), std::move(predictions[i])});
  }
  if (request.objective == 0) {
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const RankedPlacement& a, const RankedPlacement& b) {
                       return a.prediction.speedup > b.prediction.speedup;
                     });
    out.advice = std::move(ranked.front());
    return out;
  }
  double best_speedup = 0.0;
  for (const RankedPlacement& candidate : ranked) {
    best_speedup = std::max(best_speedup, candidate.prediction.speedup);
  }
  const double target = best_speedup * kCheapestFraction;
  const RankedPlacement* cheapest = nullptr;
  for (const RankedPlacement& candidate : ranked) {
    if (candidate.prediction.speedup + 1e-12 < target) {
      continue;
    }
    if (cheapest == nullptr) {
      cheapest = &candidate;
      continue;
    }
    const Placement& a = candidate.placement;
    const Placement& b = cheapest->placement;
    const bool cheaper =
        a.TotalThreads() != b.TotalThreads()
            ? a.TotalThreads() < b.TotalThreads()
            : (a.NumActiveSockets() != b.NumActiveSockets()
                   ? a.NumActiveSockets() < b.NumActiveSockets()
                   : candidate.prediction.speedup > cheapest->prediction.speedup);
    if (cheaper) {
      cheapest = &candidate;
    }
  }
  out.advice = *cheapest;
  return out;
}

void AddEndToEnd(Result& result, const std::vector<double>& setup_s,
                 const Served& served) {
  const double advices = static_cast<double>(served.advice_ms.size());
  std::string setups = "set-ups (s):";
  for (const double seconds : setup_s) {
    setups += StrFormat(" %.3f", seconds);
  }
  result.notes.push_back(setups);
  result.Add("setup_s", Median(setup_s), "s", setup_s.size());
  result.Add("throughput_per_s", advices / served.elapsed_s, "1/s",
             served.advice_ms.size());
  result.Add("p50_ms", Median(served.advice_ms), "ms", served.advice_ms.size());
  result.Add("p90_ms", Quantile(served.advice_ms, 0.9), "ms", served.advice_ms.size());
  result.Add("secondary_p50_ms", Median(served.repeat_ms), "ms", served.repeat_ms.size());
  result.Add("read_p50_ms", Median(served.point_ms), "ms", served.point_ms.size());
}

void CheckGolden(const Advisor& advisor, Result& result) {
  Digest digest;
  const std::vector<AdviceRequest> stream =
      AdviceStream(kGoldenSeed, kGoldenOps, static_cast<int>(advisor.predictors.size()));
  const Served golden = Serve(advisor, stream, 0.0, digest);
  result.notes.push_back("golden digest " + digest.Hex());
  if (golden.failed > 0 || digest.Hex() != kGoldenDigest) {
    result.Fail(StrFormat("advise golden digest %s, expected %s", digest.Hex().c_str(),
                          kGoldenDigest));
  }
}

Result RunEndToEnd(const Options& options) {
  Result result;
  std::vector<double> setup_s;
  std::unique_ptr<Advisor> advisor = TimedSetUps(kSetUps / 2, setup_s);
  const std::vector<AdviceRequest> stream = AdviceStream(
      options.seed, options.ops > 0 ? static_cast<size_t>(options.ops) : kStreamAdvices,
      static_cast<int>(advisor->predictors.size()));
  Digest digest;
  const Served served =
      Serve(*advisor, stream, options.ops > 0 ? 0.0 : options.seconds, digest);
  result.attempted = served.outputs.size();
  result.failed = served.failed;
  result.notes.push_back(StrFormat("advices %zu, digest %s", served.advice_ms.size(),
                                   digest.Hex().c_str()));
  // Results do not depend on the cache state, so the golden stream runs on
  // the warm advisor.
  CheckGolden(*advisor, result);
  advisor.reset();
  advisor = TimedSetUps(kSetUps - kSetUps / 2, setup_s);
  AddEndToEnd(result, setup_s, served);
  return result;
}

// Registry counters an optimizer call moves. The decomposed side shares the
// registry, so these are summed from reads around each optimizer call only.
constexpr const char* kOptimizerCounters[] = {
    "prediction_cache.hits", "prediction_cache.misses",  "prediction_cache.evictions",
    "predictor.iterations",  "predictor.predictions",    "optimizer.non_converged_ranked"};
constexpr size_t kNumOptimizerCounters = std::size(kOptimizerCounters);

std::array<uint64_t, kNumOptimizerCounters> ReadOptimizerCounters() {
  std::array<uint64_t, kNumOptimizerCounters> values{};
  for (size_t i = 0; i < kNumOptimizerCounters; ++i) {
    values[i] = obs::MetricsRegistry::Global().counter(kOptimizerCounters[i]).value();
  }
  return values;
}

// Traced run, in lock-step: each request goes through the public optimizer
// entry point (timed, untraced) and through the decomposed optimizer
// (traced) before the next one does, so both see the same host speed. The decomposed side
// keeps its own prediction cache, warmed the same way as the global one, so
// neither side answers the other's lookups.
Result RunTraced(const Options& options) {
  Result result;
  std::unique_ptr<Advisor> advisor = SetUp();
  PredictionCache replica_cache;
  obs::Tracer tracer;
  for (int w = 0; w < static_cast<int>(advisor->predictors.size()); ++w) {
    (void)AdviseDecomposed(*advisor, WarmUpRequest(w), tracer, replica_cache);
  }
  const std::vector<AdviceRequest> stream = AdviceStream(
      options.seed, options.ops > 0 ? static_cast<size_t>(options.ops) : kTracedAdvices,
      static_cast<int>(advisor->predictors.size()));

  std::array<uint64_t, kNumOptimizerCounters> counts{};
  DecomposedAdvice totals;
  std::vector<double> advice_ms;
  std::vector<double> overhead_ms;
  double traced_ns = 0.0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  tracer.SetEnabled(true);
  for (size_t i = 0; i < stream.size(); ++i) {
    StatusOr<RankedPlacement> advice = Status::Internal("not run");
    double optimizer_ns = 0.0;
    const auto optimize = [&] {
      const std::array<uint64_t, kNumOptimizerCounters> before = ReadOptimizerCounters();
      const int64_t t0 = NowNs();
      advice = advisor->Advise(stream[i]);
      optimizer_ns = static_cast<double>(NowNs() - t0);
      const std::array<uint64_t, kNumOptimizerCounters> after = ReadOptimizerCounters();
      for (size_t c = 0; c < kNumOptimizerCounters; ++c) {
        counts[c] += after[c] - before[c];
      }
    };
    DecomposedAdvice decomposed;
    const auto decompose = [&] {
      const int64_t t0 = NowNs();
      decomposed = AdviseDecomposed(*advisor, stream[i], tracer, replica_cache);
      traced_ns += static_cast<double>(NowNs() - t0);
    };
    // The side that goes second runs on code and data the first just
    // warmed, so the order alternates.
    if (i % 2 == 0) {
      optimize();
      decompose();
    } else {
      decompose();
      optimize();
    }
    if (!advice.ok()) {
      ++result.failed;
    }
    if (advisor->AdviceText(stream[i], decomposed.advice) !=
        advisor->AdviceText(stream[i], advice)) {
      result.Fail(StrFormat("decomposed advice %zu differs from the optimizer's", i));
    }
    totals.enumerate_ns += decomposed.enumerate_ns;
    totals.hit_ns += decomposed.hit_ns;
    totals.miss_lookup_ns += decomposed.miss_lookup_ns;
    totals.predict_ns += decomposed.predict_ns;
    totals.insert_ns += decomposed.insert_ns;
    totals.hits += decomposed.hits;
    totals.predicts += decomposed.predicts;
    // The optimizer's time for this advice minus the time its layers took
    // on the decomposed side for the same advice.
    const double layers_ns = decomposed.enumerate_ns + decomposed.hit_ns +
                             decomposed.miss_lookup_ns + decomposed.predict_ns +
                             decomposed.insert_ns;
    advice_ms.push_back(optimizer_ns * 1e-6);
    overhead_ms.push_back(advice_ms.back() - layers_ns * 1e-6);
    if (options.ops == 0 && NowNs() >= deadline) {
      break;
    }
  }
  tracer.SetEnabled(false);
  const uint64_t hits = counts[0];
  const uint64_t misses = counts[1];
  const uint64_t evictions = counts[2];
  const uint64_t iterations = counts[3];
  const uint64_t predictions = counts[4];
  const uint64_t non_converged = counts[5];
  if (!options.trace_out.empty() && !WriteFile(options.trace_out, tracer.ChromeTraceJson())) {
    result.Fail("cannot write " + options.trace_out);
  }
  if (totals.hits != hits || totals.predicts != misses) {
    result.Fail(StrFormat("decomposed cache traffic (%llu hits, %llu misses) differs "
                          "from the optimizer's (%llu, %llu)",
                          static_cast<unsigned long long>(totals.hits),
                          static_cast<unsigned long long>(totals.predicts),
                          static_cast<unsigned long long>(hits),
                          static_cast<unsigned long long>(misses)));
  }
  const size_t count = advice_ms.size();
  result.attempted = count;
  result.notes.push_back(StrFormat("advices %zu in lock-step, decomposition checked", count));
  const double n = static_cast<double>(count);
  const double mean_advice_ms = Mean(advice_ms);
  const auto share = [&](double ns) {
    return StrFormat("%.1f ms (%.0f%%)", ns * 1e-6 / n,
                     100.0 * ns * 1e-6 / n / mean_advice_ms);
  };
  result.notes.push_back(
      StrFormat("advice: %.1f ms, enumerate %s, hit lookups %s, miss lookups %s, predict %s, "
                "inserts %s, optimizer overhead %s",
                mean_advice_ms, share(totals.enumerate_ns).c_str(), share(totals.hit_ns).c_str(),
                share(totals.miss_lookup_ns).c_str(), share(totals.predict_ns).c_str(),
                share(totals.insert_ns).c_str(), share(Mean(overhead_ms) * 1e6 * n).c_str()));
  const uint64_t lookups = hits + misses;
  result.Add("topology.enumerate_ms", totals.enumerate_ns * 1e-6 / n, "ms", count);
  result.Add("predictor.predict_us",
             totals.predicts > 0 ? totals.predict_ns * 1e-3 / static_cast<double>(totals.predicts) : 0.0,
             "us", totals.predicts);
  result.Add("cache.hit_us",
             totals.hits > 0 ? totals.hit_ns * 1e-3 / static_cast<double>(totals.hits) : 0.0,
             "us", totals.hits);
  result.Add("optimizer.overhead_ms", Mean(overhead_ms), "ms", count);
  result.Add("advice_ms", mean_advice_ms, "ms", count);
  result.Add("cache.hit_ratio",
             lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0,
             "ratio", lookups);
  result.Add("cache.lookups", static_cast<double>(lookups), "count");
  result.Add("cache.evictions", static_cast<double>(evictions), "count");
  result.Add("predictor.iterations_per_predict",
             predictions > 0 ? static_cast<double>(iterations) / static_cast<double>(predictions)
                             : 0.0,
             "iter", predictions);
  result.Add("predictor.predictions", static_cast<double>(predictions), "count");
  result.Add("optimizer.non_converged_ranked", static_cast<double>(non_converged), "count");
  result.Add("trace.overhead", traced_ns * 1e-6 / (mean_advice_ms * n) - 1.0, "ratio", count);
  AddMissingLayerMetrics(result);
  return result;
}

}  // namespace

Result RunAdvise(const Options& options) {
  return options.trace ? RunTraced(options) : RunEndToEnd(options);
}

}  // namespace perfbench
