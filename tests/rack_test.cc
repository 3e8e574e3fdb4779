// Tests for the rack-scale scheduler (§8 future-work extension).
#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <string>

#include "src/eval/pipeline.h"
#include "src/obs/metrics.h"
#include "src/rack/rack.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/workloads/workloads.h"
#include "tests/placement_corpus.h"

namespace pandia {
namespace rack {
namespace {

const eval::Pipeline& X3() {
  static const eval::Pipeline pipeline("x3-2");
  return pipeline;
}

const eval::Pipeline& X5() {
  static const eval::Pipeline pipeline("x5-2");
  return pipeline;
}

JobRequest MakeJob(const std::string& workload, int threads) {
  JobRequest job;
  job.name = workload;
  job.requested_threads = threads;
  job.descriptions.emplace("x3-2", X3().Profile(workloads::ByName(workload)));
  job.descriptions.emplace("x5-2", X5().Profile(workloads::ByName(workload)));
  return job;
}

std::vector<RackMachine> TwoNodeRack() {
  return {{"node0", X3().description()}, {"node1", X3().description()}};
}

// --- PlaceLoadsOnFreeCores ---

TEST(PlaceOnFreeCores, UsesOnlyFreeSlots) {
  const MachineTopology& topo = X3().machine().topology();
  std::vector<uint8_t> free(static_cast<size_t>(topo.NumCores()), 2);
  free[0] = 0;  // core 0 fully occupied
  free[1] = 1;  // core 1 half occupied
  std::vector<SocketLoad> loads{{2, 1}, {0, 0}};
  const std::optional<Placement> placement = PlaceLoadsOnFreeCores(topo, loads, free);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->ThreadsOnCore(0), 0);
  EXPECT_EQ(placement->TotalThreads(), 4);
  // Singles prefer the half-occupied core.
  EXPECT_EQ(placement->ThreadsOnCore(1), 1);
}

TEST(PlaceOnFreeCores, FailsWhenDoublesDoNotFit) {
  const MachineTopology& topo = X3().machine().topology();
  std::vector<uint8_t> free(static_cast<size_t>(topo.NumCores()), 1);  // all half
  std::vector<SocketLoad> loads{{0, 1}, {0, 0}};
  EXPECT_FALSE(PlaceLoadsOnFreeCores(topo, loads, free).has_value());
}

TEST(PlaceOnFreeCores, FailsWhenSocketFull) {
  const MachineTopology& topo = X3().machine().topology();
  std::vector<uint8_t> free(static_cast<size_t>(topo.NumCores()), 2);
  for (int c = 0; c < topo.cores_per_socket; ++c) {
    free[c] = 0;
  }
  std::vector<SocketLoad> loads{{1, 0}, {0, 0}};
  EXPECT_FALSE(PlaceLoadsOnFreeCores(topo, loads, free).has_value());
}

// --- batch admission: a job stream admitted in order ---

TEST(RackAdmit, PlacesEveryJobWhileRoomRemains) {
  Rack rack(TwoNodeRack());
  for (const JobRequest& job : {MakeJob("CG", 8), MakeJob("EP", 8), MakeJob("MD", 8)}) {
    const StatusOr<Assignment> assignment = rack.Admit(job, Policy::kBestSpeedup);
    ASSERT_TRUE(assignment.ok()) << job.name << ": " << assignment.status().ToString();
    EXPECT_EQ(assignment->job, job.name);
    EXPECT_GE(assignment->machine_index, 0) << job.name;
    ASSERT_TRUE(assignment->placement.has_value());
    EXPECT_GE(assignment->placement->TotalThreads(), 1);
    EXPECT_LE(assignment->placement->TotalThreads(), 8);
    EXPECT_GT(assignment->predicted_speedup, 0.0);
  }
  EXPECT_EQ(rack.JobCount(), 3);
}

TEST(RackAdmit, NeverOverSubscribesAMachine) {
  Rack rack(TwoNodeRack());
  // Far more thread demand than the rack holds (2 x 32 hardware threads).
  const int cores = X3().machine().topology().NumCores();
  std::vector<std::vector<int>> used(2, std::vector<int>(static_cast<size_t>(cores), 0));
  for (int i = 0; i < 6; ++i) {
    JobRequest job = MakeJob("EP", 16);
    job.name = "EP-" + std::to_string(i);
    const StatusOr<Assignment> assignment = rack.Admit(job, Policy::kFirstFit);
    if (!assignment.ok()) {
      continue;
    }
    for (int c = 0; c < cores; ++c) {
      used[assignment->machine_index][c] += assignment->placement->ThreadsOnCore(c);
      EXPECT_LE(used[assignment->machine_index][c], 2);
    }
  }
}

TEST(RackAdmit, FirstFitFillsNodeZeroFirst) {
  Rack rack(TwoNodeRack());
  const StatusOr<Assignment> assignment = rack.Admit(MakeJob("EP", 4), Policy::kFirstFit);
  ASSERT_TRUE(assignment.ok());
  EXPECT_EQ(assignment->machine_index, 0);
}

TEST(RackAdmit, BestSpeedupAvoidsTheBusyMachine) {
  Rack rack(TwoNodeRack());
  // Saturate node0 with a bandwidth hog, then place another one.
  ASSERT_TRUE(rack.Admit(MakeJob("Swim", 16), Policy::kFirstFit).ok());
  JobRequest second = MakeJob("Swim", 16);
  second.name = "Swim-2";
  const StatusOr<Assignment> assignment = rack.Admit(second, Policy::kBestSpeedup);
  ASSERT_TRUE(assignment.ok());
  EXPECT_EQ(assignment->machine_index, 1);
}

TEST(RackAdmit, HeterogeneousRackPrefersTheBiggerMachine) {
  Rack rack({{"small", X3().description()}, {"big", X5().description()}});
  const StatusOr<Assignment> assignment =
      rack.Admit(MakeJob("MD", 36), Policy::kBestSpeedup);
  ASSERT_TRUE(assignment.ok());
  // MD scales: 36 threads on the Haswell beat 32 on the Sandy Bridge.
  EXPECT_EQ(assignment->machine_index, 1);
  EXPECT_EQ(assignment->placement->TotalThreads(), 36);
}

TEST(RackAdmit, SkipsMachinesWithoutADescription) {
  Rack rack({{"small", X3().description()}, {"big", X5().description()}});
  JobRequest job;
  job.name = "CG-x5-only";
  job.requested_threads = 8;
  job.descriptions.emplace("x5-2", X5().Profile(workloads::ByName("CG")));
  const StatusOr<Assignment> assignment = rack.Admit(job, Policy::kFirstFit);
  ASSERT_TRUE(assignment.ok());
  EXPECT_EQ(assignment->machine_index, 1);
}

TEST(RackAdmit, ReportsUnplaceableJobs) {
  Rack rack({{"node0", X3().description()}});
  JobRequest first = MakeJob("EP", 32);
  first.name = "EP-1";
  JobRequest second = MakeJob("EP", 32);
  second.name = "EP-2";
  JobRequest third = MakeJob("EP", 4);
  third.name = "EP-3";
  EXPECT_TRUE(rack.Admit(first, Policy::kFirstFit).ok());
  // The machine is already full.
  EXPECT_EQ(rack.Admit(second, Policy::kFirstFit).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(rack.Admit(third, Policy::kFirstFit).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(rack.JobCount(), 1);
}

TEST(RackAdmit, LeastInterferenceBeatsFirstFitOnAggregateSpeedup) {
  // Two bandwidth hogs and two compute jobs on two nodes: interference-
  // aware assignment pairs a hog with a compute job instead of stacking
  // the hogs.
  const std::vector<JobRequest> jobs{MakeJob("Swim", 8), MakeJob("Bwaves", 8),
                                     MakeJob("EP", 8), MakeJob("MD", 8)};
  auto aggregate = [&](Policy policy) {
    Rack rack(TwoNodeRack());
    double total = 0.0;
    for (const JobRequest& job : jobs) {
      const StatusOr<Assignment> assignment = rack.Admit(job, policy);
      if (assignment.ok()) {
        total += assignment->predicted_speedup;
      }
    }
    return total;
  };
  EXPECT_GE(aggregate(Policy::kLeastInterference),
            aggregate(Policy::kFirstFit) * 0.99);
}

// --- Rack online mutations (the placement service's state machine) ---

TEST(Rack, AdmitDepartReadmitSequence) {
  Rack rack(TwoNodeRack());
  const StatusOr<Assignment> first = rack.Admit(MakeJob("EP", 8), Policy::kFirstFit);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->machine_index, 0);
  EXPECT_TRUE(rack.Has("EP"));
  EXPECT_EQ(rack.JobCount(), 1);

  const StatusOr<Assignment> duplicate =
      rack.Admit(MakeJob("EP", 4), Policy::kFirstFit);
  EXPECT_EQ(duplicate.status().code(), StatusCode::kFailedPrecondition);

  const StatusOr<int> departed = rack.Depart("EP");
  ASSERT_TRUE(departed.ok());
  EXPECT_EQ(*departed, 0);
  EXPECT_FALSE(rack.Has("EP"));
  EXPECT_EQ(rack.JobCount(), 0);
  EXPECT_EQ(rack.Depart("EP").status().code(), StatusCode::kNotFound);

  // Re-admission of the freed name lands exactly where the first one did.
  const StatusOr<Assignment> second =
      rack.Admit(MakeJob("EP", 8), Policy::kFirstFit);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->machine_index, first->machine_index);
  ASSERT_TRUE(second->placement.has_value());
  EXPECT_TRUE(*second->placement == *first->placement);
}

TEST(Rack, RejectsJobWithNoDescriptionForAnyMachineType) {
  Rack rack(TwoNodeRack());  // both machines are x3-2
  JobRequest job;
  job.name = "x5-only";
  job.requested_threads = 4;
  job.descriptions.emplace("x5-2", X5().Profile(workloads::ByName("CG")));
  const StatusOr<Assignment> refused = rack.Admit(job, Policy::kFirstFit);
  EXPECT_EQ(refused.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(rack.JobCount(), 0);
}

TEST(Rack, RejectsAdmissionWhenRackHasZeroFreeThreads) {
  std::vector<RackMachine> machines{{"node0", X3().description()}};
  Rack rack(std::move(machines));
  const MachineTopology& topo = X3().machine().topology();
  // Fill every hardware thread with one recorded admission.
  const std::vector<uint8_t> all_free(static_cast<size_t>(topo.NumCores()), 2);
  const std::vector<SocketLoad> full_loads(
      static_cast<size_t>(topo.num_sockets), SocketLoad{0, topo.cores_per_socket});
  const std::optional<Placement> full =
      PlaceLoadsOnFreeCores(topo, full_loads, all_free);
  ASSERT_TRUE(full.has_value());
  ASSERT_EQ(full->TotalThreads(), topo.NumHwThreads());
  const JobRequest filler = MakeJob("EP", full->TotalThreads());
  ASSERT_TRUE(
      rack.AdmitAt("filler", 0, filler.descriptions.at("x3-2"), *full).ok());
  EXPECT_EQ(rack.FreeThreadCount(0), 0);

  const StatusOr<Assignment> refused =
      rack.Admit(MakeJob("MD", 1), Policy::kBestSpeedup);
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(rack.JobCount(), 1);  // the filler is untouched
}

TEST(Rack, MoveRelocatesAcrossMachinesLikeDepartAndReadmit) {
  Rack rack(TwoNodeRack());
  ASSERT_TRUE(rack.Admit(MakeJob("EP", 4), Policy::kFirstFit).ok());
  const MachineTopology& topo = X3().machine().topology();
  const std::vector<SocketLoad> loads{{4, 0}, {0, 0}};
  const std::optional<Placement> placement =
      PlaceLoadsOnFreeCores(topo, loads, rack.FreeThreads(1));
  ASSERT_TRUE(placement.has_value());
  ASSERT_TRUE(rack.Move("EP", 1, *placement).ok());
  const StatusOr<int> where = rack.MachineOf("EP");
  ASSERT_TRUE(where.ok());
  EXPECT_EQ(*where, 1);
  EXPECT_TRUE(rack.JobsOn(0).empty());
  ASSERT_EQ(rack.JobsOn(1).size(), 1u);
  EXPECT_TRUE(rack.JobsOn(1)[0].placement == *placement);
}

TEST(Rack, TelemetryTracksAdmitSeqMovesAndCoEvents) {
  Rack rack(TwoNodeRack());
  ASSERT_TRUE(rack.Admit(MakeJob("EP", 4), Policy::kFirstFit).ok());
  {
    const Rack::TelemetrySnapshot snapshot = rack.Telemetry();
    EXPECT_EQ(snapshot.mutation_seq, 1u);
    ASSERT_EQ(snapshot.jobs.size(), 1u);
    const Rack::JobTelemetry& job = snapshot.jobs[0];
    EXPECT_EQ(job.name, "EP");
    EXPECT_EQ(job.machine_index, 0);
    EXPECT_EQ(job.threads, 4);
    EXPECT_EQ(job.admit_seq, 1u);
    EXPECT_EQ(job.moves, 0);
    EXPECT_EQ(job.co_events, 0u);
    EXPECT_GT(job.speedup_at_admit, 0.0);
    EXPECT_NEAR(job.slowdown_at_admit, 1.0 / job.speedup_at_admit, 1e-9);
    EXPECT_GT(job.current_speedup, 0.0);
  }

  // A second admission on the same machine is one co-event for EP.
  ASSERT_TRUE(rack.Admit(MakeJob("MD", 4), Policy::kFirstFit).ok());
  {
    const Rack::TelemetrySnapshot snapshot = rack.Telemetry();
    EXPECT_EQ(snapshot.mutation_seq, 2u);
    ASSERT_EQ(snapshot.jobs.size(), 2u);
    for (const Rack::JobTelemetry& job : snapshot.jobs) {
      EXPECT_EQ(job.co_events, job.name == "EP" ? 1u : 0u) << job.name;
    }
  }

  // Moving MD away churns machine 0 again and re-baselines MD on machine 1.
  const MachineTopology& topo = X3().machine().topology();
  const std::vector<SocketLoad> loads{{4, 0}, {0, 0}};
  const std::optional<Placement> placement =
      PlaceLoadsOnFreeCores(topo, loads, rack.FreeThreads(1));
  ASSERT_TRUE(placement.has_value());
  ASSERT_TRUE(rack.Move("MD", 1, *placement).ok());
  const Rack::TelemetrySnapshot snapshot = rack.Telemetry();
  EXPECT_EQ(snapshot.mutation_seq, 3u);
  for (const Rack::JobTelemetry& job : snapshot.jobs) {
    if (job.name == "MD") {
      EXPECT_EQ(job.machine_index, 1);
      EXPECT_EQ(job.moves, 1);
      EXPECT_EQ(job.co_events, 0u);  // re-baselined at the move
      EXPECT_EQ(job.admit_seq, 2u);  // admit_seq is the admission, not the move
    } else {
      EXPECT_EQ(job.moves, 0);
      EXPECT_EQ(job.co_events, 2u);  // MD's admission and its departure-by-move
    }
  }
}

TEST(Rack, TelemetryAdmitPredictionIsReplayStable) {
  // AdmitAt (journal replay) must reconstruct the same speedup-at-admit the
  // policy scored during the original Admit, so telemetry survives restarts.
  Rack original(TwoNodeRack());
  const JobRequest job = MakeJob("EP", 4);
  const StatusOr<Assignment> admitted = original.Admit(job, Policy::kBestSpeedup);
  ASSERT_TRUE(admitted.ok());
  ASSERT_TRUE(admitted->placement.has_value());

  Rack replayed(TwoNodeRack());
  ASSERT_TRUE(replayed
                  .AdmitAt("EP", admitted->machine_index,
                           job.descriptions.at("x3-2"), *admitted->placement)
                  .ok());
  const Rack::TelemetrySnapshot before = original.Telemetry();
  const Rack::TelemetrySnapshot after = replayed.Telemetry();
  ASSERT_EQ(before.jobs.size(), 1u);
  ASSERT_EQ(after.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(after.jobs[0].speedup_at_admit,
                   before.jobs[0].speedup_at_admit);
  EXPECT_GT(after.jobs[0].speedup_at_admit, 0.0);
}

TEST(Rack, PredictMachineMatchesResidentOrder) {
  Rack rack(TwoNodeRack());
  ASSERT_TRUE(rack.Admit(MakeJob("EP", 4), Policy::kFirstFit).ok());
  ASSERT_TRUE(rack.Admit(MakeJob("MD", 4), Policy::kFirstFit).ok());
  ASSERT_EQ(rack.JobsOn(0).size(), 2u);
  const std::vector<Prediction> predictions = rack.PredictMachine(0);
  ASSERT_EQ(predictions.size(), 2u);
  for (const Prediction& prediction : predictions) {
    EXPECT_GT(prediction.speedup, 0.0);
  }
  EXPECT_TRUE(rack.PredictMachine(1).empty());
}

// The joint-prediction cache key covers the machine, the options and every
// resident (workload, placement) pair, so a mutation on one machine cannot
// make another machine's entry stale and needs no invalidation.
TEST(Rack, PredictionCacheKeyIsTheResidentSet) {
  PredictionCache::Global().Clear();
  auto hits = [] {
    return obs::MetricsRegistry::Global().counter("prediction_cache.hits").value();
  };
  auto misses = [] {
    return obs::MetricsRegistry::Global().counter("prediction_cache.misses").value();
  };
  PredictionOptions uncached_options;
  uncached_options.common.use_cache = false;
  Rack cached(TwoNodeRack());
  Rack uncached(TwoNodeRack(), uncached_options);
  const MachineTopology& topo = X3().machine().topology();
  const std::vector<SocketLoad> loads{{2, 0}, {0, 0}};
  // Places a 2-thread `workload` on the next free cores of `machine` in
  // both racks (AdmitAt predicts the machine, inserting its entry).
  auto admit_both = [&](const std::string& workload, int machine) {
    const JobRequest job = MakeJob(workload, 2);
    const std::optional<Placement> placement =
        PlaceLoadsOnFreeCores(topo, loads, cached.FreeThreads(machine));
    ASSERT_TRUE(placement.has_value());
    for (Rack* rack : {&cached, &uncached}) {
      ASSERT_TRUE(
          rack->AdmitAt(workload, machine, job.descriptions.at("x3-2"), *placement).ok());
    }
  };
  auto depart_both = [&](const std::string& job) {
    for (Rack* rack : {&cached, &uncached}) {
      ASSERT_TRUE(rack->Depart(job).ok());
    }
  };
  auto expect_same_as_uncached = [&](const std::vector<Prediction>& got) {
    const std::vector<Prediction> want = uncached.PredictMachine(0);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got[i].speedup),
                std::bit_cast<uint64_t>(want[i].speedup));
      EXPECT_EQ(std::bit_cast<uint64_t>(got[i].time), std::bit_cast<uint64_t>(want[i].time));
      EXPECT_EQ(got[i].iterations, want[i].iterations);
      EXPECT_EQ(got[i].resource_load, want[i].resource_load);
    }
  };

  admit_both("MD", 0);
  admit_both("CG", 1);
  admit_both("Swim", 1);

  // A departure from machine 1 leaves machine 0's entry in place: one hit.
  depart_both("Swim");
  uint64_t hits0 = hits();
  uint64_t misses0 = misses();
  const std::vector<Prediction> after_other = cached.PredictMachine(0);
  EXPECT_EQ(hits() - hits0, 1u);
  EXPECT_EQ(misses() - misses0, 0u);
  expect_same_as_uncached(after_other);

  // A departure from machine 0 leaves a resident set ({EP}) never predicted
  // before: one miss.
  admit_both("EP", 0);
  depart_both("MD");
  hits0 = hits();
  misses0 = misses();
  const std::vector<Prediction> after_own = cached.PredictMachine(0);
  EXPECT_EQ(hits() - hits0, 0u);
  EXPECT_EQ(misses() - misses0, 1u);
  expect_same_as_uncached(after_own);
}

// --- BestCandidateOn: the pruned scan against an exhaustive reference ---

// What BestCandidateOn computed before it pruned: every ProbeCandidates
// placement solved jointly with the residents, in generation order, the
// winner being the first to reach the policy's maximum.
struct ExhaustiveBest {
  std::vector<Placement> candidates;
  std::optional<size_t> best;
  double job_speedup = 0.0;
  double total_speedup = 0.0;
};

ExhaustiveBest ReferenceBest(const Rack& rack, int machine, const JobRequest& job,
                             Policy policy, const std::string* exclude) {
  const MachineDescription& description = rack.machines()[machine].description;
  ExhaustiveBest ref;
  const auto desc = job.descriptions.find(description.topo.name);
  if (desc == job.descriptions.end()) {
    return ref;
  }
  ref.candidates = ProbeCandidates(description.topo, rack.FreeThreads(machine, exclude),
                                   job.requested_threads);
  const CoSchedulePredictor engine(description, rack.options());
  std::vector<CoScheduleRequest> requests;
  for (const RackJob& resident : rack.JobsOn(machine)) {
    if (exclude == nullptr || resident.name != *exclude) {
      requests.push_back(CoScheduleRequest{&resident.description, resident.placement});
    }
  }
  double before_total = 0.0;
  if (!requests.empty()) {
    for (const Prediction& prediction : engine.Predict(requests).jobs) {
      before_total += prediction.speedup;
    }
  }
  if (ref.candidates.empty()) {
    return ref;
  }
  requests.push_back(CoScheduleRequest{&desc->second, ref.candidates.front()});
  for (size_t i = 0; i < ref.candidates.size(); ++i) {
    requests.back().placement = ref.candidates[i];
    const CoSchedulePrediction joint = engine.Predict(requests);
    double total = 0.0;
    for (const Prediction& prediction : joint.jobs) {
      total += prediction.speedup;
    }
    total -= before_total;
    const double job_speedup = joint.jobs.back().speedup;
    const bool better = !ref.best.has_value() ||
                        (policy == Policy::kLeastInterference
                             ? total > ref.total_speedup
                             : job_speedup > ref.job_speedup);
    if (better) {
      ref.best = i;
      ref.job_speedup = job_speedup;
      ref.total_speedup = total;
    }
  }
  return ref;
}

std::string G17(double value) { return StrFormat("%.17g", value); }

// BestCandidateOn(floor) must return the reference's winner whenever that
// winner beats the floor (always, under kLeastInterference, which ignores
// it), and nothing otherwise.
void ExpectMatchesReference(const Rack& rack, int machine, const JobRequest& job,
                            Policy policy, const std::string* exclude, double floor,
                            const ExhaustiveBest& ref, const std::string& context) {
  SCOPED_TRACE(context + " policy " + PolicyName(policy) + " floor " + G17(floor));
  const std::optional<Rack::Candidate> got =
      rack.BestCandidateOn(machine, job, policy, exclude, floor);
  const bool want_result =
      ref.best.has_value() &&
      (policy == Policy::kLeastInterference || ref.job_speedup > floor);
  ASSERT_EQ(got.has_value(), want_result);
  if (!want_result) {
    return;
  }
  EXPECT_EQ(got->placement.PerCore(), ref.candidates[*ref.best].PerCore())
      << got->placement.ToString() << " vs "
      << ref.candidates[*ref.best].ToString();
  EXPECT_EQ(G17(got->job_speedup), G17(ref.job_speedup));
  EXPECT_EQ(G17(got->total_speedup), G17(ref.total_speedup));
}

const std::vector<std::string>& ProbeSuite() {
  static const std::vector<std::string> suite = {"CG", "EP", "Swim", "MD", "Bwaves"};
  return suite;
}

JobRequest SuiteJob(const std::string& name, const std::string& workload, int threads) {
  JobRequest job = MakeJob(workload, threads);
  job.name = name;
  return job;
}

// Fills each machine with 0-7 residents of 1-6 threads on random free
// hardware threads (AdmitAt, as journal replay would).
void FillRandomly(Rack& rack, Rng& rng) {
  for (size_t m = 0; m < rack.machines().size(); ++m) {
    const MachineTopology& topo = rack.machines()[m].description.topo;
    const int residents = static_cast<int>(rng.NextBounded(8));
    for (int r = 0; r < residents; ++r) {
      std::vector<uint8_t> free = rack.FreeThreads(static_cast<int>(m));
      const int threads = 1 + static_cast<int>(rng.NextBounded(6));
      const std::optional<Placement> placement =
          RandomPlacementOnFree(topo, free, threads, rng);
      if (!placement.has_value()) {
        break;
      }
      const std::string& workload = ProbeSuite()[rng.NextBounded(ProbeSuite().size())];
      const JobRequest job = MakeJob(workload, threads);
      ASSERT_TRUE(rack.AdmitAt(StrFormat("r%zu-%d", m, r), static_cast<int>(m),
                               job.descriptions.at(topo.name), *placement)
                      .ok());
    }
  }
}

TEST(RackProbe, PrunedScanMatchesExhaustiveReference) {
  const std::vector<std::pair<std::string, std::vector<RackMachine>>> racks = {
      {"x3-2", {{"a", X3().description()}, {"b", X3().description()}}},
      {"x5-2", {{"a", X5().description()}, {"b", X5().description()}}},
      {"hetero",
       {{"a", X3().description()}, {"b", X5().description()}, {"c", X3().description()}}},
  };
  const Policy policies[] = {Policy::kFirstFit, Policy::kBestSpeedup,
                             Policy::kLeastInterference};
  const double kNoFloor = -std::numeric_limits<double>::infinity();
  int compared = 0;
  int empty_by_floor = 0;
  for (const auto& [label, machines] : racks) {
    for (uint64_t seed = 1; seed <= 16; ++seed) {
      Rack rack(machines);
      Rng rng(HashCombine(seed, label.size()));
      FillRandomly(rack, rng);
      const JobRequest job = SuiteJob(
          "probe", ProbeSuite()[rng.NextBounded(ProbeSuite().size())],
          1 + static_cast<int>(rng.NextBounded(16)));
      for (int m = 0; m < static_cast<int>(machines.size()); ++m) {
        std::vector<const std::string*> excludes = {nullptr};
        if (!rack.JobsOn(m).empty()) {
          excludes.push_back(&rack.JobsOn(m)[rng.NextBounded(rack.JobsOn(m).size())].name);
        }
        for (const std::string* exclude : excludes) {
          for (const Policy policy : policies) {
            const ExhaustiveBest ref = ReferenceBest(rack, m, job, policy, exclude);
            const std::string context =
                StrFormat("%s seed %llu machine %d exclude %s job %s/%d", label.c_str(),
                          static_cast<unsigned long long>(seed), m,
                          exclude == nullptr ? "-" : exclude->c_str(),
                          job.descriptions.begin()->second.workload.c_str(),
                          job.requested_threads);
            std::vector<double> floors = {kNoFloor};
            if (ref.best.has_value()) {
              floors.push_back(ref.job_speedup * 0.9);
              floors.push_back(ref.job_speedup);
              floors.push_back(ref.job_speedup * 1.1);
            }
            for (const double floor : floors) {
              ExpectMatchesReference(rack, m, job, policy, exclude, floor, ref, context);
              ++compared;
              if (ref.best.has_value() && policy != Policy::kLeastInterference &&
                  ref.job_speedup <= floor) {
                ++empty_by_floor;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 300);
  EXPECT_GT(empty_by_floor, 50);
}

// On an empty machine many candidates are uncontended and score the same;
// the winner must be the earliest generated of them even though the pruned
// scan visits candidates in bound order.
TEST(RackProbe, TiesGoToTheEarliestGeneratedCandidate) {
  Rack rack({{"node0", X3().description()}});
  JobRequest scaling = SuiteJob("ep", "EP", 4);
  // A purely serial job: every candidate's bound and speedup is 1, so every
  // thread count ties and the 1-thread spread placement (index 0) must win.
  JobRequest serial = SuiteJob("serial", "EP", 6);
  serial.descriptions.at("x3-2").parallel_fraction = 0.0;
  for (const JobRequest* job : {&scaling, &serial}) {
    SCOPED_TRACE(job->name);
    for (const Policy policy : {Policy::kFirstFit, Policy::kBestSpeedup}) {
      const ExhaustiveBest ref = ReferenceBest(rack, 0, *job, policy, nullptr);
      ASSERT_TRUE(ref.best.has_value());
      int ties = 0;
      const CoSchedulePredictor engine(X3().description());
      for (const Placement& placement : ref.candidates) {
        const CoScheduleRequest request{&job->descriptions.at("x3-2"), placement};
        const double speedup =
            engine.Predict(std::span<const CoScheduleRequest>(&request, 1)).jobs[0].speedup;
        ties += speedup == ref.job_speedup ? 1 : 0;
      }
      EXPECT_GE(ties, 2);
      ExpectMatchesReference(rack, 0, *job, policy, nullptr,
                             -std::numeric_limits<double>::infinity(), ref, "empty");
    }
  }
  const ExhaustiveBest serial_ref =
      ReferenceBest(rack, 0, serial, Policy::kBestSpeedup, nullptr);
  EXPECT_EQ(serial_ref.best, std::optional<size_t>(0));
}

// Admission probes every machine concurrently with no shared floor, so the
// result cannot depend on worker count or timing.
TEST(RackProbe, AdmitWithFourWorkersMatchesOneWorker) {
  const std::vector<RackMachine> machines = {
      {"a", X3().description()}, {"b", X5().description()}, {"c", X3().description()}};
  PredictionOptions serial_options;
  serial_options.common.jobs = 1;
  PredictionOptions parallel_options;
  parallel_options.common.jobs = 4;
  Rack serial(machines, serial_options);
  Rack parallel(machines, parallel_options);
  const Policy policies[] = {Policy::kFirstFit, Policy::kBestSpeedup,
                             Policy::kLeastInterference};
  Rng rng(99);
  int placed = 0;
  for (int i = 0; i < 36; ++i) {
    const JobRequest job =
        SuiteJob(StrFormat("job%d", i), ProbeSuite()[rng.NextBounded(ProbeSuite().size())],
                 1 + static_cast<int>(rng.NextBounded(12)));
    const Policy policy = policies[rng.NextBounded(3)];
    const StatusOr<Assignment> one = serial.Admit(job, policy);
    const StatusOr<Assignment> four = parallel.Admit(job, policy);
    ASSERT_EQ(one.ok(), four.ok()) << job.name;
    if (!one.ok()) {
      EXPECT_EQ(one.status().ToString(), four.status().ToString());
      continue;
    }
    ++placed;
    EXPECT_EQ(one->machine_index, four->machine_index) << job.name;
    EXPECT_EQ(one->placement->PerCore(), four->placement->PerCore()) << job.name;
    EXPECT_EQ(G17(one->predicted_speedup), G17(four->predicted_speedup)) << job.name;
    if (i % 4 == 3) {  // keep room on the rack
      const std::string victim = StrFormat("job%d", i - 2);
      EXPECT_EQ(serial.Depart(victim).ok(), parallel.Depart(victim).ok());
    }
  }
  EXPECT_GT(placed, 20);
}

TEST(RackProbe, CountersSplitGeneratedCandidatesIntoSolvedAndPruned) {
  Rack rack({{"node0", X3().description()}});
  Rng rng(5);
  const MachineTopology& topo = X3().machine().topology();
  for (int r = 0; r < 5; ++r) {
    std::vector<uint8_t> free = rack.FreeThreads(0);
    const std::optional<Placement> placement = RandomPlacementOnFree(topo, free, 4, rng);
    ASSERT_TRUE(placement.has_value());
    ASSERT_TRUE(rack.AdmitAt(StrFormat("r%d", r), 0,
                             MakeJob(r % 2 == 0 ? "Swim" : "CG", 4).descriptions.at("x3-2"),
                             *placement)
                    .ok());
  }
  const JobRequest job = SuiteJob("probe", "MD", 8);
  const size_t generated = ProbeCandidates(topo, rack.FreeThreads(0), 8).size();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const uint64_t solves0 = registry.counter("rack.probe_solves").value();
  const uint64_t pruned0 = registry.counter("rack.probes_pruned").value();
  ASSERT_TRUE(rack.BestCandidateOn(0, job, Policy::kBestSpeedup).has_value());
  const uint64_t solves = registry.counter("rack.probe_solves").value() - solves0;
  const uint64_t pruned = registry.counter("rack.probes_pruned").value() - pruned0;
  EXPECT_EQ(solves + pruned, generated);
  EXPECT_GT(pruned, 0u);
  EXPECT_GT(solves, 0u);
  // Without a bound nothing is pruned.
  ASSERT_TRUE(rack.BestCandidateOn(0, job, Policy::kLeastInterference).has_value());
  EXPECT_EQ(registry.counter("rack.probe_solves").value() - solves0,
            solves + generated);
  EXPECT_EQ(registry.counter("rack.probes_pruned").value() - pruned0, pruned);
}

}  // namespace
}  // namespace rack
}  // namespace pandia
