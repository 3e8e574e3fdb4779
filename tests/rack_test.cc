// Tests for the rack-scale scheduler (§8 future-work extension).
#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "src/eval/pipeline.h"
#include "src/obs/metrics.h"
#include "src/rack/rack.h"
#include "src/workloads/workloads.h"

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

}  // namespace
}  // namespace rack
}  // namespace pandia
