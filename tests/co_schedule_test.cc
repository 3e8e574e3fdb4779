// Tests for the co-scheduling extension (§8 future work): the joint model
// must reduce exactly to the single-workload model, capture interference
// between jobs, and roughly agree with simulated co-runs.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/eval/pipeline.h"
#include "src/predictor/co_schedule.h"
#include "src/sim/machine_spec.h"
#include "src/util/rng.h"
#include "src/workloads/workloads.h"
#include "tests/placement_corpus.h"

namespace pandia {
namespace {

const eval::Pipeline& X3() {
  static const eval::Pipeline pipeline("x3-2");
  return pipeline;
}

const WorkloadDescription& Desc(const char* name) {
  static std::map<std::string, WorkloadDescription> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, X3().Profile(workloads::ByName(name))).first;
  }
  return it->second;
}

TEST(CoSchedule, SingleJobMatchesPredictorExactly) {
  const WorkloadDescription& desc = Desc("CG");
  const Predictor predictor = X3().MakePredictor(desc);
  const CoSchedulePredictor engine(X3().description());
  const MachineTopology& topo = X3().machine().topology();
  for (const Placement& placement :
       {Placement::OnePerCore(topo, 6), Placement::TwoPerCore(topo, 20)}) {
    const Prediction single = predictor.Predict(placement);
    const CoScheduleRequest request{&desc, placement};
    const CoSchedulePrediction joint =
        engine.Predict(std::span<const CoScheduleRequest>(&request, 1));
    EXPECT_DOUBLE_EQ(single.speedup, joint.jobs[0].speedup);
    EXPECT_DOUBLE_EQ(single.time, joint.jobs[0].time);
    EXPECT_EQ(single.iterations, joint.jobs[0].iterations);
  }
}

TEST(CoSchedule, DisjointComputeJobsDoNotInterfere) {
  const WorkloadDescription& desc = Desc("EP");
  const MachineTopology& topo = X3().machine().topology();
  // EP on socket 0 and EP on socket 1, no shared resources to saturate.
  std::vector<SocketLoad> s0{{4, 0}, {0, 0}};
  std::vector<SocketLoad> s1{{0, 0}, {4, 0}};
  const std::vector<CoScheduleRequest> requests{
      {&desc, Placement::FromSocketLoads(topo, s0)},
      {&desc, Placement::FromSocketLoads(topo, s1)},
  };
  const CoSchedulePredictor engine(X3().description());
  const CoSchedulePrediction joint = engine.Predict(requests);
  const Predictor solo = X3().MakePredictor(desc);
  const Prediction alone = solo.Predict(Placement::FromSocketLoads(topo, s0));
  EXPECT_NEAR(joint.jobs[0].speedup, alone.speedup, alone.speedup * 0.02);
  EXPECT_NEAR(joint.jobs[1].speedup, alone.speedup, alone.speedup * 0.02);
}

TEST(CoSchedule, MemoryJobsOnOneSocketInterfere) {
  const WorkloadDescription& desc = Desc("Swim");
  const MachineTopology& topo = X3().machine().topology();
  // Two bandwidth-bound jobs packed onto the same socket must slow each
  // other; the same jobs on separate sockets must not.
  std::vector<SocketLoad> first_half{{4, 0}, {0, 0}};
  Placement second_half(topo, {0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0});
  const std::vector<CoScheduleRequest> same_socket{
      {&desc, Placement::FromSocketLoads(topo, first_half)},
      {&desc, second_half},
  };
  std::vector<SocketLoad> other_socket{{0, 0}, {4, 0}};
  const std::vector<CoScheduleRequest> split{
      {&desc, Placement::FromSocketLoads(topo, first_half)},
      {&desc, Placement::FromSocketLoads(topo, other_socket)},
  };
  const CoSchedulePredictor engine(X3().description());
  const double same = engine.Predict(same_socket).jobs[0].speedup;
  const double apart = engine.Predict(split).jobs[0].speedup;
  EXPECT_LT(same, apart * 0.92);
}

TEST(CoSchedule, InterferencePredictionTracksSimulatedCoRun) {
  // Simulate CG (foreground) sharing socket 0 with a continuously running
  // Swim (background); the joint prediction of CG's time must land within
  // a factor of ~1.5 of the simulated co-run.
  const WorkloadDescription& cg = Desc("CG");
  const WorkloadDescription& swim = Desc("Swim");
  const MachineTopology& topo = X3().machine().topology();
  const Placement cg_placement(topo, {1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0});
  const Placement swim_placement(topo, {0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0});

  const std::vector<CoScheduleRequest> requests{
      {&cg, cg_placement},
      {&swim, swim_placement},
  };
  const CoSchedulePredictor engine(X3().description());
  const double predicted = engine.Predict(requests).jobs[0].time;

  const sim::WorkloadSpec cg_spec = workloads::ByName("CG");
  const sim::WorkloadSpec swim_spec = workloads::ByName("Swim");
  const std::vector<sim::JobRequest> jobs{
      {&cg_spec, cg_placement, /*background=*/false},
      {&swim_spec, swim_placement, /*background=*/true},
  };
  const double measured = X3().machine().Run(jobs).jobs[0].completion_time;
  EXPECT_LT(predicted, measured * 1.5);
  EXPECT_GT(predicted, measured / 1.5);

  // And the co-run must be slower than CG alone on those cores.
  const double alone =
      X3().machine().RunOne(cg_spec, cg_placement).jobs[0].completion_time;
  EXPECT_GT(measured, alone * 1.02);
  const Predictor solo = X3().MakePredictor(cg);
  EXPECT_GT(predicted, solo.Predict(cg_placement).time * 1.02);
}

TEST(CoSchedule, CombinedResourceLoadIsSumOfJobs) {
  const WorkloadDescription& cg = Desc("CG");
  const MachineTopology& topo = X3().machine().topology();
  std::vector<SocketLoad> s0{{2, 0}, {0, 0}};
  std::vector<SocketLoad> s1{{0, 0}, {2, 0}};
  const std::vector<CoScheduleRequest> requests{
      {&cg, Placement::FromSocketLoads(topo, s0)},
      {&cg, Placement::FromSocketLoads(topo, s1)},
  };
  const CoSchedulePredictor engine(X3().description());
  const CoSchedulePrediction joint = engine.Predict(requests);
  const ResourceIndex index(topo);
  // Both jobs are symmetric, so both DRAM nodes see the same load.
  EXPECT_NEAR(joint.resource_load[index.Dram(0)], joint.resource_load[index.Dram(1)],
              1e-9);
  EXPECT_GT(joint.resource_load[index.Dram(0)], 0.0);
}

// --- AmdahlBound: the rack's probe pruning relies on it being exact ---

const eval::Pipeline& PipelineFor(const std::string& machine) {
  static std::map<std::string, eval::Pipeline>* pipelines =
      new std::map<std::string, eval::Pipeline>;
  auto it = pipelines->find(machine);
  if (it == pipelines->end()) {
    it = pipelines->emplace(machine, eval::Pipeline(machine)).first;
  }
  return it->second;
}

const WorkloadDescription& DescOn(const std::string& machine, const std::string& name) {
  static std::map<std::string, WorkloadDescription>* cache =
      new std::map<std::string, WorkloadDescription>;
  const std::string key = machine + "/" + name;
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache->emplace(key, PipelineFor(machine).Profile(workloads::ByName(name))).first;
  }
  return it->second;
}

// Solves `requests` jointly and checks speedup <= AmdahlBound for every job,
// compared exactly: no epsilon.
void ExpectWithinAmdahlBound(const CoSchedulePredictor& engine,
                             const std::vector<CoScheduleRequest>& requests,
                             const std::string& context) {
  const CoSchedulePrediction joint = engine.Predict(requests);
  ASSERT_EQ(joint.jobs.size(), requests.size());
  for (size_t j = 0; j < requests.size(); ++j) {
    const double bound = AmdahlBound(requests[j].workload->parallel_fraction,
                                     requests[j].placement.TotalThreads());
    EXPECT_LE(joint.jobs[j].speedup, bound) << context << " job " << j;
    // The bound is the solver's own Amdahl factor, not a second formula.
    EXPECT_EQ(joint.jobs[j].amdahl_speedup,
              AmdahlSpeedup(requests[j].workload->parallel_fraction,
                            requests[j].placement.TotalThreads()))
        << context << " job " << j;
  }
}

// The option variants the bound must survive: the default model, the
// first iteration alone (no §5.4 clamp pass ever runs), early dampening,
// and each ablation.
std::vector<PredictionOptions> BoundOptionVariants() {
  std::vector<PredictionOptions> variants(5);
  variants[1].iterate = false;
  variants[2].dampen_after = 2;
  variants[3].model_load_balance = false;
  variants[4].model_burstiness = false;
  return variants;
}

TEST(AmdahlBound, HoldsWithoutSlackOnSeededRacksOnEveryPaperMachine) {
  const std::vector<std::string> suite = {"CG", "Swim", "EP", "MD", "Bwaves"};
  int solves = 0;
  for (const std::string& machine : sim::KnownMachineNames()) {
    const eval::Pipeline& pipeline = PipelineFor(machine);
    const MachineTopology& topo = pipeline.machine().topology();
    const std::vector<PredictionOptions> variants = BoundOptionVariants();
    std::vector<CoSchedulePredictor> engines;
    for (const PredictionOptions& options : variants) {
      engines.emplace_back(pipeline.description(), options);
    }
    Rng rng(HashCombine(7, machine.size(), static_cast<uint64_t>(topo.NumCores())));
    for (int rack = 0; rack < 200; ++rack) {
      std::vector<uint8_t> free(static_cast<size_t>(topo.NumCores()),
                                static_cast<uint8_t>(topo.threads_per_core));
      std::vector<CoScheduleRequest> requests;
      const int jobs = 2 + static_cast<int>(rng.NextBounded(8));
      for (int j = 0; j < jobs; ++j) {
        const int threads = 1 + static_cast<int>(rng.NextBounded(6));
        std::optional<Placement> placement =
            RandomPlacementOnFree(topo, free, threads, rng);
        if (!placement.has_value()) {
          break;
        }
        requests.push_back(CoScheduleRequest{
            &DescOn(machine, suite[rng.NextBounded(suite.size())]), *std::move(placement)});
      }
      for (size_t v = 0; v < engines.size(); ++v) {
        ExpectWithinAmdahlBound(engines[v], requests,
                                machine + " rack " + std::to_string(rack) +
                                    " variant " + std::to_string(v));
        ++solves;
      }
    }
  }
  EXPECT_EQ(solves, 4 * 200 * 5);
}

TEST(AmdahlBound, HoldsOnTheSolverEdgeCorpus) {
  for (const std::string& machine : sim::KnownMachineNames()) {
    const eval::Pipeline& pipeline = PipelineFor(machine);
    const MachineTopology& topo = pipeline.machine().topology();
    for (const PredictionOptions& options : BoundOptionVariants()) {
      const CoSchedulePredictor engine(pipeline.description(), options);
      for (const char* workload : {"CG", "Swim"}) {
        for (const Placement& placement : PlacementCorpus(topo)) {
          ExpectWithinAmdahlBound(engine, {{&DescOn(machine, workload), placement}},
                                  machine + "/" + workload + "/" +
                                      std::to_string(placement.TotalThreads()) + "t");
        }
      }
    }
  }
}

// Fully balanced (load_balance = 1) jobs that communicate across sockets
// rely on the comm step alone for their cross-socket penalty, and that step
// subtracts one socket's share of the reciprocal-slowdown sum from the
// total (`total_work - socket_work`). Lopsided splits make one share nearly
// the whole sum, the case where a rounding slip could make the penalty
// negative and a slowdown fall below 1.
TEST(AmdahlBound, HoldsForBalancedCommunicatingMultiSocketJobs) {
  for (const std::string& machine : sim::KnownMachineNames()) {
    const eval::Pipeline& pipeline = PipelineFor(machine);
    const MachineTopology& topo = pipeline.machine().topology();
    ASSERT_GE(topo.num_sockets, 2) << machine;
    for (const PredictionOptions& options : BoundOptionVariants()) {
      const CoSchedulePredictor engine(pipeline.description(), options);
      for (const char* workload : {"CG", "Swim", "EP"}) {
        for (const double overhead : {1e-9, 1e-3, 0.05, 0.5, 4.0}) {
          WorkloadDescription desc = DescOn(machine, workload);
          desc.load_balance = 1.0;
          desc.inter_socket_overhead = overhead;
          for (int here = 1; here <= topo.cores_per_socket; ++here) {
            for (int smt = 0; smt < 2; ++smt) {
              std::vector<SocketLoad> loads(static_cast<size_t>(topo.num_sockets));
              loads[0] = smt == 0 ? SocketLoad{here, 0} : SocketLoad{0, here};
              loads[1] = SocketLoad{1, 0};
              loads.back().singles += 1;  // one more thread on the last socket
              const Placement placement = Placement::FromSocketLoads(topo, loads);
              const std::string context =
                  machine + "/" + workload + " os=" + std::to_string(overhead) +
                  " split " + placement.ToString();
              ExpectWithinAmdahlBound(engine, {{&desc, placement}}, context);
              // The same job next to a co-runner on random free slots.
              std::vector<uint8_t> free(static_cast<size_t>(topo.NumCores()));
              for (int c = 0; c < topo.NumCores(); ++c) {
                free[c] = static_cast<uint8_t>(topo.threads_per_core -
                                               placement.ThreadsOnCore(c));
              }
              Rng rng(static_cast<uint64_t>(here * 2 + smt));
              std::optional<Placement> other = RandomPlacementOnFree(topo, free, 4, rng);
              ASSERT_TRUE(other.has_value()) << context;
              ExpectWithinAmdahlBound(
                  engine, {{&desc, placement}, {&DescOn(machine, "Swim"), *other}},
                  context + " + Swim");
            }
          }
        }
      }
    }
  }
}

TEST(CoScheduleDeath, RejectsEmptyRequests) {
  const CoSchedulePredictor engine(X3().description());
  EXPECT_DEATH(engine.Predict({}), "PANDIA_CHECK");
}

}  // namespace
}  // namespace pandia
