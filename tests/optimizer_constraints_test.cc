#include <gtest/gtest.h>

#include "src/machine_desc/generator.h"
#include "src/predictor/optimizer.h"
#include "src/sim/machine.h"
#include "src/sim/machine_spec.h"
#include "src/topology/enumerate.h"

namespace pandia {
namespace {

const MachineDescription& X3Desc() {
  static const MachineDescription desc = [] {
    const sim::Machine machine{sim::MakeX3_2()};
    return GenerateMachineDescription(machine);
  }();
  return desc;
}

WorkloadDescription ScalableWorkload() {
  WorkloadDescription desc;
  desc.workload = "scalable";
  desc.machine = "x3-2";
  desc.t1 = 100.0;
  desc.demands = ResourceDemandVector{3.0, 30.0, 6.0, 2.0, 0.5, 0.0};
  desc.memory_policy = MemoryPolicy::kLocal;
  desc.parallel_fraction = 0.999;
  desc.inter_socket_overhead = 0.001;
  desc.load_balance = 0.9;
  desc.burstiness = 0.1;
  return desc;
}

TEST(OptimizerConstraints, NoSmtExcludesDoubledCores) {
  const Predictor predictor(X3Desc(), ScalableWorkload());
  OptimizerOptions options;
  options.constraint = NoSmtConstraint();
  const RankedPlacement best = FindBestPlacement(predictor, options);
  for (const SocketLoad& load : best.placement.SocketLoads()) {
    EXPECT_EQ(load.doubles, 0);
  }
  // A scalable workload still uses every core.
  EXPECT_EQ(best.placement.TotalThreads(), X3Desc().topo.NumCores());
}

TEST(OptimizerConstraints, NoSmtMatchesTheSocketLoadDefinition) {
  // NoSmtConstraint reads per-core counts; its definition is "no socket
  // load has a doubled core".
  const auto no_smt = NoSmtConstraint();
  for (const sim::MachineSpec& spec : {sim::MakeX3_2(), sim::MakeX5_2()}) {
    size_t admitted = 0;
    for (const Placement& placement : EnumerateCanonicalPlacements(spec.topo)) {
      bool doubles = false;
      for (const SocketLoad& load : placement.SocketLoads()) {
        doubles = doubles || load.doubles > 0;
      }
      ASSERT_EQ(no_smt(placement), !doubles) << placement.ToString();
      admitted += doubles ? 0 : 1;
    }
    // Singles-only multisets of two sockets' loads, minus the empty one.
    const size_t loads = static_cast<size_t>(spec.topo.cores_per_socket) + 1;
    EXPECT_EQ(admitted, loads * (loads + 1) / 2 - 1) << spec.topo.name;
  }
}

TEST(OptimizerConstraints, MaxSocketsKeepsPlacementLocal) {
  const Predictor predictor(X3Desc(), ScalableWorkload());
  OptimizerOptions options;
  options.constraint = MaxSocketsConstraint(1);
  const RankedPlacement best = FindBestPlacement(predictor, options);
  EXPECT_EQ(best.placement.NumActiveSockets(), 1);
  // Unconstrained search must do at least as well.
  const RankedPlacement unconstrained = FindBestPlacement(predictor);
  EXPECT_GE(unconstrained.prediction.speedup, best.prediction.speedup - 1e-9);
}

TEST(OptimizerConstraints, MaxThreadsIsRespected) {
  const Predictor predictor(X3Desc(), ScalableWorkload());
  OptimizerOptions options;
  options.constraint = MaxThreadsConstraint(6);
  const RankedPlacement best = FindBestPlacement(predictor, options);
  EXPECT_LE(best.placement.TotalThreads(), 6);
  EXPECT_GE(best.placement.TotalThreads(), 5);  // scalable: uses what it may
}

TEST(OptimizerConstraints, ConstraintsCompose) {
  const Predictor predictor(X3Desc(), ScalableWorkload());
  OptimizerOptions options;
  options.constraint = [](const Placement& p) {
    return NoSmtConstraint()(p) && MaxSocketsConstraint(1)(p);
  };
  const RankedPlacement best = FindBestPlacement(predictor, options);
  EXPECT_EQ(best.placement.NumActiveSockets(), 1);
  EXPECT_LE(best.placement.TotalThreads(), X3Desc().topo.cores_per_socket);
}

TEST(OptimizerConstraintsDeath, UnsatisfiableConstraintAborts) {
  const Predictor predictor(X3Desc(), ScalableWorkload());
  OptimizerOptions options;
  options.constraint = [](const Placement&) { return false; };
  EXPECT_DEATH(FindBestPlacement(predictor, options), "constraint");
}

TEST(OptimizerConstraintsDeath, InvalidBoundsAbort) {
  EXPECT_DEATH(MaxSocketsConstraint(0), "PANDIA_CHECK");
  EXPECT_DEATH(MaxThreadsConstraint(-1), "PANDIA_CHECK");
}

}  // namespace
}  // namespace pandia
