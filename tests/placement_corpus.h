// Placements shared by the solver and rack tests: an edge-case corpus whose
// shapes exercise every solver term (burstiness, communication, balancing,
// DRAM routing) on any topology, and seeded random placements on the free
// hardware threads of a partly occupied machine.
#ifndef PANDIA_TESTS_PLACEMENT_CORPUS_H_
#define PANDIA_TESTS_PLACEMENT_CORPUS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/topology/placement.h"
#include "src/util/rng.h"

namespace pandia {

// Singleton, one socket spread, full spread, full SMT, and (multi-socket
// machines) an asymmetric two-socket split.
inline std::vector<Placement> PlacementCorpus(const MachineTopology& topo) {
  std::vector<Placement> corpus;
  corpus.push_back(Placement::OnePerCore(topo, 1));
  corpus.push_back(Placement::OnePerCore(topo, topo.cores_per_socket));
  corpus.push_back(Placement::OnePerCore(topo, topo.NumCores()));
  corpus.push_back(Placement::TwoPerCore(topo, 2 * topo.NumCores()));
  if (topo.num_sockets >= 2) {
    std::vector<SocketLoad> lopsided(static_cast<size_t>(topo.num_sockets));
    lopsided[0] = SocketLoad{topo.cores_per_socket, 0};
    lopsided[1] = SocketLoad{1, 0};
    corpus.push_back(Placement::FromSocketLoads(topo, lopsided));
  }
  return corpus;
}

// `threads` threads on hardware threads drawn uniformly from `free` (free
// slots per core), which is updated to mark them taken; nullopt when fewer
// than `threads` slots are free or `threads` is not positive.
inline std::optional<Placement> RandomPlacementOnFree(const MachineTopology& topo,
                                                      std::vector<uint8_t>& free,
                                                      int threads, Rng& rng) {
  std::vector<int> slots;  // one entry per free hardware thread
  for (int c = 0; c < topo.NumCores(); ++c) {
    for (int k = 0; k < free[c]; ++k) {
      slots.push_back(c);
    }
  }
  if (threads <= 0 || static_cast<int>(slots.size()) < threads) {
    return std::nullopt;
  }
  std::vector<uint8_t> per_core(static_cast<size_t>(topo.NumCores()), 0);
  for (int t = 0; t < threads; ++t) {
    const size_t pick = rng.NextBounded(slots.size());
    ++per_core[slots[pick]];
    --free[slots[pick]];
    slots[pick] = slots.back();
    slots.pop_back();
  }
  return Placement(topo, std::move(per_core));
}

}  // namespace pandia

#endif  // PANDIA_TESTS_PLACEMENT_CORPUS_H_
