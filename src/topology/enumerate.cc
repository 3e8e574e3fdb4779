#include "src/topology/enumerate.h"

#include <algorithm>
#include <memory>
#include <set>

#include "src/util/check.h"
#include "src/util/mutex.h"
#include "src/util/rng.h"
#include "src/util/thread_annotations.h"

namespace pandia {
namespace {

// Canonical socket order: busiest socket first, ties broken by more doubles.
bool SocketLoadGreater(const SocketLoad& a, const SocketLoad& b) {
  if (a.Threads() != b.Threads()) {
    return a.Threads() > b.Threads();
  }
  return a.doubles > b.doubles;
}

Placement MakeCanonical(const MachineTopology& topo, std::vector<SocketLoad> loads) {
  std::sort(loads.begin(), loads.end(), SocketLoadGreater);
  return Placement::FromSocketLoads(topo, loads);
}

// Recursively emits multisets of socket loads as non-increasing sequences of
// indices into `loads`.
void EmitMultisets(const MachineTopology& topo, const std::vector<SocketLoad>& loads,
                   std::vector<SocketLoad>& current, size_t max_index, int socket,
                   std::vector<Placement>& out) {
  if (socket == topo.num_sockets) {
    Placement placement = MakeCanonical(topo, current);
    if (placement.TotalThreads() > 0) {
      out.push_back(std::move(placement));
    }
    return;
  }
  for (size_t i = 0; i <= max_index; ++i) {
    current[socket] = loads[i];
    EmitMultisets(topo, loads, current, i, socket + 1, out);
  }
}

// Process-wide CanonicalPlacements() memo. Entries own their vectors
// through unique_ptr, so a returned reference survives later insertions.
struct PlacementMemo {
  struct Entry {
    MachineTopology topo;
    std::unique_ptr<const std::vector<Placement>> placements;
  };
  util::Mutex mu{"topology.placement_memo", util::kLockRankTopologyPlacementMemo};
  std::vector<Entry> entries PANDIA_GUARDED_BY(mu);
};

PlacementMemo& Memo() {
  static PlacementMemo* memo = new PlacementMemo;
  return *memo;
}

uint64_t MultisetCount(uint64_t options, int slots) {
  // C(options + slots - 1, slots)
  uint64_t result = 1;
  for (int i = 1; i <= slots; ++i) {
    result = result * (options + static_cast<uint64_t>(slots - i)) /
             static_cast<uint64_t>(i);
  }
  return result;
}

}  // namespace

std::vector<SocketLoad> EnumerateSocketLoads(const MachineTopology& topo) {
  std::vector<SocketLoad> loads;
  const int max_doubles = topo.threads_per_core >= 2 ? topo.cores_per_socket : 0;
  for (int doubles = 0; doubles <= max_doubles; ++doubles) {
    for (int singles = 0; singles + doubles <= topo.cores_per_socket; ++singles) {
      loads.push_back(SocketLoad{singles, doubles});
    }
  }
  return loads;
}

uint64_t CountCanonicalPlacements(const MachineTopology& topo) {
  const uint64_t options = EnumerateSocketLoads(topo).size();
  return MultisetCount(options, topo.num_sockets) - 1;  // minus the empty placement
}

std::vector<Placement> EnumerateCanonicalPlacements(const MachineTopology& topo) {
  const std::vector<SocketLoad> loads = EnumerateSocketLoads(topo);
  std::vector<Placement> out;
  out.reserve(CountCanonicalPlacements(topo));
  std::vector<SocketLoad> current(static_cast<size_t>(topo.num_sockets));
  EmitMultisets(topo, loads, current, loads.size() - 1, 0, out);
  std::sort(out.begin(), out.end(), Placement::PaperOrderLess);
  return out;
}

const std::vector<Placement>& CanonicalPlacements(const MachineTopology& topo) {
  PlacementMemo& memo = Memo();
  // Enumerating under the lock makes concurrent first calls for one
  // topology build it once; every later call is a short scan.
  util::MutexLock lock(memo.mu);
  for (const PlacementMemo::Entry& entry : memo.entries) {
    if (entry.topo == topo) {
      return *entry.placements;
    }
  }
  memo.entries.push_back(PlacementMemo::Entry{
      topo, std::make_unique<const std::vector<Placement>>(
                EnumerateCanonicalPlacements(topo))});
  return *memo.entries.back().placements;
}

std::vector<Placement> SampleCanonicalPlacements(
    const MachineTopology& topo, size_t count, uint64_t seed,
    const std::function<bool(const Placement&)>& filter) {
  const std::vector<SocketLoad> loads = EnumerateSocketLoads(topo);
  Rng rng(HashCombine(seed, 0x706c6163656d656eULL));
  std::set<std::vector<uint8_t>> seen;
  std::vector<Placement> out;
  // Bounded attempts: the filter may admit fewer than `count` placements.
  const size_t max_attempts = count * 400 + 10000;
  for (size_t attempt = 0; attempt < max_attempts && out.size() < count; ++attempt) {
    std::vector<SocketLoad> chosen(static_cast<size_t>(topo.num_sockets));
    for (auto& load : chosen) {
      load = loads[rng.NextBounded(loads.size())];
    }
    Placement placement = MakeCanonical(topo, std::move(chosen));
    if (placement.TotalThreads() == 0) {
      continue;
    }
    if (filter && !filter(placement)) {
      continue;
    }
    if (seen.insert(placement.PerCore()).second) {
      out.push_back(std::move(placement));
    }
  }
  std::sort(out.begin(), out.end(), Placement::PaperOrderLess);
  return out;
}

std::vector<Placement> CompactSweep(const MachineTopology& topo) {
  std::vector<Placement> out;
  out.reserve(static_cast<size_t>(topo.NumHwThreads()));
  for (int n = 1; n <= topo.NumHwThreads(); ++n) {
    out.push_back(Placement::TwoPerCore(topo, n));
  }
  return out;
}

std::vector<Placement> SpreadSweep(const MachineTopology& topo) {
  std::vector<Placement> out;
  out.reserve(static_cast<size_t>(topo.NumHwThreads()));
  for (int n = 1; n <= topo.NumHwThreads(); ++n) {
    std::vector<SocketLoad> loads(static_cast<size_t>(topo.num_sockets));
    for (int s = 0; s < topo.num_sockets; ++s) {
      // Balanced split: the first (n % sockets) sockets carry one extra.
      int threads = n / topo.num_sockets + (s < n % topo.num_sockets ? 1 : 0);
      if (threads <= topo.cores_per_socket) {
        loads[s] = SocketLoad{threads, 0};
      } else {
        const int doubles = threads - topo.cores_per_socket;
        loads[s] = SocketLoad{topo.cores_per_socket - doubles, doubles};
      }
    }
    out.push_back(Placement::FromSocketLoads(topo, loads));
  }
  return out;
}

}  // namespace pandia
