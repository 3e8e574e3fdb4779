// Shared pieces of the benchmark binary: run options, timing, statistics,
// the output digest, result reporting, and per-layer self-time accounting
// over a benchmark-owned obs::Tracer.
#ifndef PANDIA_PERFBENCH_COMMON_H_
#define PANDIA_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Traced runs write the Chrome trace_event JSON here (empty: not written).
  std::string trace_out;
  // Working directory for journals and the event log.
  std::string work_dir = ".";
  // Fixed operation count instead of a time bound (tests and the expected
  // digests). 0: run for `seconds`.
  int64_t ops = 0;
};

// Set-up repetitions of an end-to-end run; setup_s is their median. Half
// run before the timed phase (the last of them is the one measured) and
// half after it, so the median samples the host at both ends of the run.
constexpr int kSetUps = 8;

int64_t NowNs();

// Incremental FNV-1a 64 over response bytes.
class Digest {
 public:
  void Update(std::string_view bytes);
  std::string Hex() const;

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

// Linear-interpolated quantile of `values` (copied and sorted), q in [0, 1].
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// Seeded permutation of [0, n).
std::vector<int> Permutation(pandia::Rng& rng, int n);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // Observations behind the value (printed by traced runs; 0 for values
  // that are not sample statistics).
  uint64_t samples = 0;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable lines printed before the JSON result line.
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit, uint64_t samples = 0) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), samples});
  }
  // Marks the run incorrect and records why.
  void Fail(const std::string& why);
};

// Prints notes, a metric table when `table` is set, and the final JSON line.
void PrintResult(const Result& result, bool table);

// Self time (span duration minus the part its direct children cover) per
// span name, plus per-root attribution: for every depth-0 span, the self
// time of each layer nested under it.
struct LayerTotal {
  double self_ns = 0.0;
  uint64_t count = 0;
};
struct RootBreakdown {
  std::string name;
  double dur_ns = 0.0;
  double self_ns = 0.0;  // time in the root not covered by any layer span
  std::map<std::string, double> layer_self_ns;
};
struct SpanAccounting {
  std::map<std::string, LayerTotal> layers;  // non-root spans
  std::vector<RootBreakdown> roots;
};
SpanAccounting AccountSpans(const std::vector<pandia::obs::TraceEvent>& events);

// Registry counter deltas across a measured phase.
class CounterDeltas {
 public:
  CounterDeltas();  // snapshots every counter now
  uint64_t Delta(const std::string& name) const;

 private:
  std::map<std::string, uint64_t> start_;
};

// Writes `text` to `path`; false on failure.
bool WriteFile(const std::string& path, const std::string& text);
// Reads `path` whole; empty on failure.
std::string ReadFile(const std::string& path);

}  // namespace perfbench

#endif  // PANDIA_PERFBENCH_COMMON_H_
