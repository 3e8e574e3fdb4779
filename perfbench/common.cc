#include "perfbench/common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "src/util/strings.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Digest::Update(std::string_view bytes) {
  for (const char c : bytes) {
    hash_ ^= static_cast<uint8_t>(c);
    hash_ *= 1099511628211ULL;
  }
}

std::string Digest::Hex() const {
  return pandia::StrFormat("%016llx", static_cast<unsigned long long>(hash_));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t below = static_cast<size_t>(std::floor(position));
  const size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + (values[above] - values[below]) * fraction;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::vector<int> Permutation(pandia::Rng& rng, int n) {
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    const int j = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(i) + 1));
    std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(j)]);
  }
  return order;
}

void Result::Fail(const std::string& why) {
  correct = false;
  notes.push_back("FAIL " + why);
}

void PrintResult(const Result& result, bool table) {
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  if (table) {
    std::printf("# %-36s %16s %-6s %10s\n", "metric", "value", "unit", "samples");
    for (const Metric& metric : result.metrics) {
      std::printf("# %-36s %16.6f %-6s %10llu\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str(),
                  static_cast<unsigned long long>(metric.samples));
    }
  }
  std::string json = pandia::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    json += pandia::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                              i > 0 ? ", " : "", metric.name.c_str(), value,
                              metric.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

SpanAccounting AccountSpans(const std::vector<pandia::obs::TraceEvent>& events) {
  // Events arrive in completion order (children before parents); replay
  // them in start order with a depth stack so each span finds its parent.
  std::vector<const pandia::obs::TraceEvent*> ordered;
  ordered.reserve(events.size());
  for (const pandia::obs::TraceEvent& event : events) {
    ordered.push_back(&event);
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const pandia::obs::TraceEvent* a, const pandia::obs::TraceEvent* b) {
                     if (a->tid != b->tid) {
                       return a->tid < b->tid;
                     }
                     if (a->start_ns != b->start_ns) {
                       return a->start_ns < b->start_ns;
                     }
                     return a->depth < b->depth;
                   });
  struct Open {
    const pandia::obs::TraceEvent* event;
    double child_ns;
    size_t root;  // index into accounting.roots
  };
  SpanAccounting accounting;
  std::vector<Open> stack;
  const auto close = [&](const Open& open) {
    const double self = static_cast<double>(open.event->dur_ns) - open.child_ns;
    RootBreakdown& root = accounting.roots[open.root];
    if (open.event->depth == 0) {
      root.self_ns = self;
      return;
    }
    LayerTotal& total = accounting.layers[open.event->name];
    total.self_ns += self;
    ++total.count;
    root.layer_self_ns[open.event->name] += self;
  };
  uint32_t tid = 0;
  for (const pandia::obs::TraceEvent* event : ordered) {
    if (event->tid != tid) {
      while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
      }
      tid = event->tid;
    }
    while (!stack.empty() && stack.back().event->depth >= event->depth) {
      close(stack.back());
      stack.pop_back();
    }
    size_t root = accounting.roots.size();
    if (event->depth == 0 || stack.empty()) {
      accounting.roots.push_back(
          RootBreakdown{event->name, static_cast<double>(event->dur_ns), 0.0, {}});
    } else {
      stack.back().child_ns += static_cast<double>(event->dur_ns);
      root = stack.back().root;
    }
    stack.push_back(Open{event, 0.0, root});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  return accounting;
}

CounterDeltas::CounterDeltas() {
  for (const auto& counter : pandia::obs::MetricsRegistry::Global().Snapshot().counters) {
    start_[counter.name] = counter.value;
  }
}

uint64_t CounterDeltas::Delta(const std::string& name) const {
  const uint64_t now = pandia::obs::MetricsRegistry::Global().counter(name).value();
  const auto it = start_.find(name);
  return now - (it == start_.end() ? 0 : it->second);
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace perfbench
