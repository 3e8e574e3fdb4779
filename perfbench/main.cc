// perfbench: the repository's benchmark, one workload per process.
//
//   perfbench --workload advise|serve_churn|serve_packed --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//             [--work-dir DIR] [--ops N]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that splits the time by layer. --ops replaces the
// time bound with a fixed step count (tests and expected digests). The last
// line of standard output is one JSON object: correct, attempted, failed and
// metrics. Lines before it start with '#'. A run whose output check fails,
// or in which any operation failed, exits with status 1.
//
// Noise hygiene: the process pins itself to one CPU, every fan-out runs
// with jobs=1 (PANDIA_JOBS is ignored), the event log goes to a file in the
// work directory, and any build but Release is refused.
#include <sched.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>

#include "perfbench/workloads.h"
#include "src/obs/log.h"
#include "src/util/strings.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric a traced run reports, in report order.
constexpr LayerMetric kLayerMetrics[] = {
    {"topology.enumerate_ms", "ms"},
    {"predictor.predict_us", "us"},
    {"cache.hit_us", "us"},
    {"optimizer.overhead_ms", "ms"},
    {"advice_ms", "ms"},
    {"wire.parse_us", "us"},
    {"desc.decode_us", "us"},
    {"desc.format_us", "us"},
    {"wire.format_us", "us"},
    {"journal.append_us", "us"},
    {"journal.compact_ms", "ms"},
    {"fleet.route_us", "us"},
    {"rack.save_state_us", "us"},
    {"rack.admit_us", "us"},
    {"rack.depart_us", "us"},
    {"rack.replace_probe_us", "us"},
    {"rack.telemetry_us", "us"},
    {"service.accounting_us", "us"},
    {"service.admit_us", "us"},
    {"service.depart_us", "us"},
    {"service.telemetry_us", "us"},
    {"layers.admit_coverage", "ratio"},
    {"layers.depart_coverage", "ratio"},
    {"cache.hit_ratio", "ratio"},
    {"cache.lookups", "count"},
    {"cache.evictions", "count"},
    {"predictor.iterations_per_predict", "iter"},
    {"predictor.predictions", "count"},
    {"optimizer.non_converged_ranked", "count"},
    {"fleet.admit_fallbacks", "count"},
    {"journal.compactions", "count"},
    {"journal.bytes_per_admit", "B"},
    {"rack.moves", "count"},
    {"trace.overhead", "ratio"},
};

void AddMissingLayerMetrics(Result& result) {
  std::vector<Metric> ordered;
  for (const LayerMetric& layer : kLayerMetrics) {
    Metric metric{layer.name, 0.0, layer.unit, 0};
    for (const Metric& measured : result.metrics) {
      if (measured.name == layer.name) {
        metric = measured;
      }
    }
    ordered.push_back(metric);
  }
  result.metrics = std::move(ordered);
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload advise|serve_churn|serve_packed "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] [--work-dir DIR] "
               "[--ops N]\n");
  return 2;
}

// Pins the process to the last CPU it may run on (CPU 0 takes most device
// interrupts). Returns the CPU, or -1.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) {
      continue;
    }
    cpu_set_t pin;
    CPU_ZERO(&pin);
    CPU_SET(cpu, &pin);
    if (sched_setaffinity(0, sizeof(pin), &pin) == 0) {
      return cpu;
    }
  }
  return -1;
}

std::string FileSystemName(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext4";
    case 0x794c7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default:
      return pandia::StrFormat("0x%lx", static_cast<unsigned long>(info.f_type));
  }
}

bool ParseNumber(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (!ParseNumber(value, number) || number < 0.0) {
      return Usage();
    } else if (flag == "--seed") {
      options.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      options.seconds = number;
    } else if (flag == "--trace") {
      options.trace = number != 0.0;
      have_trace = true;
    } else if (flag == "--ops") {
      options.ops = static_cast<int64_t>(number);
    } else {
      return Usage();
    }
  }
  const std::set<std::string> known = {"advise", "serve_churn", "serve_packed"};
  if (!known.count(options.workload) || !have_trace ||
      (options.seconds <= 0.0 && options.ops == 0)) {
    return Usage();
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to time a %s build; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  std::error_code error;
  std::filesystem::create_directories(options.work_dir, error);
  const std::string log_path = options.work_dir + "/events.log";
  std::FILE* log = std::fopen(log_path.c_str(), "w");
  if (log == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", log_path.c_str());
    return 1;
  }
  pandia::obs::EventLog::Global().SetStream(log);
  const int cpu = PinToOneCpu();

  Result result = options.workload == "advise" ? RunAdvise(options) : RunServe(options);

  pandia::obs::EventLog::Global().SetStream(nullptr);
  std::fclose(log);
  result.notes.insert(
      result.notes.begin(),
      pandia::StrFormat("workload %s seed %llu trace %d; nproc %ld, pinned cpu %d, build "
                        "%s, journal filesystem %s",
                        options.workload.c_str(),
                        static_cast<unsigned long long>(options.seed),
                        options.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), cpu,
                        PERFBENCH_BUILD_TYPE, FileSystemName(options.work_dir).c_str()));
  if (result.failed > 0) {
    result.Fail(pandia::StrFormat("%llu of %llu operations failed",
                                  static_cast<unsigned long long>(result.failed),
                                  static_cast<unsigned long long>(result.attempted)));
  }
  PrintResult(result, options.trace);
  return result.correct ? 0 : 1;
}
