// The serving workloads: request lines through serve::FleetService, the
// dispatcher `pandia_serve --shards` runs, in one process with one calling
// thread. There is no socket and no second connection: the model is a
// closed loop with one client, since a cluster scheduler waits for each
// admission reply before it sends the next.
//
//   serve_churn   4 x x3-2 machines in 2 shards, consistent-hash routing.
//                 Each step admits a suite job of 1-4 threads, then departs
//                 the oldest job once 4 are resident. Per-request fixed
//                 costs dominate.
//   serve_packed  32 x x3-2 machines in 2 shards, least-loaded routing (so
//                 neither shard drifts to full), prefilled to exactly 256
//                 residents (about two thirds of 1,024 hardware threads).
//                 Each step departs the oldest job and admits a new one. The
//                 O(rack) costs dominate.
//
// Both send a TELEMETRY read (the pandia_top poll) after every 16th
// mutation. Descriptions come from profiling the 22-workload suite on x3-2;
// the job stream is stratified (every 22 jobs name every description once,
// every 6 jobs draw the thread mix below, in seeded order) so every seed
// runs the same mix. The journal is written with --sync=none under the
// run's work directory.
//
// The traced run drives the same requests through FleetService::HandleLine
// (the server-side time per request) and through FleetReplica, which
// performs the service's steps by calling each layer's public function
// inside a span. The two run in lock-step, one request at a time, in two
// processes. Every response block and the shard journals must come out
// byte-identical, which is what shows the layer split is faithful.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <sstream>

#include "perfbench/workloads.h"
#include "src/eval/pipeline.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/log.h"
#include "src/predictor/co_schedule.h"
#include "src/predictor/prediction_cache.h"
#include "src/rack/fleet.h"
#include "src/rack/rack.h"
#include "src/serialize/serialize.h"
#include "src/serialize/wire.h"
#include "src/serve/fleet_service.h"
#include "src/serve/journal.h"
#include "src/topology/resource_index.h"
#include "src/util/strings.h"
#include "src/workloads/workloads.h"

namespace perfbench {
namespace {

using namespace pandia;

struct Shape {
  const char* name;
  int machines;
  int shards;
  rack::ShardPolicy policy;
  int residents;       // resident jobs after every step
  bool depart_first;   // step order: DEPART then ADMIT, or ADMIT then DEPART
  int warmup_steps;    // untimed steps at the end of set-up
  int64_t max_steps;   // stream length for time-bounded runs
  int64_t traced_steps;  // steps of a traced run
  int64_t golden_steps;
  const char* golden_digest;
};

constexpr int kTelemetryEvery = 16;  // mutations per TELEMETRY read
// Thread counts of every 6 consecutive jobs, in seeded order. One mode
// holds the median and another the 90th percentile, so neither admit
// quantile sits on the boundary between two thread counts.
constexpr int kThreadMix[] = {1, 2, 3, 3, 3, 4};
constexpr int kThreadMixSize = 6;
constexpr uint64_t kGoldenSeed = 20170423;

const Shape kShapes[] = {
    {"serve_churn", 4, 2, rack::ShardPolicy::kConsistentHash, 3, false, 2000, 2000000, 5000,
     400, "b99e4536c35db1af"},
    {"serve_packed", 32, 2, rack::ShardPolicy::kLeastLoaded, 256, true, 64, 400000, 800, 48,
     "a7cdc05ac36e520f"},
};

const Shape* ShapeByName(const std::string& name) {
  for (const Shape& shape : kShapes) {
    if (name == shape.name) {
      return &shape;
    }
  }
  return nullptr;
}

// Layer span names. Each is a layer boundary the replica records.
constexpr const char* kWireParse = "wire.parse";
constexpr const char* kDescDecode = "desc.decode";
constexpr const char* kDescFormat = "desc.format";
constexpr const char* kWireFormat = "wire.format";
constexpr const char* kJournalAppend = "journal.append";
constexpr const char* kJournalCompact = "journal.compact";
constexpr const char* kFleetRoute = "fleet.route";
constexpr const char* kSaveState = "rack.save_state";
constexpr const char* kRackAdmit = "rack.admit";
constexpr const char* kRackDepart = "rack.depart";
constexpr const char* kReplaceProbe = "rack.replace_probe";
constexpr const char* kRackTelemetry = "rack.telemetry";
constexpr const char* kAccounting = "service.accounting";

// ---------------------------------------------------------------------------
// The job stream.

struct JobSpec {
  int workload = 0;
  int threads = 1;
};

std::vector<JobSpec> JobStream(uint64_t seed, size_t count, int workloads) {
  Rng rng(seed);
  std::vector<int> workload_order;
  std::vector<int> thread_order;
  std::vector<JobSpec> jobs;
  jobs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (i % static_cast<size_t>(workloads) == 0) {
      workload_order = Permutation(rng, workloads);
    }
    if (i % kThreadMixSize == 0) {
      thread_order = Permutation(rng, kThreadMixSize);
    }
    jobs.push_back(JobSpec{workload_order[i % static_cast<size_t>(workloads)],
                           kThreadMix[thread_order[i % kThreadMixSize]]});
  }
  return jobs;
}

// Renders request lines for the stream; the ADMIT suffix (the description
// document dominates the line) is escaped once per description.
class Requests {
 public:
  Requests(uint64_t seed, std::vector<JobSpec> jobs, std::vector<std::string> suffixes)
      : seed_(seed), jobs_(std::move(jobs)), suffixes_(std::move(suffixes)) {}

  size_t size() const { return jobs_.size(); }
  std::string Name(size_t job) const {
    return StrFormat("s%llu-j%zu", static_cast<unsigned long long>(seed_), job);
  }
  std::string Admit(size_t job) const {
    const JobSpec& spec = jobs_[job];
    return StrFormat("ADMIT name=%s threads=%d", Name(job).c_str(), spec.threads) +
           suffixes_[static_cast<size_t>(spec.workload)];
  }
  std::string Depart(size_t job) const { return "DEPART name=" + Name(job); }
  // Digest of the first `count` jobs: name, description and thread count.
  std::string StreamDigest(size_t count) const {
    Digest digest;
    for (size_t job = 0; job < count && job < jobs_.size(); ++job) {
      digest.Update(StrFormat("%s %d %d;", Name(job).c_str(), jobs_[job].workload,
                              jobs_[job].threads));
    }
    return digest.Hex();
  }

 private:
  uint64_t seed_;
  std::vector<JobSpec> jobs_;
  std::vector<std::string> suffixes_;
};

// ---------------------------------------------------------------------------
// The layer-by-layer replica of FleetService + PlacementService.

StatusOr<int> ParseInt(const std::string& value, const char* what) {
  char* end = nullptr;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || parsed < -1000000000L || parsed > 1000000000L) {
    return Status::InvalidArgument(StrFormat(
        "parameter '%s' must be an integer, got '%s'", what, value.c_str()));
  }
  return static_cast<int>(parsed);
}

std::string BottleneckName(const MachineTopology& topo, const Prediction& prediction) {
  int bottleneck = -1;
  double worst = -1.0;
  for (const ThreadPrediction& thread : prediction.threads) {
    if (thread.overall_slowdown > worst) {
      worst = thread.overall_slowdown;
      bottleneck = thread.bottleneck;
    }
  }
  return bottleneck < 0 ? "none" : ResourceIndex(topo).Name(bottleneck);
}

struct VerbInstruments {
  obs::Counter* requests;
  obs::Counter* errors;
  obs::Histogram* latency_us;
};

class FleetReplica {
 public:
  FleetReplica(std::vector<rack::RackMachine> machines, const serve::FleetOptions& options,
               obs::Tracer& tracer)
      : options_(options.service),
        fleet_(options.shards, options.shard_policy),
        tracer_(tracer) {
    std::vector<std::vector<rack::RackMachine>> per_shard(
        static_cast<size_t>(options.shards));
    for (size_t i = 0; i < machines.size(); ++i) {
      per_shard[i % per_shard.size()].push_back(std::move(machines[i]));
    }
    for (size_t k = 0; k < per_shard.size(); ++k) {
      auto shard = std::make_unique<Shard>(std::move(per_shard[k]), options_.prediction);
      StatusOr<serve::Journal> journal = serve::Journal::Open(
          StrFormat("%s.shard%zu", options_.journal_path.c_str(), k), options_.journal);
      PANDIA_CHECK_MSG(journal.ok(), journal.status().message().c_str());
      shard->journal = std::make_unique<serve::Journal>(std::move(*journal));
      shards_.push_back(std::move(shard));
    }
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    for (const auto& [verb, stem] : std::initializer_list<std::pair<const char*, const char*>>{
             {"ADMIT", "admit"}, {"DEPART", "depart"}, {"TELEMETRY", "telemetry"},
             {"STATUS", "status"}}) {
      const std::string prefix = std::string("serve.") + stem;
      instruments_[verb] = VerbInstruments{
          &registry.counter(prefix + ".requests"), &registry.counter(prefix + ".errors"),
          &registry.histogram(prefix + ".latency_us", obs::ExponentialBounds(1, 2, 20))};
    }
  }

  std::string HandleLine(const std::string& line) {
    const std::string root = "request." + line.substr(0, line.find(' '));
    const obs::TraceSpan span(tracer_, root);
    StatusOr<wire::Request> request = [&] {
      const obs::TraceSpan parse(tracer_, kWireParse);
      return wire::ParseRequest(line);
    }();
    if (!request.ok()) {
      return wire::FormatResponse(wire::Response::Failure(request.status()));
    }
    wire::Response response = Dispatch(*request);
    const obs::TraceSpan format(tracer_, kWireFormat);
    return wire::FormatResponse(response);
  }

  const rack::Rack& rack(size_t shard) const { return shards_[shard]->rack; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  // Shard and machine of the last successful admission.
  std::pair<int, int> last_admit() const { return last_admit_; }

 private:
  struct Shard {
    Shard(std::vector<rack::RackMachine> machines, const PredictionOptions& prediction)
        : rack(std::move(machines), prediction) {}
    rack::Rack rack;
    std::unique_ptr<serve::Journal> journal;
    obs::FlightRecorder recorder{256};
  };

  // FleetService::Dispatch, for the verbs the workloads send.
  wire::Response Dispatch(const wire::Request& request) {
    if (request.verb == "ADMIT") {
      return RouteAdmit(request);
    }
    if (request.verb == "DEPART") {
      return RouteDepart(request);
    }
    if (request.verb == "STATUS" || request.verb == "TELEMETRY") {
      return FanOut(request);
    }
    return wire::Response::Failure(Status::InvalidArgument(
        StrFormat("the replica does not serve '%s'", request.verb.c_str())));
  }

  wire::Response RouteAdmit(const wire::Request& request) {
    std::vector<int> order;
    {
      const obs::TraceSpan span(tracer_, kFleetRoute);
      const std::string* name = request.Find("name");
      if (name == nullptr || name->empty()) {
        return ShardHandle(0, request);
      }
      for (size_t k = 0; k < shards_.size(); ++k) {
        if (shards_[k]->rack.Has(*name)) {
          return wire::Response::Failure(Status::FailedPrecondition(StrFormat(
              "a job named '%s' is already resident (shard %zu)", name->c_str(), k)));
        }
      }
      std::vector<rack::ShardLoad> loads;
      for (const std::unique_ptr<Shard>& shard : shards_) {
        rack::ShardLoad load;
        for (size_t m = 0; m < shard->rack.machines().size(); ++m) {
          load.free_threads += shard->rack.FreeThreadCount(static_cast<int>(m));
        }
        load.jobs = shard->rack.JobCount();
        loads.push_back(load);
      }
      order = fleet_.ShardOrder(*name, loads);
    }
    std::optional<wire::Response> first_failure;
    for (size_t attempt = 0; attempt < order.size(); ++attempt) {
      const int k = order[attempt];
      wire::Response response = ShardHandle(static_cast<size_t>(k), request);
      if (response.ok) {
        if (attempt > 0) {
          fallbacks_.Increment();
        }
        response.payload.push_back(StrFormat("shard = %d", k));
        last_admit_.first = k;
        return response;
      }
      const bool try_next = response.code == StatusCode::kFailedPrecondition ||
                            response.code == StatusCode::kNotFound;
      if (!try_next) {
        return response;
      }
      if (!first_failure.has_value()) {
        first_failure = std::move(response);
      }
    }
    return *std::move(first_failure);
  }

  wire::Response RouteDepart(const wire::Request& request) {
    std::optional<size_t> target;
    {
      const obs::TraceSpan span(tracer_, kFleetRoute);
      if (const std::string* name = request.Find("name")) {
        for (size_t k = 0; k < shards_.size() && !target.has_value(); ++k) {
          if (shards_[k]->rack.Has(*name)) {
            target = k;
          }
        }
      }
    }
    if (!target.has_value()) {
      return ShardHandle(0, request);
    }
    wire::Response response = ShardHandle(*target, request);
    if (response.ok) {
      response.payload.push_back(StrFormat("shard = %zu", *target));
    }
    return response;
  }

  wire::Response FanOut(const wire::Request& request) {
    wire::Response aggregate = wire::Response::Success(request.verb);
    if (request.verb == "STATUS") {
      aggregate.payload.push_back(StrFormat("shards = %d", num_shards()));
      aggregate.payload.push_back(StrFormat(
          "shard-policy = %s", rack::ShardPolicyName(fleet_.policy()).c_str()));
    }
    for (size_t k = 0; k < shards_.size(); ++k) {
      wire::Response response = ShardHandle(k, request);
      if (!response.ok) {
        return response;
      }
      aggregate.payload.push_back(StrFormat("shard = %zu", k));
      for (std::string& row : response.payload) {
        aggregate.payload.push_back(std::move(row));
      }
    }
    return aggregate;
  }

  // PlacementService::Handle: dispatch, then the per-request accounting.
  wire::Response ShardHandle(size_t k, const wire::Request& request) {
    Shard& shard = *shards_[k];
    const int64_t start_ns = NowNs();
    wire::Response response = ShardDispatch(shard, request);
    const obs::TraceSpan span(tracer_, kAccounting);
    jobs_gauge_.Set(shard.rack.JobCount());
    int free = 0;
    for (size_t m = 0; m < shard.rack.machines().size(); ++m) {
      free += shard.rack.FreeThreadCount(static_cast<int>(m));
    }
    free_threads_gauge_.Set(free);
    live_ratio_gauge_.Set(LiveRatio(shard));
    const double latency_us = static_cast<double>(NowNs() - start_ns) / 1000.0;
    const VerbInstruments& instruments = instruments_.at(request.verb);
    instruments.requests->Increment();
    instruments.latency_us->Observe(latency_us);
    std::string detail = request.verb;
    if (const std::string* name = request.Find("name")) {
      detail += " name=" + wire::EscapeValue(*name);
    }
    if (!response.ok) {
      instruments.errors->Increment();
      detail += " " + wire::WireCodeName(response.code);
    }
    shard.recorder.Record("request", detail, response.ok);
    return response;
  }

  // PlacementService::Dispatch: the verb, then the compaction check.
  wire::Response ShardDispatch(Shard& shard, const wire::Request& request) {
    wire::Response response;
    const bool mutating = request.verb == "ADMIT" || request.verb == "DEPART";
    if (request.verb == "ADMIT") {
      response = HandleAdmit(shard, request);
    } else if (request.verb == "DEPART") {
      response = HandleDepart(shard, request);
    } else if (request.verb == "TELEMETRY") {
      response = HandleTelemetry(shard);
    } else {
      response = HandleStatus(shard);
    }
    if (response.ok && mutating &&
        shard.journal->records_since_snapshot() >= options_.compact_min_records &&
        LiveRatio(shard) < options_.compact_live_ratio) {
      const obs::TraceSpan span(tracer_, kJournalCompact);
      (void)CompactJournal(shard);
    }
    return response;
  }

  wire::Response HandleAdmit(Shard& shard, const wire::Request& request) {
    rack::JobRequest job;
    rack::Policy policy = options_.default_policy;
    {
      const obs::TraceSpan span(tracer_, kDescDecode);
      for (const auto& [key, value] : request.params) {
        if (key == "name") {
          job.name = value;
        } else if (key == "threads") {
          StatusOr<int> threads = ParseInt(value, "threads");
          if (!threads.ok()) {
            return wire::Response::Failure(threads.status());
          }
          job.requested_threads = *threads;
        } else if (key == "policy") {
          StatusOr<rack::Policy> parsed = rack::PolicyFromName(value);
          if (!parsed.ok()) {
            return wire::Response::Failure(parsed.status());
          }
          policy = *parsed;
        } else if (key.rfind("desc.", 0) == 0) {
          const std::string type = key.substr(5);
          StatusOr<WorkloadDescription> description = WorkloadDescriptionFromText(value);
          if (type.empty() || !description.ok()) {
            return wire::Response::Failure(Status::InvalidArgument(
                StrFormat("bad description parameter '%s'", key.c_str())));
          }
          job.descriptions.emplace(type, *std::move(description));
        } else {
          return wire::Response::Failure(Status::InvalidArgument(
              StrFormat("ADMIT does not take parameter '%s'", key.c_str())));
        }
      }
    }
    if (job.descriptions.empty()) {
      return wire::Response::Failure(Status::InvalidArgument(
          "ADMIT needs at least one desc.<machine-type> parameter"));
    }
    const rack::Rack::SavedState saved = [&] {
      const obs::TraceSpan span(tracer_, kSaveState);
      return shard.rack.SaveState();
    }();
    StatusOr<rack::Assignment> admitted = [&] {
      const obs::TraceSpan span(tracer_, kRackAdmit);
      return shard.rack.Admit(job, policy);
    }();
    if (!admitted.ok()) {
      return wire::Response::Failure(admitted.status());
    }
    const int machine_index = admitted->machine_index;
    const rack::RackMachine& machine = shard.rack.machines()[machine_index];
    wire::Request record;
    {
      const obs::TraceSpan span(tracer_, kDescFormat);
      record.verb = "ADMITTED";
      record.params.emplace_back("name", job.name);
      record.params.emplace_back("machine", StrFormat("%d", machine_index));
      record.params.emplace_back("placement", wire::PlacementToCsv(*admitted->placement));
      record.params.emplace_back(
          "desc", WorkloadDescriptionToText(
                      job.descriptions.at(machine.description.topo.name)));
    }
    if (Status journaled = AppendJournal(shard, record); !journaled.ok()) {
      (void)shard.rack.RestoreState(saved);
      return wire::Response::Failure(journaled);
    }
    last_admit_.second = machine_index;
    const obs::TraceSpan span(tracer_, kWireFormat);
    wire::Response response = wire::Response::Success("ADMIT");
    response.payload.push_back(StrFormat("machine = %d", machine_index));
    response.payload.push_back(
        StrFormat("machine-name = %s", wire::EscapeValue(machine.name).c_str()));
    response.payload.push_back(StrFormat(
        "placement = %s", wire::PlacementToCsv(*admitted->placement).c_str()));
    response.payload.push_back(
        StrFormat("threads = %d", admitted->placement->TotalThreads()));
    response.payload.push_back(StrFormat("speedup = %.6f", admitted->predicted_speedup));
    return response;
  }

  wire::Response HandleDepart(Shard& shard, const wire::Request& request) {
    const std::string* name = request.Find("name");
    if (name == nullptr || request.params.size() != 1) {
      return wire::Response::Failure(
          Status::InvalidArgument("DEPART takes exactly a name=<job> parameter"));
    }
    const rack::Rack::SavedState saved = [&] {
      const obs::TraceSpan span(tracer_, kSaveState);
      return shard.rack.SaveState();
    }();
    StatusOr<int> departed = [&] {
      const obs::TraceSpan span(tracer_, kRackDepart);
      return shard.rack.Depart(*name);
    }();
    if (!departed.ok()) {
      return wire::Response::Failure(departed.status());
    }
    wire::Request record;
    record.verb = "DEPARTED";
    record.params.emplace_back("name", *name);
    if (Status journaled = AppendJournal(shard, record); !journaled.ok()) {
      (void)shard.rack.RestoreState(saved);
      return wire::Response::Failure(journaled);
    }
    wire::Response response = wire::Response::Success("DEPART");
    response.payload.push_back(StrFormat("machine = %d", *departed));
    const obs::TraceSpan span(tracer_, kReplaceProbe);
    if (Status replaced = ReplaceDegraded(shard, *departed, response.payload);
        !replaced.ok()) {
      response.payload.push_back(
          StrFormat("warning = re-placement skipped: %s", replaced.message().c_str()));
    }
    return response;
  }

  // PlacementService::ReplaceDegraded.
  Status ReplaceDegraded(Shard& shard, int machine_index,
                         std::vector<std::string>& payload) {
    rack::Rack& rack = shard.rack;
    std::vector<std::string> names;
    for (const rack::RackJob& job : rack.JobsOn(machine_index)) {
      names.push_back(job.name);
    }
    const std::string type = rack.machines()[machine_index].description.topo.name;
    for (const std::string& name : names) {
      const auto& residents = rack.JobsOn(machine_index);
      const auto it = std::find_if(residents.begin(), residents.end(),
                                   [&](const rack::RackJob& r) { return r.name == name; });
      if (it == residents.end()) {
        continue;
      }
      const size_t index = static_cast<size_t>(it - residents.begin());
      const std::vector<Prediction> current = rack.PredictMachine(machine_index);
      const double current_speedup = current[index].speedup;
      rack::JobRequest probe;
      probe.name = name;
      probe.descriptions.emplace(type, it->description);
      probe.requested_threads = it->placement.TotalThreads();
      const std::optional<rack::Rack::Candidate> candidate = rack.BestCandidateOn(
          machine_index, probe, rack::Policy::kBestSpeedup, &name);
      if (!candidate.has_value() ||
          candidate->job_speedup <= current_speedup * (1.0 + options_.replace_margin)) {
        continue;
      }
      const rack::Rack::SavedState saved = [&] {
        const obs::TraceSpan span(tracer_, kSaveState);
        return rack.SaveState();
      }();
      PANDIA_RETURN_IF_ERROR(rack.Move(name, machine_index, candidate->placement));
      wire::Request record;
      record.verb = "MOVED";
      record.params.emplace_back("name", name);
      record.params.emplace_back("machine", StrFormat("%d", machine_index));
      record.params.emplace_back("placement", wire::PlacementToCsv(candidate->placement));
      if (Status journaled = AppendJournal(shard, record); !journaled.ok()) {
        (void)rack.RestoreState(saved);
        return journaled;
      }
      payload.push_back(StrFormat("moved = %s machine=%d placement=%s speedup=%.6f",
                                  wire::EscapeValue(name).c_str(), machine_index,
                                  wire::PlacementToCsv(candidate->placement).c_str(),
                                  candidate->job_speedup));
    }
    return Status::Ok();
  }

  wire::Response HandleTelemetry(Shard& shard) {
    const rack::Rack::TelemetrySnapshot telemetry = [&] {
      const obs::TraceSpan span(tracer_, kRackTelemetry);
      return shard.rack.Telemetry();
    }();
    const obs::TraceSpan span(tracer_, kWireFormat);
    wire::Response response = wire::Response::Success("TELEMETRY");
    response.payload.push_back(StrFormat(
        "mutation-seq = %llu", static_cast<unsigned long long>(telemetry.mutation_seq)));
    response.payload.push_back(StrFormat("jobs = %zu", telemetry.jobs.size()));
    std::vector<const rack::Rack::JobTelemetry*> jobs;
    for (const rack::Rack::JobTelemetry& job : telemetry.jobs) {
      jobs.push_back(&job);
    }
    std::sort(jobs.begin(), jobs.end(),
              [](const rack::Rack::JobTelemetry* a, const rack::Rack::JobTelemetry* b) {
                return a->name < b->name;
              });
    for (const rack::Rack::JobTelemetry* job : jobs) {
      const double degradation =
          job->current_speedup > 0.0 ? job->speedup_at_admit / job->current_speedup : 0.0;
      response.payload.push_back(StrFormat(
          "job = %s machine=%d machine-name=%s threads=%d "
          "speedup-at-admit=%.6f slowdown-at-admit=%.6f current-speedup=%.6f "
          "degradation=%.6f admit-seq=%llu moves=%d co-events=%llu",
          wire::EscapeValue(job->name).c_str(), job->machine_index,
          wire::EscapeValue(job->machine).c_str(), job->threads, job->speedup_at_admit,
          job->slowdown_at_admit, job->current_speedup, degradation,
          static_cast<unsigned long long>(job->admit_seq), job->moves,
          static_cast<unsigned long long>(job->co_events)));
    }
    return response;
  }

  wire::Response HandleStatus(Shard& shard) {
    const rack::Rack& rack = shard.rack;
    wire::Response response = wire::Response::Success("STATUS");
    response.payload.push_back(StrFormat("version = %d", wire::kProtocolVersion));
    response.payload.push_back(
        StrFormat("policy = %s", rack::PolicyName(options_.default_policy).c_str()));
    response.payload.push_back(StrFormat("machines = %zu", rack.machines().size()));
    response.payload.push_back(StrFormat("jobs = %d", rack.JobCount()));
    std::vector<std::pair<std::string, std::string>> rows;
    for (size_t m = 0; m < rack.machines().size(); ++m) {
      const rack::RackMachine& machine = rack.machines()[m];
      const auto& residents = rack.JobsOn(static_cast<int>(m));
      response.payload.push_back(StrFormat(
          "machine = %zu name=%s type=%s free=%d jobs=%zu", m,
          wire::EscapeValue(machine.name).c_str(),
          wire::EscapeValue(machine.description.topo.name).c_str(),
          rack.FreeThreadCount(static_cast<int>(m)), residents.size()));
      const std::vector<Prediction> predictions = rack.PredictMachine(static_cast<int>(m));
      for (size_t i = 0; i < residents.size(); ++i) {
        const Prediction& prediction = predictions[i];
        rows.emplace_back(
            residents[i].name,
            StrFormat("job = %s machine=%zu threads=%d speedup=%.6f slowdown=%.6f "
                      "bottleneck=%s placement=%s",
                      wire::EscapeValue(residents[i].name).c_str(), m,
                      residents[i].placement.TotalThreads(), prediction.speedup,
                      prediction.speedup > 0.0 ? 1.0 / prediction.speedup : 0.0,
                      BottleneckName(machine.description.topo, prediction).c_str(),
                      wire::PlacementToCsv(residents[i].placement).c_str()));
      }
    }
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& row : rows) {
      response.payload.push_back(std::move(row.second));
    }
    return response;
  }

  double LiveRatio(const Shard& shard) const {
    if (shard.journal->records_since_snapshot() == 0) {
      return 1.0;
    }
    const double ratio = static_cast<double>(shard.rack.JobCount()) /
                         static_cast<double>(shard.journal->records_since_snapshot());
    return ratio > 1.0 ? 1.0 : ratio;
  }

  Status AppendJournal(Shard& shard, const wire::Request& record) {
    const obs::TraceSpan span(tracer_, kJournalAppend);
    std::string detail = record.verb;
    if (const std::string* name = record.Find("name")) {
      detail += " name=" + wire::EscapeValue(*name);
    }
    if (Status appended = shard.journal->Append(record); !appended.ok()) {
      shard.recorder.Record("journal", detail, /*ok=*/false);
      return Status::Unavailable(appended.message());
    }
    shard.recorder.Record("journal", detail);
    return Status::Ok();
  }

  // PlacementService::BuildSnapshot + CompactJournal.
  Status CompactJournal(Shard& shard) {
    const uint64_t records_before = shard.journal->record_count();
    const uint64_t bytes_before = shard.journal->size_bytes();
    const rack::Rack::SavedState state = shard.rack.SaveState();
    wire::Request snapshot;
    snapshot.verb = "SNAPSHOT";
    snapshot.params.emplace_back(
        "mutation-seq", StrFormat("%llu", static_cast<unsigned long long>(state.mutation_seq)));
    std::string events;
    for (size_t m = 0; m < state.machine_events.size(); ++m) {
      events += StrFormat("%s%llu", m > 0 ? "," : "",
                          static_cast<unsigned long long>(state.machine_events[m]));
    }
    snapshot.params.emplace_back("events", events);
    snapshot.params.emplace_back("jobs", StrFormat("%zu", state.jobs.size()));
    for (size_t i = 0; i < state.jobs.size(); ++i) {
      const rack::Rack::SavedJob& saved = state.jobs[i];
      wire::Request job;
      job.verb = "JOB";
      job.params.emplace_back("name", saved.job.name);
      job.params.emplace_back("machine", StrFormat("%d", saved.machine_index));
      job.params.emplace_back("placement", wire::PlacementToCsv(saved.job.placement));
      job.params.emplace_back("speedup", StrFormat("%.17g", saved.job.speedup_at_admit));
      job.params.emplace_back(
          "admit-seq", StrFormat("%llu", static_cast<unsigned long long>(saved.job.admit_seq)));
      job.params.emplace_back("moves", StrFormat("%d", saved.job.moves));
      job.params.emplace_back(
          "events-at-placement",
          StrFormat("%llu",
                    static_cast<unsigned long long>(saved.job.machine_events_at_placement)));
      job.params.emplace_back("desc", WorkloadDescriptionToText(saved.job.description));
      snapshot.params.emplace_back(StrFormat("job.%zu", i), wire::FormatRequest(job));
    }
    if (Status compacted = shard.journal->Compact(snapshot); !compacted.ok()) {
      shard.recorder.Record("journal", "COMPACT", /*ok=*/false);
      return compacted;
    }
    obs::EventLog::Global().Log(
        obs::LogLevel::kInfo, "serve.journal", "compacted journal",
        {{"path", shard.journal->path()},
         {"records-before",
          StrFormat("%llu", static_cast<unsigned long long>(records_before))},
         {"bytes-before", StrFormat("%llu", static_cast<unsigned long long>(bytes_before))},
         {"bytes-after", StrFormat("%llu", static_cast<unsigned long long>(
                                               shard.journal->size_bytes()))}});
    shard.recorder.Record("journal", "COMPACT");
    return Status::Ok();
  }

  serve::ServiceOptions options_;
  rack::Fleet fleet_;
  obs::Tracer& tracer_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<std::string, VerbInstruments> instruments_;
  obs::Gauge& jobs_gauge_ = obs::MetricsRegistry::Global().gauge("serve.jobs");
  obs::Gauge& free_threads_gauge_ = obs::MetricsRegistry::Global().gauge("serve.free_threads");
  obs::Gauge& live_ratio_gauge_ =
      obs::MetricsRegistry::Global().gauge("serve.journal.live_ratio");
  obs::Counter& fallbacks_ = obs::MetricsRegistry::Global().counter("serve.fleet.admit_fallback");
  std::pair<int, int> last_admit_{-1, -1};
};

// ---------------------------------------------------------------------------
// Driving either handler.

struct Fixture {
  eval::Pipeline pipeline{"x3-2"};
  std::vector<std::string> suffixes;  // " desc.x3-2=<escaped>" per description

  Fixture() {
    const std::vector<WorkloadDescription> descriptions =
        pipeline.ProfileAll(workloads::EvaluationSuite(), /*jobs=*/1);
    for (const WorkloadDescription& description : descriptions) {
      suffixes.push_back(StrFormat(" desc.%s=", pipeline.description().topo.name.c_str()) +
                         wire::EscapeValue(WorkloadDescriptionToText(description)));
    }
  }

  std::vector<rack::RackMachine> Machines(int count) const {
    std::vector<rack::RackMachine> machines;
    for (int i = 0; i < count; ++i) {
      machines.push_back(rack::RackMachine{StrFormat("node%d", i), pipeline.description()});
    }
    return machines;
  }
};

serve::FleetOptions FleetOptionsFor(const Shape& shape, const std::string& journal) {
  serve::FleetOptions options;
  options.shards = shape.shards;
  options.shard_policy = shape.policy;
  options.service.prediction.common.jobs = 1;  // PANDIA_JOBS is ignored
  options.service.prediction.common.use_cache = true;
  options.service.journal_path = journal;
  options.service.journal.sync = serve::SyncPolicy::kNone;
  for (int k = 0; k < shape.shards; ++k) {
    std::filesystem::remove(StrFormat("%s.shard%d", journal.c_str(), k));
  }
  return options;
}

// Per-verb latencies and outcomes of one driven phase.
struct Drive {
  std::vector<double> admit_ms;
  std::vector<double> depart_ms;
  std::vector<double> telemetry_ms;
  // Every request in order: its verb ('A', 'D' or 'T') and time.
  std::string verbs;
  std::vector<double> request_ms;
  std::vector<std::string> responses;  // kept when `keep` is set
  uint64_t requests = 0;
  uint64_t failed = 0;
  uint64_t invariant_breaks = 0;
  double elapsed_s = 0.0;
};

// Takes turns with the other side of a traced run over a pipe pair: for
// each request one side goes first and the other second. Which side goes
// first alternates per verb, so the head start the second side gets from
// the first (the two processes share code pages and the core's branch
// history) falls on both sides equally.
class LockStep {
 public:
  LockStep(int in, int out, bool service)
      : in_(in), out_(out), service_(service), holding_(!service) {}

  // Before a request with `verb`; false once the other side has gone.
  bool Before(char verb) {
    first_ = (counts_[static_cast<unsigned char>(verb)]++ % 2 == 0) == service_;
    if (first_) {
      return holding_ || Receive();
    }
    if (holding_) {
      Send();
    }
    return Receive();
  }

  // After the request, outside its timing.
  void After() {
    if (first_) {
      Send();
    }
    holding_ = !first_;
  }

 private:
  void Send() {
    const char token = 't';
    while (write(out_, &token, 1) < 0 && errno == EINTR) {
    }
  }
  bool Receive() {
    char token = 0;
    ssize_t got = 0;
    do {
      got = read(in_, &token, 1);
    } while (got < 0 && errno == EINTR);
    return got == 1;
  }

  int in_;
  int out_;
  bool service_;
  bool holding_;  // this side went last and has not handed the turn over
  bool first_ = false;
  std::array<uint64_t, 256> counts_{};
};

// Replays the request stream against `handler` (a FleetService or the
// replica), keeping the resident jobs in admission order so each DEPART
// names the oldest.
template <typename Handler>
class Client {
 public:
  Client(const Shape& shape, const Requests& requests, Handler& handler)
      : shape_(shape), requests_(requests), handler_(handler) {}

  void Prefill() {
    Drive untimed;
    lock_step_ = nullptr;
    after_admit_ = nullptr;
    while (static_cast<int>(residents_.size()) < shape_.residents) {
      Send(Verb::kAdmit, untimed);
    }
  }

  // Steps until `steps` are done or `seconds` have passed (0: no time
  // bound). `lock_step` paces a traced run; `after_admit` runs after each
  // ADMIT, outside its timing.
  Drive Run(int64_t steps, double seconds, bool keep, LockStep* lock_step = nullptr,
            const std::function<void()>& after_admit = nullptr) {
    lock_step_ = lock_step;
    after_admit_ = after_admit;
    Drive drive;
    keep_ = keep;
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    for (int64_t step = 0; step < steps; ++step) {
      if (next_job_ >= requests_.size()) {
        break;
      }
      const Verb order[] = {shape_.depart_first ? Verb::kDepart : Verb::kAdmit,
                            shape_.depart_first ? Verb::kAdmit : Verb::kDepart};
      bool stopped = false;
      for (const Verb verb : order) {
        stopped = stopped || !Send(verb, drive);
        if (!stopped && ++mutations_ % kTelemetryEvery == 0) {
          stopped = !Send(Verb::kTelemetry, drive);
        }
      }
      if (stopped) {
        break;
      }
      if (static_cast<int>(residents_.size()) != shape_.residents) {
        ++drive.invariant_breaks;
      }
      if (seconds > 0.0 && NowNs() >= deadline) {
        break;
      }
    }
    drive.elapsed_s = static_cast<double>(NowNs() - start) * 1e-9;
    return drive;
  }

  // The final STATUS; returns the block.
  std::string FinalStatus(Drive& drive) {
    const std::string response = handler_.HandleLine("STATUS");
    ++drive.requests;
    drive.failed += response.rfind("ok ", 0) == 0 ? 0 : 1;
    if (keep_) {
      drive.responses.push_back(response);
    }
    return response;
  }

  // Digest of the jobs the stream has used so far.
  std::string StreamDigest() const { return requests_.StreamDigest(next_job_); }

 private:
  enum class Verb { kAdmit, kDepart, kTelemetry };

  static char VerbCode(Verb verb) {
    return verb == Verb::kAdmit ? 'A' : verb == Verb::kDepart ? 'D' : 'T';
  }

  // Sends one request; false when the other side of a lock-step run has
  // gone.
  bool Send(Verb verb, Drive& drive) {
    if (lock_step_ != nullptr && !lock_step_->Before(VerbCode(verb))) {
      return false;
    }
    std::string line;
    size_t job = 0;
    if (verb == Verb::kAdmit) {
      job = next_job_++;
      line = requests_.Admit(job);
    } else if (verb == Verb::kDepart) {
      job = residents_.front();
      line = requests_.Depart(job);
    } else {
      line = "TELEMETRY";
    }
    const int64_t t0 = NowNs();
    std::string response = handler_.HandleLine(line);
    const double ms = static_cast<double>(NowNs() - t0) * 1e-6;
    const bool ok = response.rfind("ok ", 0) == 0;
    if (ok && verb == Verb::kAdmit) {
      residents_.push_back(job);
    } else if (ok && verb == Verb::kDepart) {
      residents_.pop_front();
    }
    ++drive.requests;
    drive.failed += ok ? 0 : 1;
    if (keep_) {
      drive.responses.push_back(std::move(response));
    }
    (verb == Verb::kAdmit    ? drive.admit_ms
     : verb == Verb::kDepart ? drive.depart_ms
                             : drive.telemetry_ms)
        .push_back(ms);
    drive.verbs.push_back(VerbCode(verb));
    drive.request_ms.push_back(ms);
    if (verb == Verb::kAdmit && after_admit_) {
      after_admit_();
    }
    if (lock_step_ != nullptr) {
      lock_step_->After();
    }
    return true;
  }

  const Shape& shape_;
  const Requests& requests_;
  Handler& handler_;
  size_t next_job_ = 0;
  std::deque<size_t> residents_;
  uint64_t mutations_ = 0;
  bool keep_ = false;
  LockStep* lock_step_ = nullptr;
  std::function<void()> after_admit_;
};

// One set-up of the service: profile the suite, build the fleet, prefill,
// and run the warm-up steps. Everything here counts toward setup_s.
struct Service {
  std::unique_ptr<Fixture> fixture;
  std::unique_ptr<Requests> requests;
  std::unique_ptr<serve::FleetService> fleet;
  std::unique_ptr<Client<serve::FleetService>> client;
};

Service SetUpService(const Shape& shape, uint64_t seed, size_t jobs,
                     const std::string& journal) {
  PredictionCache::Global().Clear();
  Service service;
  service.fixture = std::make_unique<Fixture>();
  service.requests = std::make_unique<Requests>(
      seed, JobStream(seed, jobs, static_cast<int>(service.fixture->suffixes.size())),
      service.fixture->suffixes);
  StatusOr<std::unique_ptr<serve::FleetService>> fleet = serve::FleetService::Create(
      service.fixture->Machines(shape.machines), FleetOptionsFor(shape, journal));
  PANDIA_CHECK_MSG(fleet.ok(), fleet.status().message().c_str());
  service.fleet = std::move(*fleet);
  service.client = std::make_unique<Client<serve::FleetService>>(
      shape, *service.requests, *service.fleet);
  service.client->Prefill();
  (void)service.client->Run(shape.warmup_steps, 0.0, false);
  return service;
}

// Runs `count` set-ups (the last one is kept) and appends their times.
Service TimedSetUps(const Shape& shape, uint64_t seed, size_t jobs, const std::string& journal,
                    int count, std::vector<double>& seconds) {
  Service service;
  for (int i = 0; i < count; ++i) {
    service = Service();
    const int64_t start = NowNs();
    service = SetUpService(shape, seed, jobs, journal);
    seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }
  return service;
}

size_t JobsFor(const Shape& shape, int64_t steps) {
  return static_cast<size_t>(shape.residents + shape.warmup_steps + steps + 1);
}

void CheckDrive(const Shape& shape, const Drive& drive, const std::string& status,
                Result& result) {
  if (drive.invariant_breaks > 0) {
    result.Fail(StrFormat("%s left the resident count off %d after %llu steps", shape.name,
                          shape.residents,
                          static_cast<unsigned long long>(drive.invariant_breaks)));
  }
  int jobs = 0;
  size_t at = 0;
  while ((at = status.find("\njobs = ", at)) != std::string::npos) {
    at += 8;
    jobs += std::atoi(status.c_str() + at);
  }
  if (jobs != shape.residents) {
    result.Fail(StrFormat("final STATUS reports %d resident jobs, expected %d", jobs,
                          shape.residents));
  }
}

void CheckGolden(const Shape& shape, const std::string& work_dir, Result& result) {
  Service service = SetUpService(shape, kGoldenSeed, JobsFor(shape, shape.golden_steps),
                                 work_dir + "/golden.journal");
  Drive drive = service.client->Run(shape.golden_steps, 0.0, true);
  const std::string status = service.client->FinalStatus(drive);
  CheckDrive(shape, drive, status, result);
  Digest digest;
  for (const std::string& response : drive.responses) {
    digest.Update(response);
  }
  result.notes.push_back("golden digest " + digest.Hex());
  if (drive.failed > 0 || digest.Hex() != shape.golden_digest) {
    result.Fail(StrFormat("%s golden digest %s, expected %s", shape.name,
                          digest.Hex().c_str(), shape.golden_digest));
  }
}

Result RunEndToEnd(const Shape& shape, const Options& options) {
  Result result;
  const int64_t steps = options.ops > 0 ? options.ops : shape.max_steps;
  const size_t jobs = JobsFor(shape, steps);
  const std::string journal = options.work_dir + "/" + shape.name + ".journal";
  std::vector<double> setup_s;
  Service service =
      TimedSetUps(shape, options.seed, jobs, journal, kSetUps / 2, setup_s);
  // A fixed-step run keeps its responses and digests them after the run; a
  // timed run keeps none (the golden stream checks the outputs).
  const bool fixed = options.ops > 0;
  Drive drive = service.client->Run(steps, fixed ? 0.0 : options.seconds, fixed);
  const std::string status = service.client->FinalStatus(drive);
  CheckDrive(shape, drive, status, result);
  std::string stream = "stream " + service.client->StreamDigest();
  if (fixed) {
    Digest outputs;
    for (const std::string& response : drive.responses) {
      outputs.Update(response);
    }
    stream += ", digest " + outputs.Hex();
  }
  service = Service();
  CheckGolden(shape, options.work_dir, result);
  (void)TimedSetUps(shape, options.seed, jobs, journal, kSetUps - kSetUps / 2, setup_s);
  result.attempted = drive.requests;
  result.failed = drive.failed;
  result.notes.push_back(StrFormat("admits %zu, departs %zu, telemetry reads %zu, %s",
                                   drive.admit_ms.size(), drive.depart_ms.size(),
                                   drive.telemetry_ms.size(), stream.c_str()));
  std::string setups = "set-ups (s):";
  for (const double seconds : setup_s) {
    setups += StrFormat(" %.3f", seconds);
  }
  result.notes.push_back(setups);
  result.Add("setup_s", Median(setup_s), "s", setup_s.size());
  result.Add("throughput_per_s", static_cast<double>(drive.admit_ms.size()) / drive.elapsed_s,
             "1/s", drive.admit_ms.size());
  result.Add("p50_ms", Median(drive.admit_ms), "ms", drive.admit_ms.size());
  result.Add("p90_ms", Quantile(drive.admit_ms, 0.9), "ms", drive.admit_ms.size());
  result.Add("secondary_p50_ms", Median(drive.depart_ms), "ms", drive.depart_ms.size());
  result.Add("read_p50_ms", Median(drive.telemetry_ms), "ms", drive.telemetry_ms.size());
  return result;
}

// ---------------------------------------------------------------------------
// The traced run. The service and the replica each run in their own process,
// so each has its own prediction cache and metrics registry, and they take
// turns (LockStep): each request goes to both before the next one does. Both
// processes are pinned to the same CPU, so both sides of every comparison
// see the same host speed.

// Registry counters the service process reports, as deltas over its run.
constexpr const char* kReportedCounters[] = {
    "prediction_cache.hits",      "prediction_cache.misses", "prediction_cache.evictions",
    "predictor.iterations",       "predictor.predictions",   "serve.fleet.admit_fallback",
    "serve.journal.compactions",  "serve.journal.bytes",     "rack.moves"};

std::string ResponseDigest(const std::string& response) {
  Digest digest;
  digest.Update(response);
  return digest.Hex();
}

// What the service process reports: counter deltas, and per request its
// verb, HandleLine time and response digest (the last is the final STATUS,
// which has no time).
struct ServiceReport {
  std::map<std::string, uint64_t> counters;
  std::string verbs;
  std::vector<double> request_ms;
  std::vector<std::string> digests;
  uint64_t failed = 0;
};

std::string FormatReport(const std::map<std::string, uint64_t>& counters, const Drive& drive) {
  std::string text;
  for (const auto& [name, value] : counters) {
    text += StrFormat("counter %s %llu\n", name.c_str(), static_cast<unsigned long long>(value));
  }
  for (size_t i = 0; i < drive.responses.size(); ++i) {
    text += i < drive.request_ms.size()
                ? StrFormat("request %c %.17g ", drive.verbs[i], drive.request_ms[i])
                : std::string("status ");
    text += ResponseDigest(drive.responses[i]) + "\n";
  }
  return text + StrFormat("failed %llu\n", static_cast<unsigned long long>(drive.failed));
}

ServiceReport ParseReport(const std::string& text) {
  ServiceReport report;
  std::istringstream lines(text);
  std::string kind;
  while (lines >> kind) {
    std::string name;
    if (kind == "counter") {
      uint64_t value = 0;
      lines >> name >> value;
      report.counters[name] = value;
    } else if (kind == "request") {
      char verb = 0;
      double ms = 0.0;
      lines >> verb >> ms >> name;
      report.verbs.push_back(verb);
      report.request_ms.push_back(ms);
      report.digests.push_back(name);
    } else if (kind == "status") {
      lines >> name;
      report.digests.push_back(name);
    } else if (kind == "failed") {
      lines >> report.failed;
    }
  }
  return report;
}

// The service side, in the forked process: set up, then take turns with the
// replica. Returns the process's exit status.
int ServeInLockStep(const Shape& shape, const Options& options, int64_t steps, size_t jobs,
                    const std::string& journal, const std::string& report_path,
                    LockStep& lock_step) {
  Service service = SetUpService(shape, options.seed, jobs, journal);
  const CounterDeltas counters;
  Drive served = service.client->Run(steps, 0.0, true, &lock_step);
  std::map<std::string, uint64_t> deltas;
  for (const char* name : kReportedCounters) {
    deltas[name] = counters.Delta(name);
  }
  (void)service.client->FinalStatus(served);
  return WriteFile(report_path, FormatReport(deltas, served)) ? 0 : 1;
}

Result RunTraced(const Shape& shape, const Options& options) {
  Result result;
  const int64_t steps = options.ops > 0 ? options.ops : shape.traced_steps;
  const size_t jobs = JobsFor(shape, steps);
  const std::string service_journal = options.work_dir + "/traced-service.journal";
  const std::string replica_journal = options.work_dir + "/traced-replica.journal";
  const std::string report_path = options.work_dir + "/traced-service.report";
  std::filesystem::remove(report_path);

  int to_service[2];
  int to_replica[2];
  if (pipe(to_service) != 0 || pipe(to_replica) != 0) {
    result.Fail("cannot create the lock-step pipes");
    return result;
  }
  std::fflush(nullptr);
  const pid_t child = fork();
  if (child == 0) {
    close(to_service[1]);
    close(to_replica[0]);
    std::FILE* log = std::fopen((options.work_dir + "/events-service.log").c_str(), "w");
    obs::EventLog::Global().SetStream(log);
    LockStep lock_step(to_service[0], to_replica[1], /*service=*/true);
    const int status =
        ServeInLockStep(shape, options, steps, jobs, service_journal, report_path, lock_step);
    std::fflush(nullptr);
    std::_Exit(status);
  }
  close(to_service[0]);
  close(to_replica[1]);
  const int to_service_fd = to_service[1];
  const int from_service_fd = to_replica[0];
  if (child < 0) {
    close(to_service_fd);
    close(from_service_fd);
    result.Fail("cannot fork the service process");
    return result;
  }

  // The replica side. Set-up mirrors SetUpService with the tracer off.
  PredictionCache::Global().Clear();
  Fixture fixture;
  const Requests requests(
      options.seed, JobStream(options.seed, jobs, static_cast<int>(fixture.suffixes.size())),
      fixture.suffixes);
  obs::Tracer tracer;
  FleetReplica replica(fixture.Machines(shape.machines),
                       FleetOptionsFor(shape, replica_journal), tracer);
  Client<FleetReplica> client(shape, requests, replica);
  client.Prefill();
  (void)client.Run(shape.warmup_steps, 0.0, false);

  // The chosen candidate's joint solve, re-run on a benchmark-owned engine
  // after each traced admission: the cost of one probe solve at the rack's
  // real occupancy.
  PredictionOptions prediction;
  prediction.common.jobs = 1;
  const CoSchedulePredictor engine(fixture.pipeline.description(), prediction);
  std::vector<double> probe_us;
  const auto probe = [&] {
    const auto [shard, machine] = replica.last_admit();
    std::vector<CoScheduleRequest> joint;
    for (const rack::RackJob& job :
         replica.rack(static_cast<size_t>(shard)).JobsOn(machine)) {
      joint.push_back(CoScheduleRequest{&job.description, job.placement});
    }
    const int64_t t0 = NowNs();
    (void)engine.Predict(joint);
    probe_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  };
  LockStep lock_step(from_service_fd, to_service_fd, /*service=*/false);
  const CounterDeltas counters;
  tracer.SetEnabled(true);
  Drive traced = client.Run(steps, 0.0, true, &lock_step, probe);
  tracer.SetEnabled(false);
  const uint64_t replica_hits = counters.Delta("prediction_cache.hits");
  const uint64_t replica_misses = counters.Delta("prediction_cache.misses");
  const uint64_t replica_evictions = counters.Delta("prediction_cache.evictions");
  close(to_service_fd);
  close(from_service_fd);
  (void)client.FinalStatus(traced);
  int status = 0;
  while (waitpid(child, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    result.Fail("the service process did not finish cleanly");
    return result;
  }
  const ServiceReport served = ParseReport(ReadFile(report_path));
  const auto served_count = [&](const char* name) {
    const auto it = served.counters.find(name);
    return it == served.counters.end() ? uint64_t{0} : it->second;
  };

  // Faithfulness: every response block, the cache traffic and the journals.
  size_t differing = 0;
  for (size_t i = 0; i < std::max(served.digests.size(), traced.responses.size()); ++i) {
    if (i >= served.digests.size() || i >= traced.responses.size() ||
        served.digests[i] != ResponseDigest(traced.responses[i])) {
      ++differing;
    }
  }
  if (differing > 0 || served.verbs != traced.verbs) {
    result.Fail(StrFormat("%zu of %zu replica responses differ from HandleLine's",
                          differing, served.digests.size()));
  }
  if (replica_hits != served_count("prediction_cache.hits") ||
      replica_misses != served_count("prediction_cache.misses") ||
      replica_evictions != served_count("prediction_cache.evictions")) {
    result.Fail("replica cache traffic differs from the service's");
  }
  for (int k = 0; k < shape.shards; ++k) {
    if (ReadFile(StrFormat("%s.shard%d", service_journal.c_str(), k)) !=
        ReadFile(StrFormat("%s.shard%d", replica_journal.c_str(), k))) {
      result.Fail(StrFormat("replica journal of shard %d differs from the service's", k));
    }
  }
  CheckDrive(shape, traced, traced.responses.empty() ? "" : traced.responses.back(), result);
  if (!options.trace_out.empty() && !WriteFile(options.trace_out, tracer.ChromeTraceJson())) {
    result.Fail("cannot write " + options.trace_out);
  }

  // Coverage: for each request, the replica's layer self time against the
  // service's HandleLine time for the same request, summed per verb.
  const SpanAccounting accounting = AccountSpans(tracer.Events());
  if (accounting.roots.size() != served.request_ms.size()) {
    result.Fail(StrFormat("%zu traced requests for %zu served", accounting.roots.size(),
                          served.request_ms.size()));
  }
  struct VerbTotals {
    size_t count = 0;
    double service_ns = 0.0;
    double replica_ns = 0.0;
    double layers_ns = 0.0;
    std::map<std::string, double> layer_ns;
  };
  std::map<char, VerbTotals> verbs;
  double service_ns = 0.0;
  double replica_ns = 0.0;
  for (size_t i = 0; i < std::min(accounting.roots.size(), served.request_ms.size()); ++i) {
    VerbTotals& totals = verbs[served.verbs[i]];
    const RootBreakdown& root = accounting.roots[i];
    ++totals.count;
    totals.service_ns += served.request_ms[i] * 1e6;
    totals.replica_ns += root.dur_ns;
    for (const auto& [name, ns] : root.layer_self_ns) {
      totals.layers_ns += ns;
      totals.layer_ns[name] += ns;
    }
    service_ns += served.request_ms[i] * 1e6;
    replica_ns += root.dur_ns;
  }
  const auto coverage = [&](char verb) {
    const VerbTotals& totals = verbs[verb];
    return totals.service_ns > 0.0 ? totals.layers_ns / totals.service_ns : 0.0;
  };
  // Where one request's time goes: the service's mean HandleLine time, then
  // the replica's mean self time per layer as a share of it.
  std::string internal = "replica-internal coverage (layers / replica request span):";
  for (const auto& [verb, name] : {std::pair<char, const char*>{'A', "ADMIT"},
                                  {'D', "DEPART"}, {'T', "TELEMETRY"}}) {
    const VerbTotals& totals = verbs[verb];
    if (totals.count == 0) {
      continue;
    }
    const double n = static_cast<double>(totals.count);
    std::string line = StrFormat("%s: HandleLine %.1f us", name, totals.service_ns * 1e-3 / n);
    for (const auto& [layer, ns] : totals.layer_ns) {
      line += StrFormat(", %s %.1f us (%.0f%%)", layer.c_str(), ns * 1e-3 / n,
                        100.0 * ns / totals.service_ns);
    }
    const double outside = totals.service_ns - totals.layers_ns;
    line += StrFormat(", outside the layers %.1f us (%.0f%%)", outside * 1e-3 / n,
                      100.0 * outside / totals.service_ns);
    result.notes.push_back(line);
    internal += StrFormat(" %s %.3f of %.1f us;", name,
                          totals.replica_ns > 0.0 ? totals.layers_ns / totals.replica_ns : 0.0,
                          totals.replica_ns * 1e-3 / n);
  }
  result.notes.push_back(internal);
  const auto layer_mean = [&](const char* name, double scale) {
    const auto it = accounting.layers.find(name);
    if (it == accounting.layers.end() || it->second.count == 0) {
      return std::make_pair(0.0, uint64_t{0});
    }
    return std::make_pair(it->second.self_ns * scale / static_cast<double>(it->second.count),
                          it->second.count);
  };
  const auto add_layer = [&](const char* name, const char* metric, const char* unit) {
    const auto [value, count] =
        layer_mean(name, std::string(unit) == "ms" ? 1e-6 : 1e-3);
    result.Add(metric, value, unit, count);
  };
  const auto service_us = [&](char verb) {
    const VerbTotals& totals = verbs[verb];
    return totals.count > 0 ? totals.service_ns * 1e-3 / static_cast<double>(totals.count)
                            : 0.0;
  };

  const uint64_t admits = verbs['A'].count;
  result.attempted = served.digests.size();
  result.failed = served.failed;
  result.notes.push_back(StrFormat(
      "%zu requests in lock-step; %zu response blocks and %d shard journals checked "
      "against HandleLine",
      served.request_ms.size(), served.digests.size(), shape.shards));
  result.Add("predictor.predict_us", Mean(probe_us), "us", probe_us.size());
  add_layer(kWireParse, "wire.parse_us", "us");
  add_layer(kDescDecode, "desc.decode_us", "us");
  add_layer(kDescFormat, "desc.format_us", "us");
  add_layer(kWireFormat, "wire.format_us", "us");
  add_layer(kJournalAppend, "journal.append_us", "us");
  add_layer(kJournalCompact, "journal.compact_ms", "ms");
  add_layer(kFleetRoute, "fleet.route_us", "us");
  add_layer(kSaveState, "rack.save_state_us", "us");
  add_layer(kRackAdmit, "rack.admit_us", "us");
  add_layer(kRackDepart, "rack.depart_us", "us");
  add_layer(kReplaceProbe, "rack.replace_probe_us", "us");
  add_layer(kRackTelemetry, "rack.telemetry_us", "us");
  add_layer(kAccounting, "service.accounting_us", "us");
  result.Add("service.admit_us", service_us('A'), "us", verbs['A'].count);
  result.Add("service.depart_us", service_us('D'), "us", verbs['D'].count);
  result.Add("service.telemetry_us", service_us('T'), "us", verbs['T'].count);
  result.Add("layers.admit_coverage", coverage('A'), "ratio", verbs['A'].count);
  result.Add("layers.depart_coverage", coverage('D'), "ratio", verbs['D'].count);
  const uint64_t hits = served_count("prediction_cache.hits");
  const uint64_t lookups = hits + served_count("prediction_cache.misses");
  result.Add("cache.hit_ratio",
             lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0,
             "ratio", lookups);
  result.Add("cache.lookups", static_cast<double>(lookups), "count");
  result.Add("cache.evictions", static_cast<double>(served_count("prediction_cache.evictions")),
             "count");
  const uint64_t predictions = served_count("predictor.predictions");
  result.Add("predictor.iterations_per_predict",
             predictions > 0 ? static_cast<double>(served_count("predictor.iterations")) /
                                   static_cast<double>(predictions)
                             : 0.0,
             "iter", predictions);
  result.Add("predictor.predictions", static_cast<double>(predictions), "count");
  result.Add("fleet.admit_fallbacks",
             static_cast<double>(served_count("serve.fleet.admit_fallback")), "count");
  result.Add("journal.compactions",
             static_cast<double>(served_count("serve.journal.compactions")), "count");
  result.Add("journal.bytes_per_admit",
             admits > 0 ? static_cast<double>(served_count("serve.journal.bytes")) /
                              static_cast<double>(admits)
                        : 0.0,
             "B", admits);
  result.Add("rack.moves", static_cast<double>(served_count("rack.moves")), "count");
  result.Add("trace.overhead", service_ns > 0.0 ? replica_ns / service_ns - 1.0 : 0.0, "ratio",
             served.request_ms.size());
  AddMissingLayerMetrics(result);
  return result;
}

}  // namespace

Result RunServe(const Options& options) {
  const Shape* shape = ShapeByName(options.workload);
  PANDIA_CHECK(shape != nullptr);
  return options.trace ? RunTraced(*shape, options) : RunEndToEnd(*shape, options);
}

}  // namespace perfbench
