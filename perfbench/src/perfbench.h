// Shared pieces of the repository benchmark: spans, latency statistics,
// the single-threaded decision replay, the workload configurations and
// the result record every workload fills in. See perfbench/README.md for
// what each workload and metric means.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/carol.h"
#include "core/gon.h"
#include "serve/service.h"
#include "sim/federation.h"
#include "sim/topology.h"

namespace perfbench {

using namespace carol;
using Clock = std::chrono::steady_clock;

std::int64_t NowNs();
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

// --- spans -----------------------------------------------------------------

// One timed layer call, recorded from the benchmark's side of the layer's
// public API. Spans nest on one thread; `parent` indexes the enclosing
// span of the same Tracer (-1 at top level).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

// In-memory span log for one thread. Disabled tracers take no clock
// reads and record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  std::int32_t Open(const char* name, std::uint64_t request);
  void Close(std::int32_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::int32_t open_ = -1;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::uint64_t request)
      : tracer_(&tracer), index_(tracer.Open(name, request)) {}
  ~SpanScope() { tracer_->Close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

struct SelfTime {
  double total_ms = 0.0;  // summed span durations
  double self_ms = 0.0;   // minus the time covered by child spans
};
// Per-name totals over every span of the given tracers.
std::map<std::string, SelfTime> SelfTimes(
    const std::vector<const Tracer*>& tracers);
// Writes every span as CSV (name,start_ns,end_ns,parent,request,thread).
void WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

// --- statistics ------------------------------------------------------------

double Median(std::vector<double> v);
double Percentile(std::vector<double> v, double pct);
// The highest percentile with at least ten samples beyond it, with its
// value. Failed requests enter as +infinity. Fewer than eleven samples
// report the maximum at percentile 100.
struct Tail {
  double pct = 100.0;
  double value = 0.0;
  std::size_t samples = 0;
};
Tail TailOf(std::vector<double> v);

// FNV-1a over raw bytes: decision digests compare bit patterns.
class Digest {
 public:
  void Add(const void* data, std::size_t bytes);
  void AddTopology(const sim::Topology& t);
  void AddDouble(double d) { Add(&d, sizeof d); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// --- configuration ---------------------------------------------------------

// The serving-sized surrogate and search budget (bench/service_throughput
// and examples/massive_fleet use the same sizes) with the given GON layer
// width.
core::CarolConfig ServingCarolConfig(unsigned seed, int hidden_width);
serve::ServiceConfig ServingServiceConfig(bool observability,
                                          int hidden_width);
// Trains the service's surrogate offline on a seeded H=16 trace; returns
// the training time per epoch in ms.
double TrainService(serve::ResilienceService& service, std::uint64_t seed);

// --- the single-threaded decision replay -----------------------------------

// Per-layer work counts of the replay.
struct ReplayCounts {
  std::uint64_t repairs = 0;
  std::uint64_t frontiers = 0;
  std::uint64_t states = 0;
  std::uint64_t ascent_steps = 0;
  std::uint64_t generate_calls = 0;
  double generate_flops = 0.0;
  std::uint64_t discriminate_calls = 0;
  std::uint64_t discriminate_states = 0;
  std::uint64_t encoded_states = 0;
  double encoded_bytes = 0.0;
  std::uint64_t extracts = 0;
  std::uint64_t sub_hosts = 0;
};

struct ReplayDecision {
  sim::Topology topology;
  double confidence = 0.0;
};

// Replays one session's scoped repairs through the public step API —
// RepairSubgraph::Extract -> a sub-space RepairJob -> EncodeFrontier ->
// GonModel::GenerateBatch + QosObjective -> Advance -> Splice, then
// DiscriminateBatch for the confidence. With FineTunePolicy::kNever and
// the service's weights, every decision is bit-identical to the service's.
class SessionReplay {
 public:
  SessionReplay(const core::CarolConfig& config, core::GonModel& gon,
                Tracer& tracer, ReplayCounts& counts);
  ReplayDecision Repair(const sim::Topology& current,
                        const std::vector<sim::NodeId>& failed,
                        const sim::SystemSnapshot& snapshot,
                        const serve::RepairScope& scope,
                        std::uint64_t request);

 private:
  // Drives `job` to completion, scoring against `snapshot`.
  void Drive(core::RepairJob& job, const sim::SystemSnapshot& snapshot,
             std::uint64_t request);
  double Confidence(const sim::SystemSnapshot& snapshot,
                    const sim::Topology& decided, std::uint64_t request);

  core::CarolConfig config_;
  core::FeatureEncoder encoder_;
  common::Rng rng_;
  core::GonModel* gon_;
  Tracer* tracer_;
  ReplayCounts* counts_;
};

// A GON replica holding the service master's weights (call while no
// traffic flows).
std::unique_ptr<core::GonModel> ReplicaOf(serve::ResilienceService& service);

// --- results -----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  // Values that must repeat exactly for a seed (QoS, counts, digests).
  std::map<std::string, std::string> deterministic;
  std::vector<std::string> failures;  // correctness-check mismatches
  std::vector<std::string> report;    // human-readable lines
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void E2E(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = Metric{value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = Metric{value, unit};
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

// Peak resident set of this process, in MB.
double PeakRssMb();
// Per-layer metrics of the decision replay.
void ReportReplay(const ReplayCounts& counts,
                  const std::map<std::string, SelfTime>& self,
                  Result& result);
// serve.* layer metrics from the service's own MetricsSnapshot() and
// stats; `attempts` is the number of requests the benchmark sent.
void ReportServiceLayers(serve::ResilienceService& service,
                         std::uint64_t attempts, Result& result);
// Prints the self-time table of the replay's repair spans and reports
// (and checks, >= 0.9) the share of repair wall time it accounts for.
void ReportSelfTimeTable(const std::map<std::string, SelfTime>& self,
                         Result& result);

Result RunFleetScoped(const Args& args);
Result RunSurge(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
