#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "core/subgraph.h"
#include "harness/runtime.h"
#include "nn/serialize.h"
#include "perfbench.h"

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- spans -----------------------------------------------------------------

std::int32_t Tracer::Open(const char* name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_;
  s.request = request;
  s.start_ns = NowNs();
  spans_.push_back(s);
  open_ = static_cast<std::int32_t>(spans_.size() - 1);
  return open_;
}

void Tracer::Close(std::int32_t index) {
  if (index < 0) return;
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = NowNs();
  open_ = s.parent;
}

std::map<std::string, SelfTime> SelfTimes(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, SelfTime> out;
  for (const Tracer* t : tracers) {
    const std::vector<Span>& spans = t->spans();
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ms[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double dur =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
      SelfTime& st = out[spans[i].name];
      st.total_ms += dur;
      st.self_ms += dur - child_ms[i];
    }
  }
  return out;
}

void WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "name,start_ns,end_ns,parent,request,thread\n";
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    for (const Span& s : tracers[t]->spans()) {
      out << s.name << ',' << s.start_ns << ',' << s.end_ns << ','
          << s.parent << ',' << s.request << ',' << t << '\n';
    }
  }
}

// --- statistics ------------------------------------------------------------

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  if (v.size() < 11) {
    t.value = v.back();
    return t;
  }
  // Exactly ten samples lie strictly beyond index n-11.
  const std::size_t idx = v.size() - 11;
  t.value = v[idx];
  t.pct = 100.0 * static_cast<double>(idx + 1) /
          static_cast<double>(v.size());
  return t;
}

void Digest::Add(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::AddTopology(const sim::Topology& t) {
  const std::vector<sim::NodeId>& a = t.assignment();
  Add(a.data(), a.size() * sizeof(sim::NodeId));
}

// --- configuration ---------------------------------------------------------

core::CarolConfig ServingCarolConfig(unsigned seed, int hidden_width) {
  core::CarolConfig cfg;
  cfg.gon.hidden_width = hidden_width;
  cfg.gon.num_layers = 2;
  cfg.gon.gat_width = 16;
  cfg.gon.generation_steps = 5;
  cfg.tabu.max_iterations = 3;
  cfg.tabu.max_evaluations = 40;
  cfg.policy = core::FineTunePolicy::kNever;  // steady-state serving
  cfg.seed = seed;
  return cfg;
}

serve::ServiceConfig ServingServiceConfig(bool observability,
                                          int hidden_width) {
  serve::ServiceConfig cfg;
  cfg.gon = ServingCarolConfig(1, hidden_width).gon;
  cfg.num_workers = 2;
  cfg.observability = observability;
  return cfg;
}

double TrainService(serve::ResilienceService& service, std::uint64_t seed) {
  harness::RunConfig rc;
  rc.intervals = 120;
  rc.seed = static_cast<unsigned>(seed * 7919u + 17u);
  const workload::Trace trace = harness::CollectTrainingTrace(rc);
  const Clock::time_point t0 = Clock::now();
  const std::vector<core::EpochStats> epochs =
      service.TrainOffline(trace, /*max_epochs=*/6);
  return MsBetween(t0, Clock::now()) /
         static_cast<double>(std::max<std::size_t>(1, epochs.size()));
}

std::unique_ptr<core::GonModel> ReplicaOf(serve::ResilienceService& service) {
  auto replica = std::make_unique<core::GonModel>(service.config().gon);
  nn::CopyParameters(service.master_gon().network(), replica->network());
  return replica;
}

// --- the single-threaded decision replay -----------------------------------

namespace {

// Dense-equivalent operations of one GON forward pass over an H-host
// state, computed from the layer shapes (2*m*n*k per matmul): the
// [M,S] encoder, the GAT projections, its H x H scores and aggregation,
// and the head.
double ForwardFlops(const core::GonConfig& g, double h) {
  const double hw = g.hidden_width;
  const double gw = g.gat_width;
  const double layers = std::max(1, g.num_layers);
  const double encoder = 2.0 * h * (11.0 * hw + (layers - 1.0) * hw * hw);
  const double gat = 2.0 * h * 6.0 * gw + 2.0 * h * gw * gw +
                     4.0 * h * h * gw;
  const double head = 2.0 * (hw + gw) * hw + 2.0 * hw;
  return encoder + gat + head;
}

double EncodedBytes(const core::EncodedState& s) {
  const auto cells = [](const nn::Matrix& m) {
    return static_cast<double>(m.rows() * m.cols());
  };
  return (cells(s.m) + cells(s.s) + cells(s.roles) + cells(s.adjacency)) *
         sizeof(double);
}

std::vector<bool> AliveFor(const sim::SystemSnapshot& snapshot,
                           const sim::Topology& topo) {
  std::vector<bool> alive = snapshot.alive;
  if (alive.size() != static_cast<std::size_t>(topo.num_nodes())) {
    alive.assign(static_cast<std::size_t>(topo.num_nodes()), true);
  }
  return alive;
}

}  // namespace

SessionReplay::SessionReplay(const core::CarolConfig& config,
                             core::GonModel& gon, Tracer& tracer,
                             ReplayCounts& counts)
    : config_(config),
      rng_(config.seed),
      gon_(&gon),
      tracer_(&tracer),
      counts_(&counts) {}

void SessionReplay::Drive(core::RepairJob& job,
                          const sim::SystemSnapshot& snapshot,
                          std::uint64_t request) {
  while (!job.done()) {
    std::vector<core::EncodedState> contexts;
    {
      SpanScope span(*tracer_, "core.encode", request);
      contexts = core::EncodeFrontier(encoder_, snapshot,
                                      job.ProposeFrontier());
    }
    std::vector<const nn::Matrix*> inits;
    std::vector<const core::EncodedState*> ctxs;
    for (const core::EncodedState& c : contexts) {
      inits.push_back(&c.m);
      ctxs.push_back(&c);
      counts_->encoded_bytes += EncodedBytes(c);
    }
    std::vector<core::GenerationResult> gens;
    {
      SpanScope span(*tracer_, "nn.generate", request);
      gens = gon_->GenerateBatch(inits, ctxs);
    }
    std::vector<double> scores;
    {
      SpanScope span(*tracer_, "core.qos", request);
      scores.reserve(gens.size());
      for (const core::GenerationResult& g : gens) {
        scores.push_back(
            core::QosObjective(g.metrics, config_.alpha, config_.beta));
      }
    }
    counts_->frontiers += 1;
    counts_->states += contexts.size();
    counts_->encoded_states += contexts.size();
    counts_->generate_calls += 1;
    for (std::size_t i = 0; i < gens.size(); ++i) {
      counts_->ascent_steps += static_cast<std::uint64_t>(gens[i].steps);
      const double f = ForwardFlops(
          config_.gon, static_cast<double>(contexts[i].num_hosts()));
      counts_->generate_flops += (3.0 * gens[i].steps + 1.0) * f;
    }
    SpanScope span(*tracer_, "core.tabu", request);
    job.Advance(scores);
  }
}

double SessionReplay::Confidence(const sim::SystemSnapshot& snapshot,
                                 const sim::Topology& decided,
                                 std::uint64_t request) {
  core::EncodedState state;
  {
    SpanScope span(*tracer_, "core.encode", request);
    state = encoder_.EncodeForTopology(snapshot, decided);
  }
  counts_->encoded_states += 1;
  counts_->encoded_bytes += EncodedBytes(state);
  counts_->discriminate_calls += 1;
  counts_->discriminate_states += 1;
  const core::EncodedState* ptr = &state;
  SpanScope span(*tracer_, "nn.discriminate", request);
  return gon_->DiscriminateBatch(
      std::span<const core::EncodedState* const>(&ptr, 1))[0];
}

ReplayDecision SessionReplay::Repair(const sim::Topology& current,
                                     const std::vector<sim::NodeId>& failed,
                                     const sim::SystemSnapshot& snapshot,
                                     const serve::RepairScope& scope,
                                     std::uint64_t request) {
  SpanScope root(*tracer_, "replay.repair", request);
  counts_->repairs += 1;
  ReplayDecision out;
  core::RepairSubgraph sub;
  sim::SystemSnapshot sub_snapshot;
  {
    SpanScope span(*tracer_, "core.subgraph.extract", request);
    sub = core::RepairSubgraph::Extract(current, AliveFor(snapshot, current),
                                        failed, scope.hints, scope.options);
    if (!sub.empty()) sub_snapshot = sub.SubSnapshot(snapshot);
  }
  if (sub.empty()) {
    out.topology = current;
    out.confidence = Confidence(snapshot, current, request);
    return out;
  }
  counts_->extracts += 1;
  counts_->sub_hosts += static_cast<std::uint64_t>(sub.sub_hosts());
  const std::vector<sim::NodeId> sub_failed = sub.sub_failed();
  std::optional<core::RepairJob> job;
  {
    SpanScope span(*tracer_, "core.tabu", request);
    job.emplace(sub.sub_topology(), sub_failed, sub_snapshot, config_, &rng_);
  }
  Drive(*job, sub_snapshot, request);
  {
    SpanScope span(*tracer_, "core.subgraph.splice", request);
    out.topology = sub.Splice(current, job->result());
  }
  out.confidence = Confidence(sub_snapshot, job->result(), request);
  return out;
}

// --- results -----------------------------------------------------------------

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void ReportReplay(const ReplayCounts& c,
                  const std::map<std::string, SelfTime>& self,
                  Result& r) {
  const auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto total = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.total_ms;
  };
  const auto self_ms = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.self_ms;
  };
  const double repairs = static_cast<double>(c.repairs);
  r.Layer("core.tabu.frontiers_per_repair",
          per(static_cast<double>(c.frontiers), repairs), "count");
  r.Layer("core.tabu.states_per_repair",
          per(static_cast<double>(c.states), repairs), "count");
  r.Layer("core.tabu.self_ms", per(self_ms("core.tabu"), repairs), "ms");
  r.Layer("core.encode.ms_per_state",
          per(total("core.encode"), static_cast<double>(c.encoded_states)),
          "ms");
  r.Layer("core.encode.bytes_per_state",
          per(c.encoded_bytes, static_cast<double>(c.encoded_states)), "B");
  const double extracts = static_cast<double>(c.extracts);
  r.Layer("core.subgraph.extract_ms",
          per(total("core.subgraph.extract"), extracts), "ms");
  r.Layer("core.subgraph.sub_hosts",
          per(static_cast<double>(c.sub_hosts), extracts), "count");
  r.Layer("core.subgraph.splice_ms",
          per(total("core.subgraph.splice"), extracts), "ms");
  const double gen_calls = static_cast<double>(c.generate_calls);
  r.Layer("nn.generate.ms_per_call", per(total("nn.generate"), gen_calls),
          "ms");
  r.Layer("nn.generate.states_per_call",
          per(static_cast<double>(c.states), gen_calls), "count");
  r.Layer("nn.generate.ascent_steps_per_state",
          per(static_cast<double>(c.ascent_steps),
              static_cast<double>(c.states)),
          "count");
  r.Layer("nn.generate.gflops",
          per(c.generate_flops / 1e9, total("nn.generate") / 1e3), "GFLOP/s");
  r.Layer("nn.discriminate.ms_per_call",
          per(total("nn.discriminate"),
              static_cast<double>(c.discriminate_calls)),
          "ms");
  r.Layer("nn.discriminate.states_per_call",
          per(static_cast<double>(c.discriminate_states),
              static_cast<double>(c.discriminate_calls)),
          "count");
  // Exact counts that must repeat for a seed.
  r.deterministic["replay.repairs"] = std::to_string(c.repairs);
  r.deterministic["core.tabu.frontiers"] = std::to_string(c.frontiers);
  r.deterministic["core.tabu.states"] = std::to_string(c.states);
  r.deterministic["nn.generate.ascent_steps"] =
      std::to_string(c.ascent_steps);
}

void ReportServiceLayers(serve::ResilienceService& service,
                         std::uint64_t attempts, Result& r) {
  const obs::MetricsSnapshot m = service.MetricsSnapshot();
  const serve::ServiceStats stats = service.stats();
  // Histograms exist only with the service's observability on.
  const auto histogram = [&](const char* name) {
    for (const obs::HistogramSnapshot& h : m.histograms) {
      if (h.name == name) return h.data;
    }
    return obs::HistogramData{};
  };
  const obs::HistogramData queue = histogram("repair_queue_ns");
  const double n = static_cast<double>(queue.count);
  r.Layer("serve.queue_wait_p50_ms", queue.Percentile(50.0) / 1e6, "ms");
  r.Layer("serve.queue_wait_tail_ms",
          queue.Percentile(n > 10 ? 100.0 * (n - 10.0) / n : 100.0) / 1e6,
          "ms");
  r.Layer("serve.score_wait_ms", histogram("repair_score_wait_ns").mean() / 1e6,
          "ms");
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  r.Layer("serve.jobs_per_pass",
          ratio(stats.pipeline_jobs, stats.pipeline_passes), "ratio");
  r.Layer("serve.states_per_pass",
          ratio(stats.pipeline_states, stats.pipeline_passes), "ratio");
  r.Layer("serve.confidence_jobs_per_pass",
          ratio(stats.confidence_jobs, stats.confidence_passes), "ratio");
  r.Layer("serve.passes", static_cast<double>(stats.pipeline_passes), "count");
  r.Layer("serve.jobs", static_cast<double>(stats.pipeline_jobs), "count");
  r.Layer("serve.states", static_cast<double>(stats.pipeline_states), "count");
  r.Layer("serve.confidence_passes",
          static_cast<double>(stats.confidence_passes), "count");
  r.Layer("serve.confidence_jobs", static_cast<double>(stats.confidence_jobs),
          "count");
  r.Layer("serve.attempts", static_cast<double>(attempts), "count");
  r.Layer("serve.rejected_overloaded",
          static_cast<double>(stats.shed_observes + stats.shed_repairs),
          "count");
  r.Layer("serve.rejected_quota", static_cast<double>(stats.quota_rejections),
          "count");
  r.Layer("serve.rejected_timeout", static_cast<double>(stats.timeouts),
          "count");
}

void ReportSelfTimeTable(const std::map<std::string, SelfTime>& self,
                         Result& r) {
  const auto it = self.find("replay.repair");
  const double wall = it == self.end() ? 0.0 : it->second.total_ms;
  static const char* kLayers[] = {
      "core.subgraph.extract", "core.tabu",       "core.encode",
      "nn.generate",           "core.qos",        "nn.discriminate",
      "core.subgraph.splice"};
  double accounted = 0.0;
  char line[160];
  r.report.push_back("self-time table (replay repairs; rows sum to the "
                     "repair wall time):");
  for (const char* layer : kLayers) {
    const auto s = self.find(layer);
    const double ms = s == self.end() ? 0.0 : s->second.self_ms;
    accounted += ms;
    std::snprintf(line, sizeof line, "  %-24s %12.3f ms  %6.2f%%", layer, ms,
                  wall > 0.0 ? 100.0 * ms / wall : 0.0);
    r.report.push_back(line);
  }
  const double unaccounted = wall - accounted;
  std::snprintf(line, sizeof line, "  %-24s %12.3f ms  %6.2f%%",
                "(replay.repair self)", unaccounted,
                wall > 0.0 ? 100.0 * unaccounted / wall : 0.0);
  r.report.push_back(line);
  std::snprintf(line, sizeof line, "  %-24s %12.3f ms", "repair wall", wall);
  r.report.push_back(line);
  const double coverage = wall > 0.0 ? accounted / wall : 0.0;
  r.Layer("replay.coverage", coverage, "ratio");
  r.Check(coverage >= 0.9,
          "per-layer self times cover < 90% of the replay's repair wall time");
}

}  // namespace perfbench
