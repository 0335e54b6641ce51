// The two H=4096 workloads: one 4096-host federation (256 brokers, 64
// sites, event-driven kernel) stepped by simkern::IntervalStepper, with
// the open-loop arrivals of examples/massive_fleet (one million devices).
//   fleet-h4096-scoped: the broker-fault storms of examples/massive_fleet;
//     every repair is a scoped (subgraph-extracted) decision from the
//     service, closed loop.
//   sim-h4096-surge: twice the arrivals under the paper's stochastic
//     fault injector; repairs are simkern::FallbackRepair only.
// SLO deadlines follow the paper's relative SLO (section V-B): per app,
// the 90th-percentile response of a reference run, here FallbackRepair
// on an independently seeded copy of the same workload.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>

#include "faults/injector.h"
#include "perfbench.h"
#include "sim/scheduler.h"
#include "simkern/stepper.h"
#include "workload/arrival.h"
#include "workload/profiles.h"

namespace perfbench {
namespace {

constexpr int kHosts = 4096;
constexpr int kBrokers = 256;
constexpr int kSites = 64;
constexpr int kSetupReps = 3;
// GON layer width of examples/massive_fleet's planner.
constexpr int kHiddenWidth = 32;
// examples/massive_fleet: a storm every 8 intervals fails 3 brokers and 8
// hosts for 1.5 intervals.
constexpr int kStormPeriod = 8;
constexpr int kStormPhase = 2;
constexpr int kStormBrokers = 3;
constexpr int kStormHosts = 8;
// Reference intervals (after the warm-up) that set the relative SLO.
constexpr int kCalibrationIntervals = 64;

struct FleetParams {
  bool scoped = false;             // service repairs + storms (else
                                   // FallbackRepair + FaultInjector)
  double arrival_multiplier = 1;   // x examples/massive_fleet's arrivals
  int warmup_intervals = 0;
  double intervals_per_second = 0;  // run length from --seconds
  // The run is split into episodes of at most this many intervals, each
  // on a freshly built, independently seeded fleet (0: one episode).
  int max_episode_intervals = 0;
};

FleetParams ScopedParams() {
  FleetParams p;
  p.scoped = true;
  p.arrival_multiplier = 1.0;
  p.warmup_intervals = 4;
  p.intervals_per_second = 9.0;
  return p;
}

FleetParams SurgeParams() {
  FleetParams p;
  p.scoped = false;
  // The largest whole multiple of the massive_fleet rate that the fleet
  // holds steadily: at 3x queues build up, and at 4x organic overload
  // failures cascade after a few hundred intervals.
  p.arrival_multiplier = 2.0;
  p.warmup_intervals = 12;
  p.intervals_per_second = 48.0;
  // Under FallbackRepair alone the fleet degrades as it runs: within a few
  // thousand intervals organic overload failures cascade even at 2x.
  p.max_episode_intervals = 480;
  return p;
}

struct Counters {
  // Per interval (reset by RunFleet before each step).
  std::int64_t repair_ns = 0, inject_ns = 0, drain_ns = 0;
  // Whole run.
  std::vector<double> repair_ms;
  std::map<std::size_t, std::vector<double>> repair_ms_by_failed;
  std::uint64_t repairs = 0, invalid = 0, fallbacks = 0;
  std::uint64_t fault_events = 0, arrivals = 0;
  std::uint64_t completed = 0, violated = 0, stranded = 0;
  std::uint64_t engaged = 0;
  // Failed service requests by typed error.
  std::uint64_t overloaded = 0, timed_out = 0, suspended = 0, other = 0;
  std::uint64_t service_errors() const {
    return overloaded + timed_out + suspended + other;
  }
  double response_sum = 0.0;
  Digest decisions;
};

class FleetHooks : public simkern::IntervalHooks {
 public:
  FleetHooks(const FleetParams& p, workload::ArrivalProcess& arrivals,
             common::Rng faults, Counters& c)
      : p_(p), arrivals_(&arrivals), storm_(faults), c_(&c) {
    // The paper's model at its per-federation rate (lambda_f = 0.5 per
    // interval), which scenario::RescaleScenario also keeps at H=4096.
    if (!p.scoped) injector_.emplace(faults::FaultInjectorConfig{}, faults);
  }

  // Service wiring for the scoped workload (null for the surge and the
  // reference run, which repair with FallbackRepair).
  serve::ResilienceService* service = nullptr;
  serve::SessionId session = 0;
  SessionReplay* replay = nullptr;  // traced runs: decision replay
  Tracer* tracer = &untraced_;
  bool measuring = false;
  void CountInto(Counters& c) { c_ = &c; }
  std::vector<std::string> mismatches;  // service vs replay
  // Reference run: response times by app type.
  std::vector<std::vector<double>>* responses_by_app = nullptr;

  std::optional<sim::Topology> Repair(simkern::StepContext& ctx) override {
    if (ctx.report->failed_brokers.empty()) return std::nullopt;
    const Clock::time_point t0 = Clock::now();
    const std::vector<sim::NodeId>& failed = ctx.report->failed_brokers;
    sim::Topology decided;
    if (service != nullptr) {
      serve::RepairScope scope;
      scope.options.max_hosts = 128;
      scope.hints = simkern::RepairScopeHints(*ctx.fed, failed);
      const sim::Topology current = ctx.fed->topology();
      const sim::SystemSnapshot& snap = ctx.fed->last_snapshot();
      const std::uint64_t id = c_->repairs;
      double ms = std::numeric_limits<double>::infinity();
      serve::RepairResponse resp;
      bool ok = true;
      {
        SpanScope span(*tracer, "serve.repair", id);
        const Clock::time_point a = Clock::now();
        try {
          resp = service->Repair(session, current, failed, snap, 0, &scope);
          ms = MsBetween(a, Clock::now());
        } catch (const serve::ServiceOverloadedError&) {
          ok = false;
          ++c_->overloaded;
        } catch (const serve::ServiceTimeoutError&) {
          ok = false;
          ++c_->timed_out;
        } catch (const serve::ServiceSuspendedError&) {
          ok = false;
          ++c_->suspended;
        } catch (const std::exception&) {
          ok = false;
          ++c_->other;
        }
      }
      if (measuring) {
        c_->repair_ms.push_back(ms);
        c_->repair_ms_by_failed[failed.size()].push_back(ms);
      }
      if (!ok) {
        decided = current;  // the stepper falls back below
      } else {
        decided = std::move(resp.topology);
        c_->decisions.AddTopology(decided);
        c_->decisions.AddDouble(resp.confidence);
        if (replay != nullptr) {
          const ReplayDecision d =
              replay->Repair(current, failed, snap, scope, id);
          if (d.topology.assignment() != decided.assignment() ||
              d.confidence != resp.confidence) {
            mismatches.push_back(
                "repair " + std::to_string(id) +
                ": service decision differs from the single-threaded replay");
          }
        }
      }
    } else {
      decided = simkern::FallbackRepair(ctx.fed->topology(), failed, *ctx.fed);
      if (measuring) fallback_ms_ = MsBetween(t0, Clock::now());
      c_->decisions.AddTopology(decided);
      ++c_->fallbacks;
    }
    ++c_->repairs;
    if (!decided.IsValid()) ++c_->invalid;
    const Clock::time_point t1 = Clock::now();
    c_->repair_ns += (t1 - t0).count();
    hook_exit_ = t1;
    return decided;
  }

  void OnInvalidRepair(simkern::StepContext&) override { ++c_->fallbacks; }

  void InjectFaults(simkern::StepContext& ctx) override {
    const Clock::time_point t0 = Clock::now();
    if (fallback_ms_ >= 0.0) {
      // The whole repair stage: FallbackRepair, then the stepper's
      // validation and Federation::SetTopology, which run between the
      // Repair hook and this one.
      const double ms = fallback_ms_ + MsBetween(hook_exit_, t0);
      c_->repair_ms.push_back(ms);
      c_->repair_ms_by_failed[ctx.report->failed_brokers.size()].push_back(ms);
      fallback_ms_ = -1.0;
    }
    if (!measuring) return;  // the warm-up only fills the fleet with work
    sim::Federation& fed = *ctx.fed;
    if (injector_) {
      c_->fault_events += injector_->Step(fed).size();
    } else if (ctx.interval % kStormPeriod == kStormPhase) {
      // Brokers are drawn from the current topology, so a storm still
      // hits brokers after earlier repairs moved them.
      const double now = fed.now_s();
      const double until = now + 1.5 * fed.config().interval_seconds;
      const std::vector<sim::NodeId> brokers = fed.topology().brokers();
      for (int k = 0; k < kStormBrokers; ++k) {
        fed.SetFailed(brokers[storm_.Choice(brokers.size())], now, until);
      }
      for (int k = 0; k < kStormHosts; ++k) {
        fed.SetFailed(static_cast<sim::NodeId>(storm_.Choice(kHosts)), now,
                      until);
      }
      c_->fault_events += kStormBrokers + kStormHosts;
    }
    c_->inject_ns += (Clock::now() - t0).count();
  }

  std::vector<sim::Task> GenerateArrivals(simkern::StepContext& ctx) override {
    const Clock::time_point t0 = Clock::now();
    // Tasks arriving during the interval are submitted together at its
    // start, as in the paper's per-interval arrival model; stamping them
    // with the submit time keeps response times causal.
    const double now = ctx.fed->now_s();
    std::vector<sim::Task> tasks =
        arrivals_->Drain(now + ctx.fed->config().interval_seconds);
    for (sim::Task& t : tasks) t.arrival_time_s = now;
    c_->arrivals += tasks.size();
    c_->drain_ns += (Clock::now() - t0).count();
    return tasks;
  }

  void Observe(simkern::StepContext& ctx,
               const sim::IntervalResult& r) override {
    c_->completed += static_cast<std::uint64_t>(r.completed);
    c_->violated += static_cast<std::uint64_t>(r.violated);
    c_->stranded += static_cast<std::uint64_t>(r.stranded);
    for (double t : r.response_times) c_->response_sum += t;
    c_->engaged += ctx.fed->engaged_hosts().size();
    if (responses_by_app != nullptr) {
      for (std::size_t i = 0; i < r.response_times.size(); ++i) {
        const auto app = static_cast<std::size_t>(r.response_app_types[i]);
        if (app < responses_by_app->size()) {
          (*responses_by_app)[app].push_back(r.response_times[i]);
        }
      }
    }
  }

  // The service reads per-host rows and alive flags; the fault injector's
  // organic overload failures read the last interval's CPU ratios.
  bool WantSnapshot(const simkern::StepContext&) const override {
    return true;
  }

 private:
  FleetParams p_;
  workload::ArrivalProcess* arrivals_;
  common::Rng storm_;
  std::optional<faults::FaultInjector> injector_;
  Tracer untraced_{false};
  Counters* c_;
  double fallback_ms_ = -1.0;  // measured FallbackRepair awaiting its stage
  Clock::time_point hook_exit_;
};

struct Setup {
  std::unique_ptr<serve::ResilienceService> service;
  serve::SessionId session = 0;
  std::unique_ptr<sim::Federation> fed;
  std::unique_ptr<workload::ArrivalProcess> arrivals;
  std::unique_ptr<sim::LeastUtilizationScheduler> scheduler;
  Counters counters;
  std::unique_ptr<FleetHooks> hooks;
  std::unique_ptr<simkern::IntervalStepper> stepper;
  double train_ms_per_epoch = 0.0;
  double seconds = 0.0;
  std::vector<double> deadlines_s;  // relative SLO, per app
};

// Episode e of a run draws from salts 1000*e + [0, 1000).
unsigned FleetSeed(std::uint64_t seed, unsigned salt) {
  return static_cast<unsigned>(seed * 2246822519u + salt);
}

// Builds the federation, its arrivals and hooks into `st` and fills the
// fleet to its steady load (no faults yet).
void BuildFleet(const Args& args, const FleetParams& p, unsigned salt,
                std::vector<workload::AppProfile> apps, Setup& st) {
  sim::SimConfig cfg;
  cfg.event_driven = true;
  cfg.network.num_sites = kSites;
  st.fed = std::make_unique<sim::Federation>(
      sim::ScaledTestbedSpecs(kHosts), sim::Topology::Initial(kHosts, kBrokers),
      cfg, common::Rng(FleetSeed(args.seed, salt + 1)));
  // examples/massive_fleet's population: a million devices, ~174 tasks
  // per interval.
  workload::ArrivalConfig acfg =
      workload::ArrivalConfig::FromUsers(1e6, 0.05, kSites);
  acfg.rate_per_second *= p.arrival_multiplier;
  st.arrivals = std::make_unique<workload::ArrivalProcess>(
      std::move(apps), acfg, common::Rng(FleetSeed(args.seed, salt + 2)));
  st.scheduler = std::make_unique<sim::LeastUtilizationScheduler>();
  st.hooks = std::make_unique<FleetHooks>(
      p, *st.arrivals, common::Rng(FleetSeed(args.seed, salt + 3)),
      st.counters);
  st.hooks->service = st.service.get();
  st.hooks->session = st.session;
  st.stepper = std::make_unique<simkern::IntervalStepper>(
      *st.fed, *st.scheduler, *st.hooks);
  for (int i = 0; i < p.warmup_intervals; ++i) st.stepper->Step(i);
}

// The paper's relative SLO: each app's deadline is the 90th-percentile
// response of the reference run (apps without completions keep their
// AIoTBench deadline).
std::vector<workload::AppProfile> RelativeSloApps(const Args& args,
                                                  const FleetParams& p,
                                                  unsigned salt) {
  std::vector<workload::AppProfile> apps = workload::AIoTBenchProfiles();
  Setup ref;
  BuildFleet(args, p, salt + 10, apps, ref);
  std::vector<std::vector<double>> responses(apps.size());
  ref.hooks->responses_by_app = &responses;
  ref.hooks->measuring = true;
  for (int i = 0; i < kCalibrationIntervals; ++i) {
    ref.stepper->Step(p.warmup_intervals + i);
  }
  for (std::size_t a = 0; a < apps.size(); ++a) {
    if (!responses[a].empty()) {
      apps[a].deadline_s = Percentile(responses[a], 90.0);
    }
  }
  return apps;
}

std::unique_ptr<Setup> BuildSetup(const Args& args, const FleetParams& p,
                                  int episode, bool observability) {
  const unsigned salt = 1000u * static_cast<unsigned>(episode);
  auto st = std::make_unique<Setup>();
  const Clock::time_point t0 = Clock::now();
  if (p.scoped) {
    st->service = std::make_unique<serve::ResilienceService>(
        ServingServiceConfig(observability, kHiddenWidth));
    st->train_ms_per_epoch = TrainService(*st->service, args.seed);
    serve::FederationSpec spec;
    spec.name = "fleet";
    spec.carol =
        ServingCarolConfig(FleetSeed(args.seed, salt + 5), kHiddenWidth);
    st->session = st->service->OpenSession(spec);
  }
  std::vector<workload::AppProfile> apps = RelativeSloApps(args, p, salt);
  for (const workload::AppProfile& app : apps) {
    st->deadlines_s.push_back(app.deadline_s);
  }
  BuildFleet(args, p, salt, std::move(apps), *st);
  st->seconds = MsBetween(t0, Clock::now()) / 1e3;
  return st;
}

Result RunFleet(const Args& args, const FleetParams& p, const char* name) {
  Result r;
  const int intervals = std::max(
      1, static_cast<int>(std::lround(p.intervals_per_second * args.seconds)));
  const int episodes =
      p.max_episode_intervals > 0
          ? (intervals + p.max_episode_intervals - 1) / p.max_episode_intervals
          : 1;
  // Untraced runs build at least kSetupReps times for the set-up median;
  // the builds before the first episode repeat its set-up.
  const int builds = args.trace ? episodes : std::max(episodes, kSetupReps);
  Tracer tracer(args.trace);
  ReplayCounts counts;
  Counters c;
  std::vector<double> setup_s, sim_us, self_us, drain_us, inject_us;
  double energy_kwh = 0.0, run_s = 0.0;
  std::unique_ptr<Setup> st;
  int done = 0;  // intervals measured so far
  for (int b = 0; b < builds; ++b) {
    const int e = b - (builds - episodes);  // < 0: a set-up repetition
    st.reset();
    st = BuildSetup(args, p, std::max(e, 0), args.trace);
    setup_s.push_back(st->seconds);
    if (e < 0) continue;

    FleetHooks& hooks = *st->hooks;
    hooks.tracer = &tracer;
    std::unique_ptr<core::GonModel> gon;
    std::unique_ptr<SessionReplay> replay;
    if (p.scoped && args.trace) {
      gon = ReplicaOf(*st->service);
      replay = std::make_unique<SessionReplay>(
          ServingCarolConfig(FleetSeed(args.seed, 1000u * e + 5), kHiddenWidth),
          *gon, tracer, counts);
      hooks.replay = replay.get();
    }
    hooks.CountInto(c);
    hooks.measuring = true;
    const int length = (intervals - done) / (episodes - e);
    const double energy_before = st->fed->total_energy_kwh();
    const Clock::time_point run_start = Clock::now();
    for (int i = 0; i < length; ++i) {
      c.repair_ns = c.inject_ns = c.drain_ns = 0;
      const Clock::time_point a = Clock::now();
      {
        SpanScope span(tracer, "simkern.step",
                       static_cast<std::uint64_t>(done + i));
        st->stepper->Step(p.warmup_intervals + i);
      }
      const double step_us =
          std::chrono::duration<double, std::micro>(Clock::now() - a).count();
      const double hook_us =
          static_cast<double>(c.repair_ns + c.inject_ns + c.drain_ns) / 1e3;
      sim_us.push_back(step_us - static_cast<double>(c.repair_ns) / 1e3);
      self_us.push_back(step_us - hook_us);
      drain_us.push_back(static_cast<double>(c.drain_ns) / 1e3);
      inject_us.push_back(static_cast<double>(c.inject_ns) / 1e3);
    }
    run_s += MsBetween(run_start, Clock::now()) / 1e3;
    energy_kwh += st->fed->total_energy_kwh() - energy_before;
    done += length;

    // --- correctness -------------------------------------------------------
    const std::string audit = st->fed->AuditIncrementalState();
    r.Check(audit.empty(), "AuditIncrementalState: " + audit);
    r.Check(st->fed->topology().IsValid(), "final topology is invalid");
    for (const std::string& m : hooks.mismatches) r.Check(false, m);
  }
  r.Check(c.invalid == 0, std::to_string(c.invalid) +
                              " repair decisions failed Topology::IsValid()");

  // --- end-to-end metrics --------------------------------------------------
  const std::uint64_t n = static_cast<std::uint64_t>(intervals);
  r.attempted = n + c.repairs;
  const std::uint64_t invalid_fallbacks = p.scoped ? c.fallbacks : 0;
  r.failed = c.service_errors() + invalid_fallbacks;
  const Tail repair_tail = TailOf(c.repair_ms);
  r.E2E("setup_s", Median(setup_s), "s");
  r.E2E("peak_rss_mb", PeakRssMb(), "MB");
  r.E2E("repair_p50_ms", Median(c.repair_ms), "ms");
  r.E2E("repair_tail_ms", repair_tail.value, "ms");
  r.E2E("decisions_per_s", static_cast<double>(c.repairs) / run_s, "1/s");
  r.E2E("sim_us_per_interval", Median(sim_us), "us");
  const double completed = static_cast<double>(c.completed);
  r.E2E("slo_violation_rate",
        completed > 0 ? static_cast<double>(c.violated) / completed : 0.0,
        "ratio");
  r.E2E("energy_kwh", energy_kwh, "kWh");
  r.E2E("avg_response_s", completed > 0 ? c.response_sum / completed : 0.0,
        "s");

  char line[256];
  std::snprintf(line, sizeof line,
                "%s: %d intervals in %d episode(s), %.3f s (after %d warm-up "
                "each), %llu repairs (tail = p%.2f of %zu), %llu fault events, "
                "%llu arrivals, mean engaged hosts %.1f",
                name, intervals, episodes, run_s, p.warmup_intervals,
                static_cast<unsigned long long>(c.repairs), repair_tail.pct,
                repair_tail.samples,
                static_cast<unsigned long long>(c.fault_events),
                static_cast<unsigned long long>(c.arrivals),
                static_cast<double>(c.engaged) / static_cast<double>(n));
  r.report.push_back(line);
  std::string slo = "relative SLO deadlines (s, last episode):";
  for (double d : st->deadlines_s) {
    char cell[32];
    std::snprintf(cell, sizeof cell, " %.1f", d);
    slo += cell;
  }
  r.report.push_back(slo);
  std::snprintf(line, sizeof line,
                "repair ms: min %.3f p10 %.3f p50 %.3f p90 %.3f max %.3f",
                Percentile(c.repair_ms, 0), Percentile(c.repair_ms, 10),
                Percentile(c.repair_ms, 50), Percentile(c.repair_ms, 90),
                Percentile(c.repair_ms, 100));
  r.report.push_back(line);
  // A storm's repair time depends on how many LEIs it must rebuild.
  std::string by_failed = "repair ms by failed brokers:";
  for (const auto& [k, v] : c.repair_ms_by_failed) {
    char cell[64];
    std::snprintf(cell, sizeof cell, " %zu: n=%zu p50=%.3f;", k, v.size(),
                  Median(v));
    by_failed += cell;
  }
  if (!c.repair_ms_by_failed.empty()) r.report.push_back(by_failed);
  std::snprintf(line, sizeof line,
                "requests: %llu repairs attempted, %llu succeeded; failed: "
                "%llu overloaded, %llu timed out, %llu suspended, %llu other; "
                "%llu stepper fallbacks after an invalid repair",
                static_cast<unsigned long long>(c.repairs),
                static_cast<unsigned long long>(c.repairs - c.service_errors()),
                static_cast<unsigned long long>(c.overloaded),
                static_cast<unsigned long long>(c.timed_out),
                static_cast<unsigned long long>(c.suspended),
                static_cast<unsigned long long>(c.other),
                static_cast<unsigned long long>(invalid_fallbacks));
  r.report.push_back(line);

  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(c.decisions.value()));
  r.deterministic["decisions_digest"] = buf;
  for (const char* m : {"slo_violation_rate", "energy_kwh", "avg_response_s"}) {
    std::snprintf(buf, sizeof buf, "%.17g", r.end_to_end[m].value);
    r.deterministic[m] = buf;
  }
  r.deterministic["sim.completed"] = std::to_string(c.completed);
  r.deterministic["sim.stranded"] = std::to_string(c.stranded);

  // --- per-layer metrics ---------------------------------------------------
  const double per_interval = 1.0 / static_cast<double>(n);
  r.Layer("simkern.step_self_us", Median(self_us), "us");
  r.Layer("simkern.engaged_hosts", static_cast<double>(c.engaged) * per_interval,
          "count");
  r.Layer("simkern.fallback_repairs",
          static_cast<double>(p.scoped ? invalid_fallbacks : c.fallbacks),
          "count");
  r.Layer("workload.drain_us", Median(drain_us), "us");
  r.Layer("workload.arrivals", static_cast<double>(c.arrivals) * per_interval,
          "count");
  r.Layer("faults.inject_us", Median(inject_us), "us");
  r.Layer("faults.events", static_cast<double>(c.fault_events) * per_interval,
          "count");
  r.Layer("sim.completed", static_cast<double>(c.completed) * per_interval,
          "count");
  r.Layer("sim.stranded", static_cast<double>(c.stranded) * per_interval,
          "count");
  if (p.scoped) {
    const std::map<std::string, SelfTime> self = SelfTimes({&tracer});
    // Layer metrics of core/nn come from the replay, which only traced
    // runs make.
    if (args.trace) ReportReplay(counts, self, r);
    r.Layer("nn.train.ms_per_epoch", st->train_ms_per_epoch, "ms");
    ReportServiceLayers(*st->service, c.repairs, r);
    if (args.trace) ReportSelfTimeTable(self, r);
  }
  if (args.trace) {
    WriteSpans(args.out_dir + "/" + name + "-seed" +
                   std::to_string(args.seed) + ".spans.csv",
               {&tracer});
  }
  return r;
}

}  // namespace

Result RunFleetScoped(const Args& args) {
  return RunFleet(args, ScopedParams(), "fleet-h4096-scoped");
}

Result RunSurge(const Args& args) {
  return RunFleet(args, SurgeParams(), "sim-h4096-surge");
}

}  // namespace perfbench
