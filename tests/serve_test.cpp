// Tests for the multi-tenant serving layer: session decisions must be
// bit-identical to the sequential single-model path, replicas must pick
// up fine-tuned master weights, mixed-host-count batches must equal
// per-H sequential scoring, and shutdown must be safe under load.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/carol.h"
#include "harness/serve_experiment.h"
#include "nn/serialize.h"
#include "serve/service.h"
#include "sim/federation.h"

namespace carol::serve {
namespace {

core::CarolConfig TinyCarolConfig(unsigned seed = 7) {
  core::CarolConfig cfg;
  cfg.gon.hidden_width = 12;
  cfg.gon.num_layers = 2;
  cfg.gon.gat_width = 6;
  cfg.gon.generation_steps = 3;
  cfg.gon.batch_size = 8;
  cfg.tabu.max_iterations = 3;
  cfg.tabu.max_evaluations = 24;
  cfg.pot.min_calibration = 4;
  cfg.finetune_epochs = 1;
  cfg.seed = seed;
  return cfg;
}

ServiceConfig TinyServiceConfig(int workers) {
  ServiceConfig cfg;
  cfg.gon = TinyCarolConfig().gon;
  cfg.num_workers = workers;
  // The default step-driven pipeline: zero linger, stacking by
  // scheduling.
  cfg.pipeline = true;
  return cfg;
}

ServiceConfig TinyLegacyConfig(int workers, int linger_us) {
  ServiceConfig cfg = TinyServiceConfig(workers);
  // The legacy run-to-completion path, where the linger window is the
  // only way to stack.
  cfg.pipeline = false;
  cfg.batch_linger_us = linger_us;
  return cfg;
}

sim::SystemSnapshot MakeSnapshot(double util, int hosts, int brokers,
                                 int interval = 0) {
  sim::SystemSnapshot snap;
  snap.interval = interval;
  snap.topology = sim::Topology::Initial(hosts, brokers);
  snap.hosts.resize(static_cast<std::size_t>(hosts));
  snap.alive.assign(static_cast<std::size_t>(hosts), true);
  for (int i = 0; i < hosts; ++i) {
    auto& m = snap.hosts[static_cast<std::size_t>(i)];
    m.cpu_util = util;
    m.ram_util = util * 0.8;
    m.energy_kwh = util * 4e-4;
    m.slo_violation_rate = util > 0.9 ? 0.3 : 0.0;
    m.is_broker = snap.topology.is_broker(i);
  }
  return snap;
}

sim::SystemSnapshot MakeFailureSnapshot(double util, int hosts, int brokers,
                                        int interval = 0) {
  sim::SystemSnapshot snap = MakeSnapshot(util, hosts, brokers, interval);
  snap.alive[0] = false;
  snap.hosts[0].failed = true;
  return snap;
}

// One federation's scripted episode: alternating observations and broker-
// failure repairs with drifting utilization. Returns every topology
// decision plus every observed confidence, so callers can compare the
// service against the single-model reference bit for bit.
struct Episode {
  std::vector<sim::Topology> decisions;
  std::vector<double> confidences;
};

template <typename RepairFn, typename ObserveFn>
Episode DriveEpisode(int hosts, int brokers, int rounds, RepairFn repair,
                     ObserveFn observe) {
  Episode ep;
  for (int t = 0; t < rounds; ++t) {
    const double util = 0.3 + 0.06 * (t % 7);
    ep.confidences.push_back(
        observe(MakeSnapshot(util, hosts, brokers, t)));
    const sim::SystemSnapshot failing =
        MakeFailureSnapshot(util, hosts, brokers, t);
    ep.decisions.push_back(repair(failing.topology, {0}, failing));
  }
  return ep;
}

Episode DriveCarol(core::CarolModel& model, int hosts, int brokers,
                   int rounds) {
  return DriveEpisode(
      hosts, brokers, rounds,
      [&](const sim::Topology& topo, const std::vector<sim::NodeId>& failed,
          const sim::SystemSnapshot& snap) {
        return model.Repair(topo, failed, snap);
      },
      [&](const sim::SystemSnapshot& snap) {
        model.Observe(snap);
        return model.confidence_history().back();
      });
}

Episode DriveSession(ResilienceService& service, SessionId id, int hosts,
                     int brokers, int rounds) {
  return DriveEpisode(
      hosts, brokers, rounds,
      [&](const sim::Topology& topo, const std::vector<sim::NodeId>& failed,
          const sim::SystemSnapshot& snap) {
        RepairRequest req;
        req.current = topo;
        req.failed_brokers = failed;
        req.snapshot = snap;
        return service.Repair(id, req).topology;
      },
      [&](const sim::SystemSnapshot& snap) {
        ObserveRequest req;
        req.snapshot = snap;
        return service.Observe(id, req).confidence;
      });
}

void ExpectEpisodesIdentical(const Episode& a, const Episode& b) {
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  ASSERT_EQ(a.confidences.size(), b.confidences.size());
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_TRUE(a.decisions[i] == b.decisions[i]) << "decision " << i;
  }
  for (std::size_t i = 0; i < a.confidences.size(); ++i) {
    EXPECT_EQ(a.confidences[i], b.confidences[i]) << "confidence " << i;
  }
}

// --- mixed-host-count bucketing in the GON batch entry points ----------

TEST(GonBucketingTest, MixedHostDiscriminateBatchMatchesSequential) {
  core::GonModel gon(TinyCarolConfig().gon);
  core::FeatureEncoder encoder;
  std::vector<core::EncodedState> states;
  for (int hosts : {8, 12, 8, 16, 12, 8}) {
    states.push_back(
        encoder.Encode(MakeSnapshot(0.2 + 0.05 * hosts / 4.0, hosts,
                                    std::max(2, hosts / 4))));
  }
  const std::vector<double> batched = gon.DiscriminateBatch(
      std::span<const core::EncodedState>(states));
  ASSERT_EQ(batched.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    EXPECT_NEAR(batched[i], gon.Discriminate(states[i]), 1e-9) << i;
  }
}

TEST(GonBucketingTest, MixedHostGenerateBatchMatchesSequential) {
  core::GonModel gon(TinyCarolConfig().gon);
  core::FeatureEncoder encoder;
  std::vector<core::EncodedState> states;
  for (int hosts : {8, 16, 8, 12}) {
    states.push_back(encoder.Encode(
        MakeSnapshot(0.4, hosts, std::max(2, hosts / 4))));
  }
  std::vector<const nn::Matrix*> inits;
  std::vector<const core::EncodedState*> ctxs;
  for (const auto& s : states) {
    inits.push_back(&s.m);
    ctxs.push_back(&s);
  }
  const auto batched = gon.GenerateBatch(inits, ctxs);
  ASSERT_EQ(batched.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    const core::GenerationResult seq = gon.Generate(states[i].m, states[i]);
    EXPECT_EQ(batched[i].steps, seq.steps) << i;
    ASSERT_EQ(batched[i].metrics.rows(), seq.metrics.rows());
    for (std::size_t r = 0; r < seq.metrics.rows(); ++r) {
      for (std::size_t c = 0; c < seq.metrics.cols(); ++c) {
        EXPECT_NEAR(batched[i].metrics(r, c), seq.metrics(r, c), 1e-9);
      }
    }
  }
}

// --- determinism against the single-model path --------------------------

TEST(ServeTest, SingleSessionMatchesCarolModelIncludingFineTunes) {
  // One session, fine-tuning enabled (kAlways): every Observe mutates the
  // shared surrogate, so this exercises replica weight re-sync between
  // pipeline steps — and must STILL be bit-identical to one CarolModel,
  // for every worker count (different counts produce different step
  // interleavings on the scheduler).
  core::CarolConfig cfg = TinyCarolConfig();
  cfg.policy = core::FineTunePolicy::kAlways;

  core::CarolModel reference(cfg);
  const Episode expected = DriveCarol(reference, 12, 3, 6);

  for (int workers : {1, 2, 4}) {
    ResilienceService service(TinyServiceConfig(workers));
    FederationSpec spec;
    spec.carol = cfg;
    const SessionId id = service.OpenSession(spec);
    const Episode actual = DriveSession(service, id, 12, 3, 6);

    ExpectEpisodesIdentical(expected, actual);
    EXPECT_GE(service.stats().finetunes, 1u) << workers << " workers";
    EXPECT_GE(service.weight_epoch(), 1u) << workers << " workers";
  }
}

TEST(ServeTest, ParallelHeterogeneousSessionsMatchSequentialRuns) {
  // K federations with different host counts AND different search depths
  // (tabu budgets) served concurrently must each produce exactly the
  // decisions of a dedicated CarolModel run sequentially, for every
  // worker count. Different depths mean the sessions' pipelines need
  // different step counts, so their steps interleave adversarially on
  // the scheduler. kNever keeps the shared surrogate frozen, so sessions
  // are fully independent.
  struct Fleet {
    int hosts;
    int brokers;
    unsigned seed;
    int max_iterations;
  };
  const std::vector<Fleet> fleets = {
      {8, 2, 11, 2}, {12, 3, 22, 5}, {16, 4, 33, 3}};
  const int rounds = 5;

  auto fleet_config = [&](const Fleet& f) {
    core::CarolConfig cfg = TinyCarolConfig(f.seed);
    cfg.policy = core::FineTunePolicy::kNever;
    cfg.tabu.max_iterations = f.max_iterations;
    return cfg;
  };
  std::vector<Episode> expected;
  for (const Fleet& f : fleets) {
    core::CarolModel reference(fleet_config(f));
    expected.push_back(DriveCarol(reference, f.hosts, f.brokers, rounds));
  }

  for (int workers : {1, 2, 4}) {
    ResilienceService service(TinyServiceConfig(workers));
    std::vector<SessionId> ids;
    for (const Fleet& f : fleets) {
      FederationSpec spec;
      spec.carol = fleet_config(f);
      ids.push_back(service.OpenSession(spec));
    }
    std::vector<Episode> actual(fleets.size());
    std::vector<std::thread> drivers;
    for (std::size_t i = 0; i < fleets.size(); ++i) {
      drivers.emplace_back([&, i] {
        actual[i] = DriveSession(service, ids[i], fleets[i].hosts,
                                 fleets[i].brokers, rounds);
      });
    }
    for (auto& d : drivers) d.join();

    for (std::size_t i = 0; i < fleets.size(); ++i) {
      ExpectEpisodesIdentical(expected[i], actual[i]);
    }
    // The concurrent repairs ran through the pipeline scheduler.
    EXPECT_GT(service.stats().pipeline_passes, 0u) << workers;
    EXPECT_GE(service.stats().pipeline_jobs,
              service.stats().pipeline_passes)
        << workers;
  }
}

TEST(ServeTest, PipelineStacksConcurrentSessionsWithZeroLinger) {
  // The tentpole property: with batch_linger_us = 0 (nobody ever waits
  // on a wall clock), concurrently repairing sessions must still share
  // GON kernel passes, because a worker only flushes the pending-score
  // pool when no compute step is runnable. One worker, five eager
  // sessions: the pool piles up while the worker steps other pipelines.
  ResilienceService service(TinyServiceConfig(1));
  ASSERT_EQ(service.config().batch_linger_us, 0);

  const int sessions = 5, rounds = 8;
  std::vector<SessionId> ids;
  std::vector<Episode> expected;
  for (int s = 0; s < sessions; ++s) {
    core::CarolConfig cfg = TinyCarolConfig(60 + static_cast<unsigned>(s));
    cfg.policy = core::FineTunePolicy::kNever;
    FederationSpec spec;
    spec.carol = cfg;
    ids.push_back(service.OpenSession(spec));
    core::CarolModel reference(cfg);
    expected.push_back(DriveCarol(reference, 10, 2, rounds));
  }

  std::vector<Episode> actual(static_cast<std::size_t>(sessions));
  std::vector<std::thread> drivers;
  for (int s = 0; s < sessions; ++s) {
    drivers.emplace_back([&, s] {
      actual[static_cast<std::size_t>(s)] =
          DriveSession(service, ids[static_cast<std::size_t>(s)], 10, 2,
                       rounds);
    });
  }
  for (auto& d : drivers) d.join();

  for (int s = 0; s < sessions; ++s) {
    ExpectEpisodesIdentical(expected[static_cast<std::size_t>(s)],
                            actual[static_cast<std::size_t>(s)]);
  }
  const ServiceStats stats = service.stats();
  ASSERT_GT(stats.pipeline_passes, 0u);
  // Strictly more frontier jobs than kernel passes == at least some
  // passes carried multiple sessions' frontiers, with zero linger.
  EXPECT_GT(stats.pipeline_jobs, stats.pipeline_passes);
  EXPECT_GT(stats.pipeline_states, stats.pipeline_jobs);
  // The final per-decision confidence calls ride the flush too: every
  // repair was scored through a stacked pass (no lone kernel calls),
  // and with 5 eager sessions on 1 worker at least some confidence
  // passes carried multiple decisions.
  EXPECT_EQ(stats.confidence_jobs, stats.repairs);
  ASSERT_GT(stats.confidence_passes, 0u);
  EXPECT_GT(stats.confidence_jobs, stats.confidence_passes);
}

TEST(ServeTest, LegacyLingerWindowStacksConcurrentSessionsIntoSharedPasses) {
  // The legacy run-to-completion path (pipeline = false): with a
  // generous linger window, two sessions repairing at the same time must
  // share scoring passes — and still produce exactly the sequential
  // single-model decisions (batch composition never changes results).
  // 50 ms linger: plenty for the peer to arrive.
  ResilienceService service(TinyLegacyConfig(2, 50000));
  std::vector<SessionId> ids;
  std::vector<Episode> expected;
  for (unsigned seed : {51u, 52u}) {
    core::CarolConfig carol = TinyCarolConfig(seed);
    carol.policy = core::FineTunePolicy::kNever;
    FederationSpec spec;
    spec.carol = carol;
    ids.push_back(service.OpenSession(spec));
    core::CarolModel reference(carol);
    expected.push_back(DriveCarol(reference, 12, 3, 4));
  }

  std::vector<Episode> actual(2);
  std::vector<std::thread> drivers;
  for (std::size_t i = 0; i < 2; ++i) {
    drivers.emplace_back(
        [&, i] { actual[i] = DriveSession(service, ids[i], 12, 3, 4); });
  }
  for (auto& d : drivers) d.join();

  ExpectEpisodesIdentical(expected[0], actual[0]);
  ExpectEpisodesIdentical(expected[1], actual[1]);
  // The linger window must have produced at least one genuinely shared
  // (cross-session) kernel pass.
  EXPECT_GT(service.stats().stacked_jobs, 0u);
}

// --- replica weight sync -------------------------------------------------

TEST(ServeTest, ReplicasServeFineTunedWeights) {
  ResilienceService service(TinyServiceConfig(2));

  FederationSpec tuner;
  tuner.carol = TinyCarolConfig();
  tuner.carol.policy = core::FineTunePolicy::kAlways;
  const SessionId tuner_id = service.OpenSession(tuner);

  FederationSpec prober;
  prober.carol = TinyCarolConfig();
  prober.carol.policy = core::FineTunePolicy::kNever;
  const SessionId prober_id = service.OpenSession(prober);

  // Fine-tune the master through the tuner session (failure-free snapshot
  // grows Gamma; kAlways then fine-tunes immediately).
  ObserveRequest tune;
  tune.snapshot = MakeSnapshot(0.5, 12, 3);
  const ObserveResponse tuned = service.Observe(tuner_id, tune);
  ASSERT_TRUE(tuned.fine_tuned);
  ASSERT_GE(service.weight_epoch(), 1u);

  // Reference confidence from a direct clone of the tuned master.
  core::GonModel clone(TinyServiceConfig(2).gon);
  nn::CopyParameters(service.master_gon().network(), clone.network());
  core::FeatureEncoder encoder;
  const sim::SystemSnapshot probe = MakeSnapshot(0.35, 10, 2);
  const double expected = clone.Discriminate(encoder.Encode(probe));

  // Every replica that serves the prober must have re-synced: the served
  // confidence equals the tuned-master value exactly, on every call.
  for (int i = 0; i < 6; ++i) {
    ObserveRequest req;
    req.snapshot = probe;
    EXPECT_EQ(service.Observe(prober_id, req).confidence, expected) << i;
  }
}

TEST(ServeTest, CopyParametersRejectsArchitectureMismatch) {
  core::GonConfig small = TinyCarolConfig().gon;
  core::GonConfig big = small;
  big.hidden_width = 24;
  core::GonModel a(small);
  core::GonModel b(big);
  EXPECT_THROW(nn::CopyParameters(a.network(), b.network()),
               std::runtime_error);
}

TEST(ServeTest, BusySessionDoesNotStarveOtherTenants) {
  // Two clients hammer session A concurrently while a third drives
  // session B; every request must complete and produce valid repairs
  // (the scheduler skips queued jobs of busy sessions instead of
  // blocking workers on them).
  ResilienceService service(TinyServiceConfig(2));
  FederationSpec spec;
  spec.carol = TinyCarolConfig();
  spec.carol.policy = core::FineTunePolicy::kNever;
  const SessionId a = service.OpenSession(spec);
  spec.carol.seed = 99;
  const SessionId b = service.OpenSession(spec);

  std::atomic<int> completed{0};
  auto hammer = [&](SessionId id, int rounds) {
    for (int r = 0; r < rounds; ++r) {
      RepairRequest req;
      const sim::SystemSnapshot snap = MakeFailureSnapshot(0.5, 10, 2, r);
      req.current = snap.topology;
      req.failed_brokers = {0};
      req.snapshot = snap;
      EXPECT_TRUE(service.Repair(id, req).topology.IsValid());
      completed.fetch_add(1);
    }
  };
  std::thread t1([&] { hammer(a, 6); });
  std::thread t2([&] { hammer(a, 6); });
  std::thread t3([&] { hammer(b, 6); });
  t1.join();
  t2.join();
  t3.join();
  EXPECT_EQ(completed.load(), 18);
}

TEST(ServeTest, SharedComputePoolKeepsSessionsBitIdentical) {
  // A 3-worker service fans every replica's scoring passes and ascent
  // chunks out over its width-3 compute pool while the other workers
  // idle; the session's decisions and confidences must STILL match the
  // sequential single-model reference exactly.
  core::CarolConfig cfg = TinyCarolConfig(77);
  cfg.policy = core::FineTunePolicy::kNever;
  core::CarolModel reference(cfg);
  const Episode expected = DriveCarol(reference, 12, 3, 5);

  ResilienceService service(TinyServiceConfig(3));
  FederationSpec spec;
  spec.carol = cfg;
  const SessionId id = service.OpenSession(spec);
  const Episode actual = DriveSession(service, id, 12, 3, 5);
  ExpectEpisodesIdentical(expected, actual);
  // The pool's telemetry: calls that could fan out, and a mean fan-out
  // within [1, num_workers].
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.compute_calls, 0u);
  EXPECT_GE(stats.compute_participants, stats.compute_calls);
  EXPECT_LE(stats.compute_participants, 3 * stats.compute_calls);
}

// --- admission control ---------------------------------------------------

TEST(ServeTest, BoundedQueueRejectsWithTypedError) {
  // One worker, a one-request bound, and a deliberately slow repair
  // (64 hosts, deep tabu budget) occupying it: the next request must be
  // rejected with the typed overload error while the first is in
  // flight, and the first must still complete normally.
  ServiceConfig cfg = TinyServiceConfig(1);
  cfg.max_pending_requests = 1;
  ResilienceService service(cfg);
  FederationSpec spec;
  spec.carol = TinyCarolConfig();
  spec.carol.policy = core::FineTunePolicy::kNever;
  spec.carol.tabu.max_iterations = 30;
  spec.carol.tabu.max_evaluations = 2000;
  const SessionId slow = service.OpenSession(spec);
  spec.carol.seed = 88;
  const SessionId probe = service.OpenSession(spec);

  std::atomic<bool> slow_done{false};
  std::thread slow_client([&] {
    RepairRequest req;
    const sim::SystemSnapshot snap = MakeFailureSnapshot(0.5, 64, 16);
    req.current = snap.topology;
    req.failed_brokers = {0};
    req.snapshot = snap;
    for (;;) {  // the probe below may hold the only admission slot
      try {
        EXPECT_TRUE(service.Repair(slow, req).topology.IsValid());
        break;
      } catch (const ServiceOverloadedError&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    slow_done.store(true);
  });

  // While the (multi-hundred-ms) slow repair occupies the single
  // admission slot, probes must be turned away with the typed error.
  RepairRequest req;
  const sim::SystemSnapshot snap = MakeFailureSnapshot(0.5, 10, 2);
  req.current = snap.topology;
  req.failed_brokers = {0};
  req.snapshot = snap;
  int rejections = 0;
  while (!slow_done.load()) {
    try {
      service.Repair(probe, req);
    } catch (const ServiceOverloadedError& e) {
      EXPECT_EQ(e.limit(), 1u);
      ++rejections;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  slow_client.join();
  // The slow request held the only admission slot for a macroscopic
  // window, so the probe loop must have been turned away at least once.
  EXPECT_GT(rejections, 0);
  // After the queue drained, requests are admitted again.
  EXPECT_TRUE(service.Repair(probe, req).topology.IsValid());
}

TEST(ServeTest, UnboundedQueueNeverRejects) {
  // max_pending_requests = 0 keeps the historical behavior: everything
  // is admitted, even a burst far wider than the worker pool.
  ResilienceService service(TinyServiceConfig(1));
  ASSERT_EQ(service.config().max_pending_requests, 0u);
  FederationSpec spec;
  spec.carol = TinyCarolConfig();
  spec.carol.policy = core::FineTunePolicy::kNever;
  std::vector<SessionId> ids;
  for (int i = 0; i < 6; ++i) {
    spec.carol.seed = 200 + static_cast<unsigned>(i);
    ids.push_back(service.OpenSession(spec));
  }
  std::atomic<int> completed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < 3; ++r) {
        RepairRequest req;
        const sim::SystemSnapshot snap = MakeFailureSnapshot(0.5, 10, 2, r);
        req.current = snap.topology;
        req.failed_brokers = {0};
        req.snapshot = snap;
        EXPECT_TRUE(
            service.Repair(ids[static_cast<std::size_t>(c)], req)
                .topology.IsValid());
        completed.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(completed.load(), 18);
}

// A deliberately slow repair request: 64 hosts with a deep tabu budget
// occupies a worker for a macroscopic (multi-hundred-ms) window.
FederationSpec SlowFederationSpec(unsigned seed = 7) {
  FederationSpec spec;
  spec.carol = TinyCarolConfig(seed);
  spec.carol.policy = core::FineTunePolicy::kNever;
  spec.carol.tabu.max_iterations = 30;
  spec.carol.tabu.max_evaluations = 2000;
  return spec;
}

RepairRequest SlowRepairRequest() {
  RepairRequest req;
  const sim::SystemSnapshot snap = MakeFailureSnapshot(0.5, 64, 16);
  req.current = snap.topology;
  req.failed_brokers = {0};
  req.snapshot = snap;
  return req;
}

TEST(ServeTest, CloseSessionDuringInFlightRepairIsSafe) {
  // Closing a session while its repair is mid-flight must not deadlock
  // or crash: the client gets an answer (the completed repair or a typed
  // rejection), and the session is gone afterwards.
  ResilienceService service(TinyServiceConfig(1));
  const SessionId id = service.OpenSession(SlowFederationSpec());

  std::atomic<bool> started{false};
  std::atomic<int> outcome{0};  // 1 = repair completed, 2 = typed error
  std::thread client([&] {
    const RepairRequest req = SlowRepairRequest();
    started.store(true);
    try {
      EXPECT_TRUE(service.Repair(id, req).topology.IsValid());
      outcome.store(1);
    } catch (const std::exception&) {
      outcome.store(2);
    }
  });
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  service.CloseSession(id);
  client.join();
  EXPECT_NE(outcome.load(), 0);
  EXPECT_EQ(service.session_count(), 0u);
}

TEST(ServeTest, ConcurrentAdmissionAccountingIsExact) {
  // Under a tight bound and concurrent clients, every request resolves
  // to exactly one of {completed, typed overload} and the server-side
  // counters reconcile exactly with the client-side tallies — no double
  // counting, no silent drops.
  ServiceConfig cfg = TinyServiceConfig(1);
  cfg.max_pending_requests = 4;
  ResilienceService service(cfg);
  const int clients = 6, rounds = 5;
  std::vector<SessionId> ids;
  for (int c = 0; c < clients; ++c) {
    FederationSpec spec;
    spec.carol = TinyCarolConfig(300 + static_cast<unsigned>(c));
    spec.carol.policy = core::FineTunePolicy::kNever;
    ids.push_back(service.OpenSession(spec));
  }
  std::atomic<int> ok{0};
  std::atomic<int> shed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int r = 0; r < rounds; ++r) {
        ObserveRequest req;
        req.snapshot = MakeSnapshot(0.4, 10, 2, r);
        try {
          service.Observe(ids[static_cast<std::size_t>(c)], req);
          ok.fetch_add(1);
        } catch (const ServiceOverloadedError& e) {
          EXPECT_EQ(e.limit(), 4u);
          shed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(ok.load() + shed.load(), clients * rounds);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.observes, static_cast<std::uint64_t>(ok.load()));
  EXPECT_EQ(stats.shed_observes, static_cast<std::uint64_t>(shed.load()));
  EXPECT_EQ(stats.shed_repairs, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.quota_rejections, 0u);
}

TEST(ServeTest, RepairsDisplaceQueuedObservesUnderOverload) {
  // Priority-aware shedding: with the bound full — an in-flight repair
  // plus a queued observe — an arriving repair evicts the observe
  // (which gets the typed overload error) instead of being turned away
  // itself. Observe load sheds first; repairs shed last.
  ServiceConfig cfg = TinyServiceConfig(1);
  cfg.max_pending_requests = 2;
  ResilienceService service(cfg);
  const SessionId slow = service.OpenSession(SlowFederationSpec());
  FederationSpec other;
  other.carol = TinyCarolConfig(88);
  other.carol.policy = core::FineTunePolicy::kNever;
  const SessionId fast = service.OpenSession(other);

  std::thread slow_client([&] {
    EXPECT_TRUE(service.Repair(slow, SlowRepairRequest()).topology.IsValid());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Queued behind the busy session (one pipeline per session at a time),
  // this observe holds the second admission slot without running.
  std::atomic<bool> observe_shed{false};
  std::thread observe_client([&] {
    ObserveRequest req;
    req.snapshot = MakeSnapshot(0.4, 64, 16);
    try {
      service.Observe(slow, req);
    } catch (const ServiceOverloadedError& e) {
      EXPECT_EQ(e.limit(), 2u);
      observe_shed.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  RepairRequest req;
  const sim::SystemSnapshot snap = MakeFailureSnapshot(0.5, 10, 2);
  req.current = snap.topology;
  req.failed_brokers = {0};
  req.snapshot = snap;
  EXPECT_TRUE(service.Repair(fast, req).topology.IsValid());

  slow_client.join();
  observe_client.join();
  EXPECT_TRUE(observe_shed.load());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed_observes, 1u);
  EXPECT_EQ(stats.shed_repairs, 0u);
  EXPECT_EQ(stats.repairs, 2u);
}

TEST(ServeTest, DeadlineExpiryDeliversTypedTimeout) {
  // A queued request whose deadline lapses before execution fails with
  // ServiceTimeoutError (counted), never a silent drop or a late run.
  ResilienceService service(TinyServiceConfig(1));
  const SessionId slow = service.OpenSession(SlowFederationSpec());

  std::thread slow_client([&] {
    EXPECT_TRUE(service.Repair(slow, SlowRepairRequest()).topology.IsValid());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  ObserveRequest req;
  req.snapshot = MakeSnapshot(0.4, 10, 2);
  req.deadline_us = 1000;  // 1 ms: lapses while parked behind the repair
  EXPECT_THROW(service.Observe(slow, req), ServiceTimeoutError);
  EXPECT_GE(service.stats().timeouts, 1u);
  slow_client.join();
}

TEST(ServeTest, PerSessionQuotaRejectsWithTypedError) {
  // One session may not monopolize admission: with a per-session quota
  // of 1, a second request on the busy session is rejected (counted as
  // a quota rejection) while other tenants stay unaffected.
  ServiceConfig cfg = TinyServiceConfig(1);
  cfg.max_pending_per_session = 1;
  ResilienceService service(cfg);
  const SessionId slow = service.OpenSession(SlowFederationSpec());
  FederationSpec other;
  other.carol = TinyCarolConfig(88);
  other.carol.policy = core::FineTunePolicy::kNever;
  const SessionId fast = service.OpenSession(other);

  std::thread slow_client([&] {
    EXPECT_TRUE(service.Repair(slow, SlowRepairRequest()).topology.IsValid());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  ObserveRequest req;
  req.snapshot = MakeSnapshot(0.4, 10, 2);
  try {
    service.Observe(slow, req);
    FAIL() << "expected ServiceOverloadedError (quota)";
  } catch (const ServiceOverloadedError& e) {
    EXPECT_EQ(e.limit(), 1u);
  }
  EXPECT_EQ(service.stats().quota_rejections, 1u);

  // The other tenant's quota is its own: its observe is admitted.
  EXPECT_GT(service.Observe(fast, req).confidence, 0.0);
  slow_client.join();
}

TEST(ServeTest, ClientRetryLedgerReconcilesWithServerCounters) {
  // The harness retry helper's accounting must reconcile exactly with
  // the service's shed counters: every server-side rejection is one
  // typed error observed by exactly one client attempt.
  ServiceConfig cfg = TinyServiceConfig(1);
  cfg.max_pending_requests = 1;
  ResilienceService service(cfg);
  const SessionId slow = service.OpenSession(SlowFederationSpec());
  FederationSpec other;
  other.carol = TinyCarolConfig(88);
  other.carol.policy = core::FineTunePolicy::kNever;
  const SessionId probe = service.OpenSession(other);

  std::thread slow_client([&] {
    EXPECT_TRUE(service.Repair(slow, SlowRepairRequest()).topology.IsValid());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  harness::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_delay_ms = 0.1;
  policy.max_delay_ms = 0.5;  // total backoff << the slow repair window
  harness::RetryAccounting acct;
  ObserveRequest req;
  req.snapshot = MakeSnapshot(0.4, 10, 2);
  EXPECT_THROW(harness::ObserveWithRetry(service, probe, req, policy, &acct),
               ServiceOverloadedError);
  EXPECT_EQ(acct.attempts, 3);
  EXPECT_EQ(acct.overloaded, 3);
  EXPECT_EQ(acct.exhausted, 1);
  EXPECT_EQ(acct.successes, 0);
  EXPECT_EQ(acct.delays_ms.size(), 2u);  // a delay between attempts only
  EXPECT_EQ(service.stats().shed_observes,
            static_cast<std::uint64_t>(acct.overloaded));

  slow_client.join();
  // Once the bound frees up the same request succeeds first try, and the
  // success ledger reconciles with the completion counters.
  harness::RetryAccounting after;
  harness::ObserveWithRetry(service, probe, req, policy, &after);
  EXPECT_EQ(after.attempts, 1);
  EXPECT_EQ(after.successes, 1);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.observes, 1u);
  EXPECT_EQ(stats.shed_observes, 3u);
}

// --- lifecycle -----------------------------------------------------------

TEST(ServeTest, ServiceReportCarriesPerSessionQosBreakdown) {
  ResilienceService service(TinyServiceConfig(2));
  std::vector<FederationSpec> specs;
  std::vector<harness::RunConfig> configs;
  for (int i = 0; i < 2; ++i) {
    FederationSpec spec;
    spec.name = "fed-" + std::to_string(i);
    spec.carol = TinyCarolConfig(static_cast<unsigned>(30 + i));
    spec.carol.policy = core::FineTunePolicy::kNever;
    specs.push_back(spec);
    harness::RunConfig cfg;
    cfg.intervals = 6;
    cfg.seed = 50 + static_cast<unsigned>(i);
    configs.push_back(cfg);
  }
  const harness::ServiceRunReport report =
      harness::RunFederationsViaServiceReport(service, specs, configs);
  ASSERT_EQ(report.sessions.size(), 2u);
  for (std::size_t i = 0; i < report.sessions.size(); ++i) {
    const harness::SessionQos& qos = report.sessions[i];
    EXPECT_EQ(qos.name, specs[i].name);
    // The deterministic block mirrors the RunResult aggregates exactly.
    EXPECT_EQ(qos.energy_kwh, report.results[i].total_energy_kwh);
    EXPECT_EQ(qos.completed, report.results[i].completed);
    EXPECT_EQ(qos.slo_violation_rate,
              report.results[i].slo_violation_rate);
    EXPECT_EQ(qos.broker_failures_detected,
              report.results[i].broker_failures_detected);
    // One service decision per interval, with measured latency.
    EXPECT_EQ(qos.decisions, configs[i].intervals);
    EXPECT_GT(qos.decision_p99_ms, 0.0);
    EXPECT_GE(qos.decision_p99_ms, qos.decision_p50_ms);
    EXPECT_EQ(qos.finetunes, 0);  // kNever policy
  }
}

TEST(ServeTest, UnknownSessionThrows) {
  ResilienceService service(TinyServiceConfig(1));
  ObserveRequest req;
  req.snapshot = MakeSnapshot(0.4, 8, 2);
  EXPECT_THROW(service.Observe(999, req), std::invalid_argument);
  FederationSpec spec;
  spec.carol = TinyCarolConfig();
  const SessionId id = service.OpenSession(spec);
  service.CloseSession(id);
  EXPECT_THROW(service.Observe(id, req), std::invalid_argument);
}

// --- request boundary validation ------------------------------------------

// Expects `call` to throw std::invalid_argument whose message contains
// every one of `fragments`.
template <typename Call>
void ExpectRejected(Call call, const std::vector<std::string>& fragments) {
  try {
    call();
    ADD_FAILURE() << "request was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const std::string& f : fragments) {
      EXPECT_NE(what.find(f), std::string::npos) << what;
    }
  }
}

TEST(ServeTest, NonFiniteSnapshotMetricsAreRejectedAtTheBoundary) {
  ResilienceService service(TinyServiceConfig(2));
  FederationSpec spec;
  spec.carol = TinyCarolConfig();
  const SessionId id = service.OpenSession(spec);

  // cpu_util = NaN on every host: was accepted with a valid-looking
  // topology and confidence, and an Observe could put it into Gamma.
  RepairRequest repair;
  repair.snapshot = MakeFailureSnapshot(0.5, 16, 4);
  for (auto& h : repair.snapshot.hosts) h.cpu_util = std::nan("");
  repair.current = repair.snapshot.topology;
  repair.failed_brokers = {0};
  ExpectRejected([&] { service.Repair(id, repair); },
                 {"Repair", "hosts[0]", "cpu_util"});
  ObserveRequest observe;
  observe.snapshot = repair.snapshot;
  ExpectRejected([&] { service.Observe(id, observe); },
                 {"Observe", "hosts[0]", "cpu_util"});

  // One infinite field on one host is enough, and is named.
  observe.snapshot = MakeSnapshot(0.4, 16, 4);
  observe.snapshot.hosts[5].sched_task_count =
      std::numeric_limits<double>::infinity();
  ExpectRejected([&] { service.Observe(id, observe); },
                 {"hosts[5]", "sched_task_count"});
  repair.snapshot = MakeFailureSnapshot(0.5, 16, 4);
  repair.snapshot.hosts[11].energy_kwh =
      -std::numeric_limits<double>::infinity();
  ExpectRejected([&] { service.Repair(id, repair); },
                 {"hosts[11]", "energy_kwh"});

  // Nothing was admitted, and the session still serves valid requests.
  EXPECT_EQ(service.stats().repairs, 0u);
  EXPECT_EQ(service.stats().observes, 0u);
  repair.snapshot = MakeFailureSnapshot(0.5, 16, 4);
  EXPECT_TRUE(service.Repair(id, repair).topology.IsValid());
  observe.snapshot = MakeSnapshot(0.4, 16, 4);
  EXPECT_GT(service.Observe(id, observe).confidence, 0.0);
}

TEST(ServeTest, OutOfRangeFailedBrokersAreRejectedAtTheBoundary) {
  // failed_brokers = {99} on a 16-host request used to surface as
  // std::out_of_range from deep inside the repair job.
  for (const bool pipeline : {true, false}) {
    ServiceConfig cfg = TinyServiceConfig(1);
    cfg.pipeline = pipeline;
    ResilienceService service(cfg);
    FederationSpec spec;
    spec.carol = TinyCarolConfig();
    const SessionId id = service.OpenSession(spec);
    RepairRequest repair;
    repair.snapshot = MakeFailureSnapshot(0.5, 16, 4);
    repair.current = repair.snapshot.topology;
    for (const sim::NodeId bad : {99, 16, -1}) {
      repair.failed_brokers = {0, bad};
      ExpectRejected([&] { service.Repair(id, repair); },
                     {"failed_brokers", std::to_string(bad), "[0, 16)"});
    }
    EXPECT_EQ(service.stats().repairs, 0u);
  }
}

TEST(ServeTest, MisSizedSnapshotsAreRejectedAtTheBoundary) {
  ResilienceService service(TinyServiceConfig(1));
  FederationSpec spec;
  spec.carol = TinyCarolConfig();
  const SessionId id = service.OpenSession(spec);

  RepairRequest repair;
  repair.snapshot = MakeFailureSnapshot(0.5, 16, 4);
  repair.current = sim::Topology::Initial(20, 4);  // topology vs hosts
  repair.failed_brokers = {0};
  ExpectRejected([&] { service.Repair(id, repair); },
                 {"snapshot.hosts", "16", "20"});
  repair.current = repair.snapshot.topology;
  repair.snapshot.alive.pop_back();  // alive vs topology
  ExpectRejected([&] { service.Repair(id, repair); },
                 {"snapshot.alive", "15", "16"});

  ObserveRequest observe;
  observe.snapshot = MakeSnapshot(0.4, 16, 4);
  observe.snapshot.hosts.resize(12);
  ExpectRejected([&] { service.Observe(id, observe); },
                 {"Observe", "snapshot.hosts", "12", "16"});
  EXPECT_EQ(service.stats().repairs + service.stats().observes, 0u);
}

TEST(ServeTest, ShutdownUnderLoadCompletesOrRejectsEveryRequest) {
  ResilienceService service(TinyServiceConfig(2));
  FederationSpec spec;
  spec.carol = TinyCarolConfig();
  spec.carol.policy = core::FineTunePolicy::kNever;
  std::vector<SessionId> ids;
  for (int i = 0; i < 4; ++i) {
    spec.carol.seed = 100 + static_cast<unsigned>(i);
    ids.push_back(service.OpenSession(spec));
  }

  std::atomic<int> completed{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < 8; ++r) {
        RepairRequest req;
        const sim::SystemSnapshot snap = MakeFailureSnapshot(0.5, 10, 2, r);
        req.current = snap.topology;
        req.failed_brokers = {0};
        req.snapshot = snap;
        try {
          service.Repair(ids[static_cast<std::size_t>(c)], req);
          completed.fetch_add(1);
        } catch (const std::runtime_error&) {
          rejected.fetch_add(1);
          break;  // service is shutting down
        }
      }
    });
  }
  // Let some requests land, then pull the plug while clients are active.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  service.Shutdown();
  for (auto& c : clients) c.join();

  EXPECT_GT(completed.load() + rejected.load(), 0);
  // Accepted work was drained, not dropped; post-shutdown calls throw.
  RepairRequest req;
  const sim::SystemSnapshot snap = MakeFailureSnapshot(0.5, 10, 2);
  req.current = snap.topology;
  req.failed_brokers = {0};
  req.snapshot = snap;
  EXPECT_THROW(service.Repair(ids[0], req), std::runtime_error);
}

}  // namespace
}  // namespace carol::serve
