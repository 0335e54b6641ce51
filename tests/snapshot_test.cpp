// Crash-safe serving: snapshot/restore bit-identity at every layer.
// Each layer's capture/restore is pinned against an uninterrupted run of
// the same computation — rng streams, binary weights, mid-search tabu
// state, mid-dispatch repair jobs, POT thresholds, and finally a full
// service (sessions + weights + parked in-flight repairs) across a
// drain → snapshot → restart → resume cycle.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/binio.h"
#include "common/rng.h"
#include "core/carol.h"
#include "core/node_shift.h"
#include "core/pot.h"
#include "core/tabu.h"
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

ServiceConfig TinyServiceConfig(int workers = 1) {
  ServiceConfig cfg;
  cfg.gon = TinyCarolConfig().gon;
  cfg.num_workers = workers;
  cfg.pipeline = true;
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

struct Episode {
  std::vector<sim::Topology> decisions;
  std::vector<double> confidences;
};

// Drives intervals [t0, t1) of the scripted episode used throughout the
// serve tests. Split points are transparent: DriveRange(0,N) equals
// DriveRange(0,k) followed by DriveRange(k,N) against the same session —
// unless state was lost in between.
Episode DriveRange(ResilienceService& service, SessionId id, int hosts,
                   int brokers, int t0, int t1) {
  Episode ep;
  for (int t = t0; t < t1; ++t) {
    const double util = 0.3 + 0.06 * (t % 7);
    ObserveRequest obs;
    obs.snapshot = MakeSnapshot(util, hosts, brokers, t);
    ep.confidences.push_back(service.Observe(id, obs).confidence);
    RepairRequest rep;
    const sim::SystemSnapshot failing =
        MakeFailureSnapshot(util, hosts, brokers, t);
    rep.current = failing.topology;
    rep.failed_brokers = {0};
    rep.snapshot = failing;
    ep.decisions.push_back(service.Repair(id, rep).topology);
  }
  return ep;
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

// Deterministic toy objective over assignments — cheap, but distinct
// enough that searches branch on it like they would on the GON.
std::vector<double> ToyScores(const std::vector<sim::Topology>& frontier) {
  std::vector<double> scores;
  scores.reserve(frontier.size());
  for (const sim::Topology& t : frontier) {
    const std::vector<sim::NodeId>& a = t.assignment();
    double v = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      v += std::sin(0.37 * static_cast<double>(i) +
                    0.11 * static_cast<double>(a[i]));
    }
    scores.push_back(v);
  }
  return scores;
}

// --- rng stream capture --------------------------------------------------

TEST(RngSnapshotTest, SaveLoadResumesStreamExactly) {
  common::Rng original(123);
  for (int i = 0; i < 17; ++i) original.Uniform();
  const std::string state = original.SaveState();

  common::Rng restored(999);  // seed is irrelevant; state overrides it
  restored.LoadState(state);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(original.engine()(), restored.engine()()) << i;
  }
}

TEST(RngSnapshotTest, LoadRejectsGarbage) {
  common::Rng rng(1);
  EXPECT_THROW(rng.LoadState("definitely not an engine state"),
               std::invalid_argument);
}

// --- binary weight serialization ----------------------------------------

TEST(ParamsSnapshotTest, BinaryRoundTripIsBitExact) {
  core::GonConfig cfg = TinyCarolConfig().gon;
  core::GonModel source(cfg);
  core::GonConfig other = cfg;
  other.seed = cfg.seed + 1;  // different init: the load must overwrite
  core::GonModel target(other);

  core::FeatureEncoder encoder;
  const core::EncodedState probe = encoder.Encode(MakeSnapshot(0.4, 10, 2));
  ASSERT_NE(source.Discriminate(probe), target.Discriminate(probe));

  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  nn::SaveParametersBinary(source.network(), buf);
  buf.seekg(0);
  nn::LoadParametersBinary(target.network(), buf);
  // EQ, not NEAR: the binary format stores raw IEEE-754 bit patterns.
  EXPECT_EQ(source.Discriminate(probe), target.Discriminate(probe));
}

TEST(ParamsSnapshotTest, BinaryLoadRejectsArchitectureMismatch) {
  core::GonConfig small = TinyCarolConfig().gon;
  core::GonConfig big = small;
  big.hidden_width = 24;
  core::GonModel a(small);
  core::GonModel b(big);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  nn::SaveParametersBinary(a.network(), buf);
  buf.seekg(0);
  EXPECT_THROW(nn::LoadParametersBinary(b.network(), buf),
               common::BinaryFormatError);
}

TEST(ParamsSnapshotTest, BinaryLoadRejectsTruncatedImage) {
  core::GonModel model(TinyCarolConfig().gon);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  nn::SaveParametersBinary(model.network(), buf);
  const std::string image = buf.str();
  std::stringstream cut(image.substr(0, image.size() / 2),
                        std::ios::in | std::ios::binary);
  EXPECT_THROW(nn::LoadParametersBinary(model.network(), cut),
               common::BinaryFormatError);
}

// The first weight of the module's first parameter.
double FirstWeight(nn::Module& module) {
  return module.Parameters().front()->value.flat().front();
}

TEST(ParamsSnapshotTest, BinaryLoadRejectsNonFiniteWeight) {
  core::GonModel poisoned(TinyCarolConfig().gon);
  poisoned.network().Parameters().back()->value(0, 0) =
      std::numeric_limits<double>::quiet_NaN();
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  nn::SaveParametersBinary(poisoned.network(), buf);

  core::GonConfig other = TinyCarolConfig().gon;
  other.seed += 1;
  core::GonModel target(other);
  core::FeatureEncoder encoder;
  const core::EncodedState probe = encoder.Encode(MakeSnapshot(0.4, 10, 2));
  const double before = target.Discriminate(probe);
  const double first = FirstWeight(target.network());
  buf.seekg(0);
  // The NaN sits in the last parameter: every earlier one parsed fine,
  // yet nothing may have been written.
  EXPECT_THROW(nn::LoadParametersBinary(target.network(), buf),
               common::BinaryFormatError);
  EXPECT_EQ(FirstWeight(target.network()), first);
  EXPECT_EQ(target.Discriminate(probe), before);
}

TEST(ParamsSnapshotTest, FailedBinaryLoadLeavesWeightsUnchanged) {
  // Same encoder, wider GAT: the image matches the first parameters and
  // fails at the GAT's.
  core::GonConfig narrow = TinyCarolConfig().gon;
  core::GonConfig wide = narrow;
  wide.gat_width = narrow.gat_width + 2;
  wide.seed += 1;
  core::GonModel source(wide);
  core::GonModel target(narrow);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  nn::SaveParametersBinary(source.network(), buf);
  ASSERT_NE(FirstWeight(source.network()), FirstWeight(target.network()));
  const double first = FirstWeight(target.network());
  buf.seekg(0);
  EXPECT_THROW(nn::LoadParametersBinary(target.network(), buf),
               common::BinaryFormatError);
  EXPECT_EQ(FirstWeight(target.network()), first);
}

TEST(ParamsSnapshotTest, TextLoadRejectsNonFiniteWeight) {
  core::GonModel poisoned(TinyCarolConfig().gon);
  poisoned.network().Parameters().back()->value(0, 0) =
      std::numeric_limits<double>::infinity();
  const std::string path = ::testing::TempDir() + "carol_inf_params.txt";
  nn::SaveParameters(poisoned.network(), path);
  core::GonModel target(TinyCarolConfig(8).gon);
  const double first = FirstWeight(target.network());
  EXPECT_THROW(nn::LoadParameters(target.network(), path),
               std::runtime_error);
  EXPECT_EQ(FirstWeight(target.network()), first);
  std::remove(path.c_str());
}

TEST(ServiceSnapshotTest, FailedLoadWeightsLeavesMasterAndDecisionsUnchanged) {
  // A text checkpoint whose head parameter name mismatches: the encoder
  // and GAT weights before it parse fine, but none may be written, and
  // the service keeps deciding with its old weights.
  core::GonConfig other_cfg = TinyCarolConfig().gon;
  other_cfg.seed += 5;
  core::GonModel other(other_cfg);
  const std::string path = ::testing::TempDir() + "carol_bad_params.txt";
  nn::SaveParameters(other.network(), path);
  {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::string contents = text.str();
    const std::string name = "gon.head.l1.w";
    const std::size_t at = contents.find(name);
    ASSERT_NE(at, std::string::npos);
    contents.replace(at, name.size(), "gon.head.l1.x");
    std::ofstream out(path);
    out << contents;
  }

  const ServiceConfig cfg = TinyServiceConfig(1);
  FederationSpec spec;
  spec.carol = TinyCarolConfig();
  spec.carol.policy = core::FineTunePolicy::kNever;
  ResilienceService reference(cfg);
  const SessionId ref_id = reference.OpenSession(spec);
  ResilienceService service(cfg);
  const SessionId id = service.OpenSession(spec);

  const double first = FirstWeight(service.master_gon().network());
  const std::uint64_t epoch = service.weight_epoch();
  EXPECT_THROW(service.LoadWeights(path), std::runtime_error);
  EXPECT_EQ(FirstWeight(service.master_gon().network()), first);
  EXPECT_EQ(service.weight_epoch(), epoch);
  ExpectEpisodesIdentical(DriveRange(service, id, 12, 3, 0, 3),
                          DriveRange(reference, ref_id, 12, 3, 0, 3));
  std::remove(path.c_str());
}

TEST(ServiceSnapshotTest, RestoreRejectsNonFiniteMasterWeight) {
  const ServiceConfig cfg = TinyServiceConfig(1);
  ResilienceService service(cfg);
  service.master_gon().network().Parameters().front()->value(0, 0) =
      std::numeric_limits<double>::quiet_NaN();
  service.BeginDrain();
  service.WaitDrained();
  std::stringstream image(std::ios::in | std::ios::out | std::ios::binary);
  service.SaveSnapshot(image);
  image.seekg(0);
  EXPECT_THROW(ResilienceService(cfg, image), common::BinaryFormatError);
}

// --- tabu search mid-flight ----------------------------------------------

TEST(TabuSnapshotTest, MidSearchSnapshotResumesBitIdentically) {
  core::TabuConfig cfg;
  cfg.max_iterations = 6;
  cfg.max_evaluations = 200;
  const sim::Topology start = sim::Topology::Initial(12, 3);
  const std::vector<bool> alive(12, true);

  core::TabuSearchState reference(
      cfg, start, core::LocalMoveNeighbors(alive, core::NodeShiftOptions{}));
  core::TabuSearchState live(
      cfg, start, core::LocalMoveNeighbors(alive, core::NodeShiftOptions{}));

  // Step both in lockstep for a couple of frontiers, then capture `live`
  // at the park point (frontier proposed, scores pending).
  for (int step = 0; step < 2; ++step) {
    ASSERT_FALSE(reference.done());
    reference.Advance(ToyScores(reference.ProposeFrontier()));
    live.Advance(ToyScores(live.ProposeFrontier()));
  }
  ASSERT_FALSE(live.done());
  const core::TabuSearchSnapshot snapshot = live.Snapshot();

  // "Restart": a fresh state rebuilt from the snapshot with an
  // equivalent neighbor callback must finish exactly like the original.
  core::TabuSearchState resumed(
      cfg, core::LocalMoveNeighbors(alive, core::NodeShiftOptions{}),
      snapshot);
  while (!reference.done()) {
    reference.Advance(ToyScores(reference.ProposeFrontier()));
  }
  while (!resumed.done()) {
    resumed.Advance(ToyScores(resumed.ProposeFrontier()));
  }
  EXPECT_TRUE(resumed.best() == reference.best());
  EXPECT_EQ(resumed.best_score(), reference.best_score());
  EXPECT_EQ(resumed.evaluations(), reference.evaluations());
}

// --- repair job mid-dispatch ---------------------------------------------

TEST(RepairJobSnapshotTest, MidDispatchSaveRestoreResumesBitIdentically) {
  core::CarolConfig cfg = TinyCarolConfig();
  cfg.tabu.max_iterations = 5;
  cfg.tabu.max_evaluations = 120;
  const sim::SystemSnapshot snap = MakeFailureSnapshot(0.5, 12, 3);
  const std::vector<sim::NodeId> failed = {0};

  common::Rng ref_rng(5);
  core::RepairJob reference(snap.topology, failed, snap, cfg, &ref_rng);

  common::Rng live_rng(5);
  core::RepairJob live(snap.topology, failed, snap, cfg, &live_rng);
  for (int step = 0; step < 2 && !live.done(); ++step) {
    live.Advance(ToyScores(live.ProposeFrontier()));
  }
  ASSERT_FALSE(live.done());
  const core::RepairJobState state = live.SaveState();
  const std::string rng_state = live_rng.SaveState();

  // "Restart": new rng object carrying the captured stream, new job
  // rebuilt from the saved state; both runs must land on one topology.
  common::Rng resumed_rng(0);
  resumed_rng.LoadState(rng_state);
  core::RepairJob resumed(failed, cfg, &resumed_rng, state);
  while (!reference.done()) {
    reference.Advance(ToyScores(reference.ProposeFrontier()));
  }
  while (!resumed.done()) {
    resumed.Advance(ToyScores(resumed.ProposeFrontier()));
  }
  EXPECT_TRUE(resumed.result() == reference.result());
}

// --- POT threshold -------------------------------------------------------

TEST(PotSnapshotTest, RestoreContinuesUpdateSequenceExactly) {
  core::PotConfig cfg;
  cfg.min_calibration = 8;
  cfg.window = 32;
  core::PotThreshold original(cfg);
  common::Rng rng(3);
  for (int i = 0; i < 20; ++i) original.Update(rng.Uniform());

  core::PotThreshold restored(cfg);
  restored.Restore(original.state());
  EXPECT_EQ(restored.threshold(), original.threshold());
  EXPECT_EQ(restored.calibrated(), original.calibrated());
  for (int i = 0; i < 20; ++i) {
    const double v = rng.Uniform();
    EXPECT_EQ(original.Update(v), restored.Update(v)) << i;
  }
}

// --- full service: drain -> snapshot -> restart -> resume ----------------

TEST(ServiceSnapshotTest, RestoredServiceResumesBitIdentically) {
  const int half = 4;
  core::CarolConfig carol = TinyCarolConfig(21);
  carol.policy = core::FineTunePolicy::kNever;
  const ServiceConfig cfg = TinyServiceConfig(1);

  // Reference: 2*half intervals on one uninterrupted service.
  Episode expected;
  {
    ResilienceService service(cfg);
    FederationSpec spec;
    spec.carol = carol;
    const SessionId id = service.OpenSession(spec);
    expected = DriveRange(service, id, 12, 3, 0, 2 * half);
  }

  // Same traffic, interrupted in the middle by a full snapshot/restore
  // cycle into a brand-new service object ("new process").
  ResilienceService first(cfg);
  FederationSpec spec;
  spec.carol = carol;
  const SessionId id = first.OpenSession(spec);
  Episode actual = DriveRange(first, id, 12, 3, 0, half);

  first.BeginDrain();
  first.WaitDrained();
  std::stringstream image(std::ios::in | std::ios::out | std::ios::binary);
  first.SaveSnapshot(image);
  first.Shutdown();

  image.seekg(0);
  ResilienceService second(cfg, image);
  EXPECT_EQ(second.session_count(), 1u);
  const Episode tail = DriveRange(second, id, 12, 3, half, 2 * half);
  actual.decisions.insert(actual.decisions.end(), tail.decisions.begin(),
                          tail.decisions.end());
  actual.confidences.insert(actual.confidences.end(),
                            tail.confidences.begin(),
                            tail.confidences.end());
  ExpectEpisodesIdentical(expected, actual);
}

TEST(ServiceSnapshotTest, TunedWeightsAndEpochSurviveRestore) {
  const ServiceConfig cfg = TinyServiceConfig(1);
  FederationSpec tuner;
  tuner.carol = TinyCarolConfig();
  tuner.carol.policy = core::FineTunePolicy::kAlways;
  FederationSpec prober;
  prober.carol = TinyCarolConfig(88);
  prober.carol.policy = core::FineTunePolicy::kNever;

  // Reference service: tune once, then probe.
  ResilienceService reference(cfg);
  const SessionId ref_tuner = reference.OpenSession(tuner);
  const SessionId ref_prober = reference.OpenSession(prober);
  ObserveRequest tune;
  tune.snapshot = MakeSnapshot(0.5, 12, 3);
  ASSERT_TRUE(reference.Observe(ref_tuner, tune).fine_tuned);

  // Test service: tune identically, snapshot, restore, then probe.
  ResilienceService first(cfg);
  const SessionId tuner_id = first.OpenSession(tuner);
  const SessionId prober_id = first.OpenSession(prober);
  ASSERT_TRUE(first.Observe(tuner_id, tune).fine_tuned);
  const std::uint64_t epoch = first.weight_epoch();
  ASSERT_GE(epoch, 1u);

  first.BeginDrain();
  first.WaitDrained();
  std::stringstream image(std::ios::in | std::ios::out | std::ios::binary);
  first.SaveSnapshot(image);
  first.Shutdown();
  image.seekg(0);
  ResilienceService second(cfg, image);

  EXPECT_EQ(second.weight_epoch(), epoch);
  EXPECT_EQ(second.session_count(), 2u);
  ObserveRequest probe;
  probe.snapshot = MakeSnapshot(0.35, 10, 2);
  EXPECT_EQ(second.Observe(prober_id, probe).confidence,
            reference.Observe(ref_prober, probe).confidence);
}

TEST(ServiceSnapshotTest, ParkedMidRepairResumesBitIdentically) {
  // The hardest resume: BeginDrain catches a repair mid-tabu-search. The
  // pipeline parks at its next submit boundary, the client gets the
  // typed suspension error, the park state rides the snapshot, and
  // re-issuing the SAME request on the restored service must produce the
  // bit-exact decision of a never-interrupted run (same rng draws, same
  // candidate order, same confidence).
  ServiceConfig cfg = TinyServiceConfig(1);
  FederationSpec spec;
  spec.carol = TinyCarolConfig();
  spec.carol.policy = core::FineTunePolicy::kNever;
  spec.carol.tabu.max_iterations = 30;
  spec.carol.tabu.max_evaluations = 2000;

  RepairRequest req;
  const sim::SystemSnapshot snap = MakeFailureSnapshot(0.5, 64, 16);
  req.current = snap.topology;
  req.failed_brokers = {0};
  req.snapshot = snap;

  RepairResponse want;
  {
    ResilienceService reference(cfg);
    const SessionId id = reference.OpenSession(spec);
    want = reference.Repair(id, req);
  }

  ResilienceService first(cfg);
  const SessionId id = first.OpenSession(spec);
  std::atomic<bool> suspended{false};
  std::thread client([&] {
    try {
      first.Repair(id, req);
    } catch (const ServiceSuspendedError&) {
      suspended.store(true);
    }
  });
  // Pull the plug only once the search is demonstrably mid-flight.
  while (first.stats().pipeline_passes < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  first.BeginDrain();
  client.join();
  EXPECT_TRUE(suspended.load());
  first.WaitDrained();
  EXPECT_GE(first.stats().suspended, 1u);

  std::stringstream image(std::ios::in | std::ios::out | std::ios::binary);
  first.SaveSnapshot(image);
  first.Shutdown();
  image.seekg(0);
  ResilienceService second(cfg, image);

  // A DIFFERENT request cannot consume the parked state...
  RepairRequest wrong = req;
  wrong.failed_brokers = {1};
  EXPECT_THROW(second.Repair(id, wrong), std::invalid_argument);
  // ...re-issuing the suspended one resumes it to the bit-exact result.
  const RepairResponse got = second.Repair(id, req);
  EXPECT_TRUE(got.topology == want.topology);
  EXPECT_EQ(got.confidence, want.confidence);
}

TEST(ServiceSnapshotTest, SnapshotRequiresQuiescence) {
  ResilienceService service(TinyServiceConfig(1));
  FederationSpec spec;
  spec.carol = TinyCarolConfig();
  spec.carol.policy = core::FineTunePolicy::kNever;
  spec.carol.tabu.max_iterations = 30;
  spec.carol.tabu.max_evaluations = 2000;
  const SessionId id = service.OpenSession(spec);

  std::thread client([&] {
    RepairRequest req;
    const sim::SystemSnapshot snap = MakeFailureSnapshot(0.5, 64, 16);
    req.current = snap.topology;
    req.failed_brokers = {0};
    req.snapshot = snap;
    try {
      service.Repair(id, req);
    } catch (const ServiceSuspendedError&) {
    }
  });
  while (service.stats().pipeline_passes < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Mid-flight: SaveSnapshot must refuse rather than write a torn image.
  std::stringstream image(std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_THROW(service.SaveSnapshot(image), std::logic_error);
  service.BeginDrain();
  client.join();
  service.WaitDrained();
  service.SaveSnapshot(image);  // quiescent now: succeeds
  EXPECT_GT(image.str().size(), 0u);
}

TEST(ServiceSnapshotTest, RestoreRejectsCorruptImage) {
  const ServiceConfig cfg = TinyServiceConfig(1);
  ResilienceService service(cfg);
  FederationSpec spec;
  spec.carol = TinyCarolConfig();
  const SessionId id = service.OpenSession(spec);
  (void)id;
  service.BeginDrain();
  service.WaitDrained();
  std::stringstream image(std::ios::in | std::ios::out | std::ios::binary);
  service.SaveSnapshot(image);
  const std::string bytes = image.str();

  std::stringstream truncated(bytes.substr(0, bytes.size() - 7),
                              std::ios::in | std::ios::binary);
  EXPECT_THROW(ResilienceService(cfg, truncated),
               common::BinaryFormatError);

  std::stringstream garbage(std::string("not a snapshot at all"),
                            std::ios::in | std::ios::binary);
  EXPECT_THROW(ResilienceService(cfg, garbage), common::BinaryFormatError);
}

TEST(ServiceSnapshotTest, RestoreRejectsInconsistentGammaShapes) {
  // Restored Gamma entries feed FineTune, so a state whose matrices do
  // not agree on H must fail the restore rather than reach the GON.
  const ServiceConfig cfg = TinyServiceConfig(1);
  ResilienceService service(cfg);
  FederationSpec spec;
  spec.carol = TinyCarolConfig();
  spec.carol.policy = core::FineTunePolicy::kNever;
  const SessionId id = service.OpenSession(spec);
  DriveRange(service, id, 12, 3, 0, 2);  // healthy observations grow Gamma
  service.BeginDrain();
  service.WaitDrained();
  std::stringstream image(std::ios::in | std::ios::out | std::ios::binary);
  service.SaveSnapshot(image);
  const std::string bytes = image.str();

  // A Gamma entry's s matrix is serialized as u64 rows, u64 cols,
  // u64 count, then the doubles. Relabel the first [12 x 2] one as
  // [6 x 4]: same element count, so only the shape check can catch it.
  const auto u64s = [](std::initializer_list<std::uint64_t> values) {
    std::string out;
    for (std::uint64_t v : values) {
      for (int b = 0; b < 8; ++b) {
        out.push_back(static_cast<char>(v >> (8 * b)));
      }
    }
    return out;
  };
  const std::size_t at = bytes.find(u64s({12, 2, 24}));
  ASSERT_NE(at, std::string::npos);
  std::string corrupt = bytes;
  corrupt.replace(at, 24, u64s({6, 4, 24}));

  std::stringstream intact(bytes, std::ios::in | std::ios::binary);
  EXPECT_NO_THROW(ResilienceService(cfg, intact));
  std::stringstream relabeled(corrupt, std::ios::in | std::ios::binary);
  try {
    ResilienceService restored(cfg, relabeled);
    FAIL() << "restore accepted an inconsistent Gamma entry";
  } catch (const common::BinaryFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("encoded state"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace carol::serve
