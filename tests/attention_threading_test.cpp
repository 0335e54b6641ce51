// Pins the threaded tape-free scoring path to the sequential one, bit
// for bit: per-state sparse GAT attention, row-partitioned shared
// projections and per-chunk encoder/pooling must produce EXACTLY the sequential
// results for any pool width (the pool partitions work, never the
// arithmetic within a state). Also stresses several pools at once for
// the TSan CI job; the pool itself is unit-tested in
// tests/worker_pool_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/encoder.h"
#include "core/gon.h"
#include "nn/layers.h"
#include "nn/threading.h"
#include "sim/federation.h"
#include "sim/topology.h"

namespace carol {
namespace {

// --- GraphAttention bit-identity ----------------------------------------

// Random 0/1 symmetric adjacency with a broker-clique-like structure.
nn::Matrix RandomAdjacency(std::size_t h, common::Rng& rng) {
  nn::Matrix adj(h, h, 0.0);
  for (std::size_t i = 0; i < h; ++i) {
    for (std::size_t j = i + 1; j < h; ++j) {
      if (rng.Uniform(0.0, 1.0) < 0.2) {
        adj(i, j) = 1.0;
        adj(j, i) = 1.0;
      }
    }
  }
  return adj;
}

TEST(AttentionThreadingTest, GatForwardInferenceBatchBitIdentical) {
  common::Rng rng(5);
  nn::GraphAttention gat(6, 16, rng);
  for (std::size_t h : {16u, 64u, 128u}) {
    // Ragged K across host counts, including K == 1 and K not divisible
    // by the thread count.
    for (std::size_t k : {1u, 2u, 5u, 9u}) {
      common::Rng data_rng(100 + static_cast<unsigned>(h + k));
      const nn::Matrix u = nn::Matrix::Randn(k * h, 6, data_rng);
      std::vector<nn::Matrix> adjs;
      for (std::size_t s = 0; s < k; ++s) {
        adjs.push_back(RandomAdjacency(h, data_rng));
      }
      std::vector<const nn::Matrix*> adj_ptrs;
      for (const auto& a : adjs) adj_ptrs.push_back(&a);
      nn::AttentionEdges edges;
      edges.Build(adj_ptrs);

      nn::GraphAttention::InferenceScratch seq_ws;
      nn::Matrix expected;
      gat.ForwardInferenceBatch(u, edges, seq_ws, expected);

      for (int threads : {1, 2, 4}) {
        nn::WorkerPool pool(threads);
        nn::GraphAttention::InferenceScratch ws;
        nn::Matrix actual;
        gat.ForwardInferenceBatch(u, edges, ws, actual, &pool);
        ASSERT_EQ(actual.rows(), expected.rows());
        ASSERT_EQ(actual.cols(), expected.cols());
        for (std::size_t i = 0; i < expected.flat().size(); ++i) {
          // Exact doubles: threaded must be BIT-identical to sequential.
          ASSERT_EQ(actual.flat()[i], expected.flat()[i])
              << "h=" << h << " k=" << k << " threads=" << threads
              << " elem=" << i;
        }
      }
    }
  }
}

// --- GonModel bit-identity ----------------------------------------------

core::GonConfig TinyGonConfig() {
  core::GonConfig cfg;
  cfg.hidden_width = 12;
  cfg.num_layers = 2;
  cfg.gat_width = 6;
  cfg.generation_steps = 3;
  return cfg;
}

sim::SystemSnapshot MakeSnapshot(int hosts, int brokers, double util,
                                 int salt = 0) {
  sim::SystemSnapshot snap;
  snap.topology = sim::Topology::Initial(hosts, brokers);
  snap.hosts.resize(static_cast<std::size_t>(hosts));
  snap.alive.assign(static_cast<std::size_t>(hosts), true);
  for (int i = 0; i < hosts; ++i) {
    auto& m = snap.hosts[static_cast<std::size_t>(i)];
    m.cpu_util = util + 0.01 * ((i + salt) % 11);
    m.ram_util = util * 0.8;
    m.energy_kwh = m.cpu_util * 4e-4;
    m.is_broker = snap.topology.is_broker(i);
  }
  return snap;
}

TEST(AttentionThreadingTest, DiscriminateBatchBitIdenticalAcrossThreads) {
  core::FeatureEncoder encoder;
  core::GonModel sequential(TinyGonConfig());
  for (int hosts : {16, 64, 128}) {
    std::vector<core::EncodedState> states;
    for (int i = 0; i < 7; ++i) {  // ragged K (not a multiple of threads)
      states.push_back(encoder.Encode(
          MakeSnapshot(hosts, std::max(2, hosts / 4), 0.3 + 0.05 * i, i)));
    }
    const std::vector<double> expected = sequential.DiscriminateBatch(
        std::span<const core::EncodedState>(states));
    for (int threads : {2, 4}) {
      nn::WorkerPool pool(threads);
      core::GonModel threaded(TinyGonConfig(), &pool);  // same seed/weights
      const std::vector<double> actual = threaded.DiscriminateBatch(
          std::span<const core::EncodedState>(states));
      ASSERT_EQ(actual.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i])
            << "hosts=" << hosts << " threads=" << threads << " state=" << i;
      }
    }
  }
}

TEST(AttentionThreadingTest, MixedHostCountBatchesStayBitIdentical) {
  // Ragged batches across H buckets: bucketing + threading must still
  // equal the sequential model exactly.
  core::FeatureEncoder encoder;
  std::vector<core::EncodedState> states;
  int salt = 0;
  for (int hosts : {16, 64, 16, 32, 64, 16}) {
    states.push_back(encoder.Encode(
        MakeSnapshot(hosts, std::max(2, hosts / 4), 0.35, ++salt)));
  }
  core::GonModel sequential(TinyGonConfig());
  nn::WorkerPool pool(4);
  core::GonModel threaded(TinyGonConfig(), &pool);
  const std::vector<double> expected = sequential.DiscriminateBatch(
      std::span<const core::EncodedState>(states));
  const std::vector<double> actual = threaded.DiscriminateBatch(
      std::span<const core::EncodedState>(states));
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << i;
  }
}

TEST(AttentionThreadingTest, GenerateBatchConfidencesBitIdentical) {
  // Both the ascent chunks and the final stacked confidence pass fan
  // out. End-to-end generation results must match.
  core::FeatureEncoder encoder;
  core::GonModel sequential(TinyGonConfig());
  nn::WorkerPool pool(3);
  core::GonModel threaded(TinyGonConfig(), &pool);
  std::vector<core::EncodedState> states;
  for (int i = 0; i < 5; ++i) {
    states.push_back(
        encoder.Encode(MakeSnapshot(64, 16, 0.4 + 0.03 * i, i)));
  }
  std::vector<const nn::Matrix*> inits;
  std::vector<const core::EncodedState*> ctxs;
  for (const auto& s : states) {
    inits.push_back(&s.m);
    ctxs.push_back(&s);
  }
  const auto expected = sequential.GenerateBatch(inits, ctxs);
  const auto actual = threaded.GenerateBatch(inits, ctxs);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].steps, expected[i].steps) << i;
    EXPECT_EQ(actual[i].confidence, expected[i].confidence) << i;
    for (std::size_t j = 0; j < expected[i].metrics.flat().size(); ++j) {
      ASSERT_EQ(actual[i].metrics.flat()[j], expected[i].metrics.flat()[j])
          << i;
    }
  }
}

// --- TSan-targeted stress ------------------------------------------------

TEST(AttentionThreadingTest, ConcurrentModelsWithPoolsStress) {
  // Several driver threads, each with its OWN threaded GonModel (the
  // model itself is single-driver), scoring concurrently: exercises many
  // WorkerPools forking/joining at once. Run under TSan in CI.
  constexpr int kDrivers = 3;
  constexpr int kRounds = 8;
  core::FeatureEncoder encoder;
  std::vector<core::EncodedState> states;
  for (int i = 0; i < 6; ++i) {
    states.push_back(encoder.Encode(MakeSnapshot(64, 16, 0.4, i)));
  }
  core::GonModel reference(TinyGonConfig());
  const std::vector<double> expected = reference.DiscriminateBatch(
      std::span<const core::EncodedState>(states));

  std::vector<std::thread> drivers;
  std::atomic<int> mismatches{0};
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      nn::WorkerPool pool(2 + d % 3);
      core::GonModel model(TinyGonConfig(), &pool);
      for (int r = 0; r < kRounds; ++r) {
        const std::vector<double> scores = model.DiscriminateBatch(
            std::span<const core::EncodedState>(states));
        for (std::size_t i = 0; i < scores.size(); ++i) {
          if (scores[i] != expected[i]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace carol
