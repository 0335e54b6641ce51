// Correctness regressions for the nn fast path: the blocked/fused/batched
// kernels must reproduce the naive reference implementations — a perf
// change must not move a single decision. The MatMul kernel is pinned
// EXACTLY (bitwise) to a reference that sums in its order, independently
// of the GON tape oracle, which shares the kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/encoder.h"
#include "core/gon.h"
#include "core/node_shift.h"
#include "core/pot.h"
#include "core/tabu.h"
#include "nn/autograd.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "sim/federation.h"
#include "sim/topology.h"

namespace carol {
namespace {

using nn::Matrix;
using nn::Tape;
using nn::Value;

// out(i, j) += a(i, k) * b(k, j) for k ascending, with no zero skip: the
// order the production kernel must reproduce bit for bit. MatMulInto
// starts from +0 (pass zeros: the textbook i-j-k product), MatMulAccum
// from the destination.
Matrix OrderedReference(const Matrix& a, const Matrix& b, Matrix out) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = out(i, j);
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      out(i, j) = acc;
    }
  }
  return out;
}

// out(t, j) += a(i, t) * b(i, j) for i ascending (MatMulTransAAccum).
Matrix OrderedTransAReference(const Matrix& a, const Matrix& b, Matrix out) {
  for (std::size_t t = 0; t < a.cols(); ++t) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = out(t, j);
      for (std::size_t i = 0; i < a.rows(); ++i) acc += a(i, t) * b(i, j);
      out(t, j) = acc;
    }
  }
  return out;
}

// Bitwise equality, so a sign-of-zero difference fails too.
bool BitIdentical(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.flat().data(), y.flat().data(),
                     x.size() * sizeof(double)) == 0;
}

// Left operands with the zero structures the kernel's row-group skip
// sees on the GON path.
enum class Zeros {
  kNone,          // dense
  kRelu,          // ReLU output: scattered exact zeros
  kDeadColumns,   // whole columns zero (dead units)
  kZeroGroups,    // all-zero 4-row groups next to mixed groups
  kNegativeZero,  // -0.0 entries, alone and as whole groups
};

Matrix LeftOperand(std::size_t m, std::size_t k, Zeros zeros,
                   common::Rng& rng) {
  Matrix a = Matrix::Randn(m, k, rng);
  switch (zeros) {
    case Zeros::kNone:
      break;
    case Zeros::kRelu:
      a.MapInPlaceFn(nn::scalar_ops::Relu);
      break;
    case Zeros::kDeadColumns:
      for (std::size_t c = 0; c < k; c += 3) {
        for (std::size_t r = 0; r < m; ++r) a(r, c) = 0.0;
      }
      break;
    case Zeros::kZeroGroups:
      for (std::size_t c = 0; c < k; ++c) {
        for (std::size_t g = 0; g < m; g += 4) {
          const bool zero_group = (c + g / 4) % 2 == 0;
          for (std::size_t r = g; r < std::min(m, g + 4); ++r) {
            // Mixed groups keep one zero entry among non-zeros.
            if (zero_group || r == g + c % 4) a(r, c) = 0.0;
          }
        }
      }
      break;
    case Zeros::kNegativeZero:
      for (std::size_t c = 0; c < k; ++c) {
        for (std::size_t r = 0; r < m; ++r) {
          if (c % 2 == 0 || (r + c) % 3 == 0) a(r, c) = -0.0;
        }
      }
      break;
  }
  return a;
}

class MatMulShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapeTest, KernelMatchesOrderedReferenceExactly) {
  const auto [m, k, n] = GetParam();
  const auto mu = static_cast<std::size_t>(m);
  const auto ku = static_cast<std::size_t>(k);
  const auto nu = static_cast<std::size_t>(n);
  for (Zeros zeros : {Zeros::kNone, Zeros::kRelu, Zeros::kDeadColumns,
                      Zeros::kZeroGroups, Zeros::kNegativeZero}) {
    const std::string label = "zeros=" + std::to_string(static_cast<int>(zeros));
    common::Rng rng(static_cast<unsigned>(m * 1000 + k * 10 + n));
    const Matrix a = LeftOperand(mu, ku, zeros, rng);
    const Matrix b = Matrix::Randn(ku, nu, rng);
    const Matrix expect = OrderedReference(a, b, Matrix::Zeros(mu, nu));

    EXPECT_TRUE(BitIdentical(a.MatMul(b), expect)) << label;
    Matrix into = Matrix::Randn(3, 2, rng);  // reshaped, not accumulated
    Matrix::MatMulInto(a, b, into);
    EXPECT_TRUE(BitIdentical(into, expect)) << label;

    // Accum continues each element's sum from the destination value.
    const Matrix dest = Matrix::Randn(mu, nu, rng);
    Matrix accum = dest;
    Matrix::MatMulAccum(a, b, accum);
    EXPECT_TRUE(BitIdentical(accum, OrderedReference(a, b, dest))) << label;

    // a * b == TransA(a^T, b).
    const Matrix at = a.Transposed();
    Matrix trans_a = dest;
    Matrix::MatMulTransAAccum(at, b, trans_a);
    EXPECT_TRUE(BitIdentical(trans_a, OrderedTransAReference(at, b, dest)))
        << label;
  }
}

// m off the 4-row tile; n in every column remainder class of the
// 16-column tile (1, 6, 11) and 1-3 whole tiles; k across the 64-wide k
// block edge.
INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulShapeTest,
    ::testing::Combine(::testing::Values(1, 3, 5, 8, 130),
                       ::testing::Values(1, 11, 64, 70, 130),
                       ::testing::Values(1, 6, 11, 16, 32, 48)));

TEST(MatrixPerfTest, MatMulWithReluSparsityMatchesReferenceExactly) {
  common::Rng rng(7);
  Matrix a = Matrix::Randn(33, 65, rng);
  // Exact zeros exercise the row-group zero skip.
  a.MapInPlaceFn(nn::scalar_ops::Relu);
  const Matrix b = Matrix::Randn(65, 17, rng);
  EXPECT_TRUE(BitIdentical(a.MatMul(b),
                           OrderedReference(a, b, Matrix::Zeros(33, 17))));
}

TEST(MatrixPerfTest, InPlaceVariantsMatchOperators) {
  common::Rng rng(9);
  const Matrix a = Matrix::Randn(6, 5, rng);
  const Matrix b = Matrix::Randn(6, 5, rng);

  Matrix add = a;
  add.AddInPlace(b);
  EXPECT_LT(add.MaxAbsDiff(a + b), 1e-15);

  Matrix axpy = a;
  axpy.MulAddInPlace(b, -2.5);
  EXPECT_LT(axpy.MaxAbsDiff(a + b * -2.5), 1e-15);

  Matrix had = a;
  had.HadamardInPlace(b);
  EXPECT_LT(had.MaxAbsDiff(a.Hadamard(b)), 1e-15);

  Matrix hacc = a;
  hacc.HadamardAccum(a, b);
  EXPECT_LT(hacc.MaxAbsDiff(a + a.Hadamard(b)), 1e-15);

  Matrix colsum = Matrix::Zeros(1, 5);
  colsum.AddColumnSums(a);
  EXPECT_LT(colsum.MaxAbsDiff(a.RowSum()), 1e-15);

  Matrix t;
  Matrix::TransposeInto(a, t);
  EXPECT_EQ(t, a.Transposed());

  Matrix sliced;
  sliced.CopyRowsFrom(a, 1, 4);
  EXPECT_EQ(sliced, a.SliceRows(1, 4));
}

TEST(MatrixPerfTest, BufferReuseKeepsShapeAndValues) {
  Matrix m(4, 3, 1.0);
  const double* data_before = m.flat().data();
  m.AssignZeros(2, 5);  // smaller: must reuse the buffer
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m.flat().data(), data_before);
  EXPECT_DOUBLE_EQ(m.Sum(), 0.0);
  m.CopyFrom(Matrix::Ones(3, 2));
  EXPECT_EQ(m.flat().data(), data_before);
  EXPECT_DOUBLE_EQ(m.Sum(), 6.0);
}

// --- fused tape ops -------------------------------------------------------

TEST(FusedLinearTest, MatchesUnfusedForwardAndBackward) {
  common::Rng rng(3);
  const Matrix x_in = Matrix::Randn(5, 7, rng);
  const Matrix w_in = Matrix::Randn(7, 4, rng);
  const Matrix b_in = Matrix::Randn(1, 4, rng);

  for (nn::FusedAct act :
       {nn::FusedAct::kNone, nn::FusedAct::kRelu, nn::FusedAct::kSigmoid,
        nn::FusedAct::kTanh}) {
    Tape fused;
    Value fx = fused.Leaf(x_in, true);
    Value fw = fused.Leaf(w_in, true);
    Value fb = fused.Leaf(b_in, true);
    Value fy = fused.Linear(fx, fw, fb, act);
    Value floss = fused.SumAll(fused.Mul(fy, fy));
    fused.Backward(floss);

    Tape plain;
    Value px = plain.Leaf(x_in, true);
    Value pw = plain.Leaf(w_in, true);
    Value pb = plain.Leaf(b_in, true);
    Value pre = plain.AddRowBroadcast(plain.MatMul(px, pw), pb);
    Value py = pre;
    switch (act) {
      case nn::FusedAct::kNone:
        break;
      case nn::FusedAct::kRelu:
        py = plain.Relu(pre);
        break;
      case nn::FusedAct::kSigmoid:
        py = plain.Sigmoid(pre);
        break;
      case nn::FusedAct::kTanh:
        py = plain.Tanh(pre);
        break;
    }
    Value ploss = plain.SumAll(plain.Mul(py, py));
    plain.Backward(ploss);

    EXPECT_LT(fy.val().MaxAbsDiff(py.val()), 1e-12);
    EXPECT_LT(fx.grad().MaxAbsDiff(px.grad()), 1e-12);
    EXPECT_LT(fw.grad().MaxAbsDiff(pw.grad()), 1e-12);
    EXPECT_LT(fb.grad().MaxAbsDiff(pb.grad()), 1e-12);
  }
}

TEST(FusedLinearTest, SliceRowsGradient) {
  common::Rng rng(5);
  const Matrix in = Matrix::Randn(6, 3, rng);
  Tape t;
  Value x = t.Leaf(in, true);
  Value s = t.SliceRows(x, 2, 5);
  EXPECT_EQ(s.val(), in.SliceRows(2, 5));
  t.Backward(t.SumAll(t.Mul(s, s)));
  for (std::size_t r = 0; r < in.rows(); ++r) {
    for (std::size_t c = 0; c < in.cols(); ++c) {
      const double expect = (r >= 2 && r < 5) ? 2.0 * in(r, c) : 0.0;
      EXPECT_NEAR(x.grad()(r, c), expect, 1e-12);
    }
  }
}

TEST(TapeArenaTest, ResetRecyclesSlotsAndReproducesResults) {
  common::Rng rng(11);
  const Matrix a = Matrix::Randn(8, 8, rng);
  const Matrix b = Matrix::Randn(8, 8, rng);
  Tape tape;
  double first = 0.0;
  std::size_t capacity_after_first = 0;
  for (int round = 0; round < 5; ++round) {
    tape.Reset();
    Value x = tape.LeafRef(a, true);
    Value y = tape.LeafRef(b);
    Value out = tape.SumAll(tape.Tanh(tape.MatMul(x, y)));
    tape.Backward(out);
    if (round == 0) {
      first = out.scalar();
      capacity_after_first = tape.capacity();
    } else {
      EXPECT_DOUBLE_EQ(out.scalar(), first);
      // Steady state: no new node slots after the first build.
      EXPECT_EQ(tape.capacity(), capacity_after_first);
    }
    EXPECT_EQ(tape.size(), 5u);
  }
}

// --- GON batch equivalence ------------------------------------------------

sim::SystemSnapshot PerfSnapshot(int hosts, int brokers, unsigned seed) {
  common::Rng rng(seed);
  sim::SystemSnapshot snap;
  snap.topology = sim::Topology::Initial(hosts, brokers);
  snap.hosts.resize(static_cast<std::size_t>(hosts));
  snap.alive.assign(static_cast<std::size_t>(hosts), true);
  for (int i = 0; i < hosts; ++i) {
    auto& m = snap.hosts[static_cast<std::size_t>(i)];
    const double util = rng.Uniform(0.2, 0.9);
    m.cpu_util = util;
    m.ram_util = util * 0.8;
    m.disk_util = util * 0.3;
    m.net_util = util * 0.2;
    m.energy_kwh = util * 5e-4;
    m.slo_violation_rate = util > 0.8 ? 0.3 : 0.05;
    m.task_cpu_demand_mips = util * 3000.0;
    m.task_ram_demand_mb = util * 2000.0;
    m.avg_deadline_s = 300.0;
    m.sched_cpu_demand_mips = util * 1000.0;
    m.sched_task_count = util * 2.0;
    m.is_broker = snap.topology.is_broker(i);
  }
  return snap;
}

core::GonConfig PerfGonConfig(bool fast) {
  core::GonConfig cfg;
  cfg.hidden_width = 24;
  cfg.num_layers = 2;
  cfg.gat_width = 12;
  cfg.generation_steps = 8;
  cfg.batch_size = 8;
  cfg.seed = 21;
  cfg.use_fast_path = fast;
  return cfg;
}

std::vector<core::EncodedState> PerfStates(int count, int hosts = 8) {
  core::FeatureEncoder encoder;
  std::vector<core::EncodedState> states;
  states.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    states.push_back(encoder.Encode(
        PerfSnapshot(hosts, 2, static_cast<unsigned>(100 + i))));
  }
  return states;
}

TEST(GonBatchTest, DiscriminateBatchMatchesSequential) {
  core::GonModel gon(PerfGonConfig(true));
  const auto states = PerfStates(16);
  const std::vector<double> batch = gon.DiscriminateBatch(
      std::span<const core::EncodedState>(states));
  ASSERT_EQ(batch.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    EXPECT_NEAR(batch[i], gon.Discriminate(states[i]), 1e-9) << "state " << i;
    EXPECT_GT(batch[i], 0.0);
    EXPECT_LT(batch[i], 1.0);
  }
}

TEST(GonBatchTest, FastPathMatchesSeedStylePath) {
  // Same seed => identical weights; only the execution strategy differs.
  core::GonModel fast(PerfGonConfig(true));
  core::GonModel slow(PerfGonConfig(false));
  const auto states = PerfStates(4);
  for (const auto& state : states) {
    EXPECT_NEAR(fast.Discriminate(state), slow.Discriminate(state), 1e-9);
  }
}

TEST(GonBatchTest, GenerateBatchMatchesSequentialGenerate) {
  core::GonModel fast(PerfGonConfig(true));
  core::GonModel slow(PerfGonConfig(false));
  const auto states = PerfStates(6);

  std::vector<const nn::Matrix*> inits;
  std::vector<const core::EncodedState*> ctxs;
  for (const auto& state : states) {
    inits.push_back(&state.m);
    ctxs.push_back(&state);
  }
  const auto batch = fast.GenerateBatch(inits, ctxs);
  ASSERT_EQ(batch.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    const auto seq = slow.Generate(states[i].m, states[i]);
    EXPECT_EQ(batch[i].steps, seq.steps) << "state " << i;
    core::EncodedState batch_out = states[i], seq_out = states[i];
    batch_out.m = batch[i].metrics;
    seq_out.m = seq.metrics;
    EXPECT_NEAR(fast.Discriminate(batch_out), slow.Discriminate(seq_out), 1e-9)
        << "state " << i;
    EXPECT_LT(batch[i].metrics.MaxAbsDiff(seq.metrics), 1e-9)
        << "state " << i;
  }
}

TEST(GonBatchTest, MixedHostCountsFallBackToSequential) {
  core::GonModel gon(PerfGonConfig(true));
  core::FeatureEncoder encoder;
  std::vector<core::EncodedState> states;
  states.push_back(encoder.Encode(PerfSnapshot(8, 2, 1)));
  states.push_back(encoder.Encode(PerfSnapshot(12, 3, 2)));
  const auto batch =
      gon.DiscriminateBatch(std::span<const core::EncodedState>(states));
  ASSERT_EQ(batch.size(), 2u);
  for (std::size_t i = 0; i < states.size(); ++i) {
    EXPECT_NEAR(batch[i], gon.Discriminate(states[i]), 1e-12);
  }
}

// --- tabu batch objective -------------------------------------------------

TEST(TabuBatchTest, BatchObjectiveMatchesSequential) {
  const sim::Topology start = sim::Topology::Initial(12, 3);
  std::vector<bool> alive(12, true);
  auto neighbors = [&](const sim::Topology& g) {
    return core::LocalNeighbors(g, alive, {});
  };
  // A deterministic synthetic objective with real structure.
  auto score_one = [](const sim::Topology& g) {
    double s = 0.0;
    for (sim::NodeId b : g.brokers()) {
      const double load = static_cast<double>(g.workers_of(b).size());
      s += load * load + 0.1 * static_cast<double>(b);
    }
    return s / static_cast<double>(g.num_nodes());
  };

  core::TabuSearch seq;
  const sim::Topology best_seq = seq.Optimize(start, neighbors, score_one);

  core::TabuSearch bat;
  const sim::Topology best_bat = bat.Optimize(
      start, neighbors,
      core::TabuSearch::BatchObjectiveFn(
          [&](const std::vector<sim::Topology>& frontier) {
            std::vector<double> scores;
            for (const auto& g : frontier) scores.push_back(score_one(g));
            return scores;
          }));

  EXPECT_EQ(best_seq.Hash(), best_bat.Hash());
  EXPECT_EQ(seq.evaluations(), bat.evaluations());
  EXPECT_DOUBLE_EQ(seq.best_score(), bat.best_score());
}

// --- POT batch update -----------------------------------------------------

TEST(PotBatchTest, UpdateBatchEndsInSameStateAsSequential) {
  common::Rng rng(13);
  std::vector<double> scores;
  for (int i = 0; i < 120; ++i) {
    scores.push_back(0.7 + 0.1 * rng.Normal());
  }
  core::PotThreshold seq;
  for (double s : scores) seq.Update(s);
  core::PotThreshold bat;
  const double threshold = bat.UpdateBatch(scores);
  EXPECT_TRUE(bat.calibrated());
  EXPECT_DOUBLE_EQ(threshold, seq.threshold());
  EXPECT_EQ(bat.observations(), seq.observations());
}

}  // namespace
}  // namespace carol
