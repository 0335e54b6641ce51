// Pins the tape-free GON decision path — the hand-written Eq.-1 ascent
// with edge-only graph attention — to the stacked-tape ascent and dense
// attention it replaced, BITWISE. The reference lives here, not behind a
// production flag: TapeOracle below is that earlier implementation,
// moved verbatim (tape ForwardBatch, the stacked ascent loop, the dense
// per-state H x H inference pass), running on a mirror of the GON modules
// loaded with nn::CopyParameters.
//
// GonModel's results carry no confidence, so D(M*) is checked by scoring
// the generated metrics with DiscriminateBatch against the oracle's dense
// pass.
//
// Covered: H in {1, 4, 16, 64, 128}, broker counts from 1 to H/4,
// K in {1, 7, 20}, per-candidate early convergence, the grad_scale stop,
// attention weights that underflow to exact zero, dead encoder units
// (zero weight columns), mixed-H buckets and models on injected compute
// pools of width 1 to 4 (fewer candidates than participants, candidate
// counts not divisible by the width, and an active set that shrinks
// mid-call).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/bucket.h"
#include "core/encoder.h"
#include "core/gon.h"
#include "nn/autograd.h"
#include "nn/kernels.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "nn/threading.h"
#include "sim/federation.h"
#include "sim/topology.h"

namespace carol {
namespace {

constexpr int kMsInputWidth = core::FeatureEncoder::kMetricFeatures +
                              core::FeatureEncoder::kSchedFeatures;
constexpr int kGatInputWidth = 4 + core::FeatureEncoder::kRoleFeatures;

// Same modules, names and parameter order as GonModel's network, so
// nn::CopyParameters can load the model's weights into it.
struct MirrorNetwork : nn::Module {
  nn::Mlp ms_encoder;
  nn::GraphAttention gat;
  nn::Mlp head;

  MirrorNetwork(const core::GonConfig& cfg, common::Rng& rng)
      : ms_encoder(MsDims(cfg), rng, "gon.ms", nn::Activation::kRelu),
        gat(kGatInputWidth, static_cast<std::size_t>(cfg.gat_width), rng,
            "gon.gat"),
        head({static_cast<std::size_t>(cfg.hidden_width + cfg.gat_width),
              static_cast<std::size_t>(cfg.hidden_width), 1},
             rng, "gon.head", nn::Activation::kSigmoid) {}

  static std::vector<std::size_t> MsDims(const core::GonConfig& cfg) {
    std::vector<std::size_t> dims = {kMsInputWidth};
    for (int i = 0; i < std::max(1, cfg.num_layers); ++i) {
      dims.push_back(static_cast<std::size_t>(cfg.hidden_width));
    }
    return dims;
  }

  std::vector<nn::Parameter*> Parameters() override {
    std::vector<nn::Parameter*> out;
    for (auto* p : ms_encoder.Parameters()) out.push_back(p);
    for (auto* p : gat.Parameters()) out.push_back(p);
    for (auto* p : head.Parameters()) out.push_back(p);
    return out;
  }

  std::vector<nn::Module*> Children() override {
    return {&ms_encoder, &gat, &head};
  }
};

// One oracle ascent result: M*, the step count and D(M*) from the dense
// inference pass (GonModel's results carry no confidence; the test scores
// their metrics with DiscriminateBatch).
struct OracleResult {
  nn::Matrix metrics;
  double confidence = 0.0;
  int steps = 0;
};

// The stacked-tape ascent and dense inference pass, as GonModel ran them
// before the decision path went tape-free.
class TapeOracle {
 public:
  explicit TapeOracle(core::GonModel& gon)
      : config_(gon.config()), rng_(config_.seed), net_(config_, rng_) {
    nn::CopyParameters(gon.network(), net_);
  }

  std::vector<double> DiscriminateBatch(
      std::span<const core::EncodedState* const> states) {
    std::vector<double> out(states.size());
    const auto buckets = core::GroupIndicesBy(
        states.size(), [&](std::size_t i) { return states[i]->m.rows(); });
    std::vector<const core::EncodedState*> sub_states;
    std::vector<const nn::Matrix*> sub_ms;
    std::vector<double> sub_out;
    for (const auto& bucket : buckets) {
      sub_states.clear();
      sub_ms.clear();
      for (std::size_t i : bucket) {
        sub_states.push_back(states[i]);
        sub_ms.push_back(&states[i]->m);
      }
      ForwardInferenceBatch(sub_ms, sub_states, sub_out);
      for (std::size_t j = 0; j < bucket.size(); ++j) {
        out[bucket[j]] = sub_out[j];
      }
    }
    return out;
  }

  std::vector<OracleResult> GenerateBatch(
      std::span<const nn::Matrix* const> inits,
      std::span<const core::EncodedState* const> contexts) {
    std::vector<OracleResult> results(contexts.size());
    const auto buckets = core::GroupIndicesBy(
        contexts.size(),
        [&](std::size_t i) { return contexts[i]->m.rows(); });
    if (buckets.size() > 1) {
      std::vector<const nn::Matrix*> sub_inits;
      std::vector<const core::EncodedState*> sub_ctxs;
      for (const auto& bucket : buckets) {
        sub_inits.clear();
        sub_ctxs.clear();
        for (std::size_t i : bucket) {
          sub_inits.push_back(inits[i]);
          sub_ctxs.push_back(contexts[i]);
        }
        auto sub = GenerateBatch(sub_inits, sub_ctxs);
        for (std::size_t j = 0; j < bucket.size(); ++j) {
          results[bucket[j]] = std::move(sub[j]);
        }
      }
      return results;
    }

    const std::size_t kTotal = contexts.size();
    const std::size_t h = contexts.front()->m.rows();
    const std::size_t c = contexts.front()->m.cols();
    const std::size_t block = h * c;
    const double lr = config_.generation_lr;

    std::vector<nn::Matrix> m_cur(kTotal);
    for (std::size_t i = 0; i < kTotal; ++i) m_cur[i].CopyFrom(*inits[i]);
    std::vector<double> prev_obj(
        kTotal, -std::numeric_limits<double>::infinity());
    std::vector<char> active(kTotal, 1);
    std::vector<std::size_t> act_idx;
    std::vector<const core::EncodedState*> sub_ctx;

    // (The production loop froze the network here; binding the weights
    // as gradient leaves instead changes no input gradient.)
    for (int step = 0; step < config_.generation_steps; ++step) {
      act_idx.clear();
      for (std::size_t i = 0; i < kTotal; ++i) {
        if (active[i]) act_idx.push_back(i);
      }
      if (act_idx.empty()) break;
      const std::size_t a_count = act_idx.size();

      m_stack_.Resize(a_count * h, c);
      sub_ctx.clear();
      for (std::size_t a = 0; a < a_count; ++a) {
        const nn::Matrix& src = m_cur[act_idx[a]];
        std::copy(src.flat().begin(), src.flat().end(),
                  m_stack_.flat().begin() +
                      static_cast<std::ptrdiff_t>(a * block));
        sub_ctx.push_back(contexts[act_idx[a]]);
      }

      tape_.Reset();
      net_.ClearBindings();
      nn::Value m = tape_.LeafRef(m_stack_, /*requires_grad=*/true);
      nn::Value d = ForwardBatch(tape_, m, sub_ctx);
      nn::Value objective = tape_.SumAll(tape_.Log(d));
      tape_.Backward(objective);
      const nn::Matrix& grad = m.grad();
      const nn::Matrix& scores = d.val();

      for (std::size_t a = 0; a < a_count; ++a) {
        const std::size_t i = act_idx[a];
        const double obj =
            std::log(std::max(scores(a, 0), nn::Tape::kLogEps));
        const double* gp = grad.flat().data() + a * block;
        double grad_scale = 0.0;
        for (std::size_t j = 0; j < block; ++j) {
          grad_scale = std::max(grad_scale, std::abs(gp[j]));
        }
        if (grad_scale < 1e-12) {
          active[i] = 0;
          continue;
        }
        bool moved = false;
        double* mp = m_cur[i].flat().data();
        for (std::size_t j = 0; j < block; ++j) {
          const double delta = lr * gp[j] / grad_scale;
          if (std::abs(delta) > 1e-9) moved = true;
          mp[j] = std::clamp(mp[j] + delta, 0.0, 1.0);
        }
        ++results[i].steps;
        if (!moved ||
            std::abs(obj - prev_obj[i]) < config_.generation_tol) {
          active[i] = 0;
          continue;
        }
        prev_obj[i] = obj;
      }
    }

    std::vector<const nn::Matrix*> m_ptrs;
    for (std::size_t i = 0; i < kTotal; ++i) m_ptrs.push_back(&m_cur[i]);
    std::vector<double> scores;
    ForwardInferenceBatch(m_ptrs, contexts, scores);
    for (std::size_t i = 0; i < kTotal; ++i) {
      results[i].metrics = std::move(m_cur[i]);
      results[i].confidence = scores[i];
    }
    return results;
  }

  MirrorNetwork& network() { return net_; }

 private:
  nn::Value ForwardBatch(nn::Tape& tape, nn::Value m,
                         std::span<const core::EncodedState* const> ctxs) {
    const std::size_t k = ctxs.size();
    const std::size_t h = ctxs.front()->m.rows();

    s_stack_.Resize(k * h, core::FeatureEncoder::kSchedFeatures);
    roles_stack_.Resize(k * h, core::FeatureEncoder::kRoleFeatures);
    for (std::size_t i = 0; i < k; ++i) {
      std::copy(ctxs[i]->s.flat().begin(), ctxs[i]->s.flat().end(),
                s_stack_.flat().begin() +
                    static_cast<std::ptrdiff_t>(
                        i * h * core::FeatureEncoder::kSchedFeatures));
      std::copy(ctxs[i]->roles.flat().begin(), ctxs[i]->roles.flat().end(),
                roles_stack_.flat().begin() +
                    static_cast<std::ptrdiff_t>(
                        i * h * core::FeatureEncoder::kRoleFeatures));
    }
    nn::Value s = tape.LeafRef(s_stack_);
    nn::Value roles = tape.LeafRef(roles_stack_);

    nn::Value ms = tape.ConcatCols(m, s);
    nn::Value e_ms = net_.ms_encoder.Forward(tape, ms);
    nn::Value u = tape.ConcatCols(tape.SliceCols(m, 0, 4), roles);
    adj_ptrs_.clear();
    for (const core::EncodedState* ctx : ctxs) {
      adj_ptrs_.push_back(&ctx->adjacency);
    }
    nn::Value e_g = net_.gat.ForwardBatch(tape, u, adj_ptrs_);
    std::vector<nn::Value> pooled_rows;
    pooled_rows.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      pooled_rows.push_back(tape.ConcatCols(
          tape.RowMean(tape.SliceRows(e_ms, i * h, (i + 1) * h)),
          tape.RowMean(tape.SliceRows(e_g, i * h, (i + 1) * h))));
    }
    nn::Value pooled =
        k == 1 ? pooled_rows.front() : tape.StackRows(pooled_rows);
    return net_.head.Forward(tape, pooled);
  }

  // Dense per-state attention: H x H mask, scores and weights.
  void DenseGatInference(const nn::Matrix& u,
                         std::span<const nn::Matrix* const> adjacencies,
                         nn::Matrix& out) {
    const std::vector<nn::Parameter*> params = net_.gat.Parameters();
    const nn::Matrix& w = params[0]->value;
    const nn::Matrix& b = params[1]->value;
    const nn::Matrix& wq = params[2]->value;
    const std::size_t h = adjacencies.front()->rows();
    const std::size_t k = adjacencies.size();
    const std::size_t width = w.cols();
    out.Resize(k * h, width);
    nn::Matrix hidden, query, mask, hid_s, ht_s, q_s, scores, attn, e_s;
    nn::LinearForward(u, w, b, nn::FusedAct::kTanh, hidden);
    nn::Matrix::MatMulInto(hidden, wq, query);
    for (std::size_t s = 0; s < k; ++s) {
      mask.CopyFrom(*adjacencies[s]);
      for (std::size_t i = 0; i < h; ++i) mask(i, i) = 1.0;  // self-loops
      hid_s.CopyRowsFrom(hidden, s * h, (s + 1) * h);
      q_s.CopyRowsFrom(query, s * h, (s + 1) * h);
      nn::Matrix::TransposeInto(hid_s, ht_s);
      nn::Matrix::MatMulInto(q_s, ht_s, scores);
      nn::MaskedRowSoftmaxForward(scores, mask, attn);
      nn::Matrix::MatMulInto(attn, hid_s, e_s);
      nn::ApplyActivationInPlace(e_s, nn::FusedAct::kSigmoid);
      std::copy(
          e_s.flat().begin(), e_s.flat().end(),
          out.flat().begin() + static_cast<std::ptrdiff_t>(s * h * width));
    }
  }

  void ForwardInferenceBatch(std::span<const nn::Matrix* const> ms,
                             std::span<const core::EncodedState* const> ctxs,
                             std::vector<double>& out) {
    const std::size_t k = ctxs.size();
    const std::size_t h = ctxs.front()->m.rows();
    const std::size_t mc = core::FeatureEncoder::kMetricFeatures;
    nn::Matrix ms_stack(k * h, kMsInputWidth);
    nn::Matrix u_stack(k * h, kGatInputWidth);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t r = 0; r < h; ++r) {
        auto mrow = ms[i]->row(r);
        auto srow = ctxs[i]->s.row(r);
        auto rrow = ctxs[i]->roles.row(r);
        auto ms_row = ms_stack.row(i * h + r);
        std::copy(mrow.begin(), mrow.end(), ms_row.begin());
        std::copy(srow.begin(), srow.end(),
                  ms_row.begin() + static_cast<std::ptrdiff_t>(mc));
        auto u_row = u_stack.row(i * h + r);
        std::copy(mrow.begin(), mrow.begin() + 4, u_row.begin());
        std::copy(rrow.begin(), rrow.end(), u_row.begin() + 4);
      }
    }
    adj_ptrs_.clear();
    for (const core::EncodedState* ctx : ctxs) {
      adj_ptrs_.push_back(&ctx->adjacency);
    }
    nn::Matrix e_g;
    DenseGatInference(u_stack, adj_ptrs_, e_g);

    std::vector<nn::Matrix> mlp_outs, head_outs;
    const nn::Matrix& e_ms =
        net_.ms_encoder.ForwardInference(ms_stack, mlp_outs);
    const std::size_t gw = e_g.cols();
    const std::size_t hw = static_cast<std::size_t>(config_.hidden_width);
    const double inv = h == 0 ? 0.0 : 1.0 / static_cast<double>(h);
    nn::Matrix pooled(k, hw + gw);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t c = 0; c < hw; ++c) {
        double acc = 0.0;
        for (std::size_t r = 0; r < h; ++r) acc += e_ms(i * h + r, c);
        pooled(i, c) = acc * inv;
      }
      for (std::size_t c = 0; c < gw; ++c) {
        double acc = 0.0;
        for (std::size_t r = 0; r < h; ++r) acc += e_g(i * h + r, c);
        pooled(i, hw + c) = acc * inv;
      }
    }
    const nn::Matrix& scores = net_.head.ForwardInference(pooled, head_outs);
    out.resize(k);
    for (std::size_t i = 0; i < k; ++i) out[i] = scores(i, 0);
  }

  core::GonConfig config_;
  common::Rng rng_;
  MirrorNetwork net_;
  nn::Tape tape_;
  nn::Matrix m_stack_, s_stack_, roles_stack_;
  std::vector<const nn::Matrix*> adj_ptrs_;
};

// --- inputs ---------------------------------------------------------------

// A state on a random broker topology: `brokers` brokers drawn from the
// hosts, every other host in a random broker's LEI, random metrics and a
// few failed hosts.
core::EncodedState RandomState(int hosts, int brokers, common::Rng& rng) {
  const std::vector<std::size_t> order =
      rng.Permutation(static_cast<std::size_t>(hosts));
  std::vector<sim::NodeId> assignment(static_cast<std::size_t>(hosts));
  for (int b = 0; b < brokers; ++b) {
    const auto id =
        static_cast<sim::NodeId>(order[static_cast<std::size_t>(b)]);
    assignment[static_cast<std::size_t>(id)] = id;
  }
  for (int j = brokers; j < hosts; ++j) {
    const std::size_t b = rng.Choice(static_cast<std::size_t>(brokers));
    assignment[order[static_cast<std::size_t>(j)]] =
        static_cast<sim::NodeId>(order[b]);
  }
  sim::SystemSnapshot snap;
  snap.topology = sim::Topology::FromAssignment(assignment);
  snap.hosts.resize(static_cast<std::size_t>(hosts));
  snap.alive.assign(static_cast<std::size_t>(hosts), true);
  for (int i = 0; i < hosts; ++i) {
    auto& m = snap.hosts[static_cast<std::size_t>(i)];
    const double util = rng.Uniform(0.05, 0.95);
    m.cpu_util = util;
    m.ram_util = rng.Uniform(0.0, 1.0);
    m.disk_util = util * 0.3;
    m.net_util = rng.Uniform(0.0, 0.5);
    m.energy_kwh = util * 5e-4;
    m.slo_violation_rate = util > 0.8 ? 0.3 : 0.05;
    m.task_cpu_demand_mips = util * 3000.0;
    m.task_ram_demand_mb = util * 2000.0;
    m.avg_deadline_s = 300.0;
    m.sched_cpu_demand_mips = rng.Uniform(0.0, 1000.0);
    m.sched_task_count = rng.Uniform(0.0, 3.0);
    m.is_broker = snap.topology.is_broker(i);
    if (rng.Uniform(0.0, 1.0) < 0.05) {
      m.failed = true;
      snap.alive[static_cast<std::size_t>(i)] = false;
    }
  }
  return core::FeatureEncoder().Encode(snap);
}

// Warm starts: the state's own metrics perturbed, as the tabu search's
// node-shift candidates start from the observed metrics.
nn::Matrix PerturbedInit(const nn::Matrix& m, common::Rng& rng) {
  nn::Matrix init = m;
  for (double& v : init.flat()) {
    v = std::clamp(v + rng.Normal(0.0, 0.1), 0.0, 1.0);
  }
  return init;
}

core::GonConfig ServingConfig() {
  core::GonConfig cfg;
  cfg.hidden_width = 32;
  cfg.num_layers = 2;
  cfg.gat_width = 16;
  cfg.generation_steps = 5;
  cfg.seed = 11;
  return cfg;
}

struct Batch {
  std::vector<core::EncodedState> states;
  std::vector<nn::Matrix> inits;

  std::vector<const core::EncodedState*> StatePtrs() const {
    std::vector<const core::EncodedState*> out;
    for (const auto& s : states) out.push_back(&s);
    return out;
  }
  std::vector<const nn::Matrix*> InitPtrs() const {
    std::vector<const nn::Matrix*> out;
    for (const auto& m : inits) out.push_back(&m);
    return out;
  }
};

Batch MakeBatch(const std::vector<int>& hosts, const std::vector<int>& brokers,
                unsigned seed) {
  common::Rng rng(seed);
  Batch batch;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    batch.states.push_back(RandomState(hosts[i], brokers[i], rng));
  }
  for (const auto& s : batch.states) {
    batch.inits.push_back(PerturbedInit(s.m, rng));
  }
  return batch;
}

// Runs GonModel and the oracle on the same batch and requires every
// result to be bitwise equal. Returns the model's results.
std::vector<core::GenerationResult> ExpectBitIdentical(
    core::GonModel& gon, TapeOracle& oracle, const Batch& batch,
    const std::string& label) {
  const auto states = batch.StatePtrs();
  const auto inits = batch.InitPtrs();
  const std::vector<double> scores = gon.DiscriminateBatch(states);
  const std::vector<double> expected_scores =
      oracle.DiscriminateBatch(states);
  EXPECT_EQ(scores.size(), expected_scores.size()) << label;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    EXPECT_EQ(scores[i], expected_scores[i]) << label << " score " << i;
  }

  auto results = gon.GenerateBatch(inits, states);
  const auto expected = oracle.GenerateBatch(inits, states);
  EXPECT_EQ(results.size(), expected.size()) << label;
  // D(M*): the sparse scoring pass on the generated metrics against the
  // oracle's dense pass.
  std::vector<core::EncodedState> generated(batch.states);
  std::vector<const core::EncodedState*> generated_ptrs;
  for (std::size_t i = 0; i < results.size(); ++i) {
    generated[i].m = results[i].metrics;
    generated_ptrs.push_back(&generated[i]);
  }
  const std::vector<double> confidences =
      gon.DiscriminateBatch(generated_ptrs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].steps, expected[i].steps) << label << " state " << i;
    EXPECT_EQ(confidences[i], expected[i].confidence)
        << label << " state " << i;
    const auto got = results[i].metrics.flat();
    const auto want = expected[i].metrics.flat();
    EXPECT_EQ(got.size(), want.size()) << label << " state " << i;
    std::size_t mismatches = 0;
    for (std::size_t j = 0; j < std::min(got.size(), want.size()); ++j) {
      if (got[j] != want[j]) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << label << " state " << i;
  }
  return results;
}

// --- tests ----------------------------------------------------------------

TEST(GonAscentTest, MatchesTapeOracleAcrossHostAndBrokerCounts) {
  core::GonModel gon(ServingConfig());
  TapeOracle oracle(gon);
  unsigned seed = 1;
  for (int h : {1, 4, 16, 64, 128}) {
    const int max_brokers = std::max(1, h / 4);
    std::vector<int> broker_counts = {1, max_brokers};
    if (h >= 64) broker_counts.insert(broker_counts.begin() + 1, 8);
    for (int b : broker_counts) {
      for (std::size_t k : {1u, 7u, 20u}) {
        if (h == 128 && b != 8 && k != 20) continue;  // keep it quick
        const std::string label = "H=" + std::to_string(h) +
                                  " B=" + std::to_string(b) +
                                  " K=" + std::to_string(k);
        const Batch batch = MakeBatch(std::vector<int>(k, h),
                                      std::vector<int>(k, b), ++seed);
        ExpectBitIdentical(gon, oracle, batch, label);
      }
    }
  }
}

TEST(GonAscentTest, DeeperNarrowerNetworkMatchesOracle) {
  core::GonConfig cfg = ServingConfig();
  cfg.hidden_width = 20;
  cfg.num_layers = 3;
  cfg.gat_width = 70;  // wider than one 64-column MatMul k-block
  cfg.generation_steps = 4;
  core::GonModel gon(cfg);
  TapeOracle oracle(gon);
  const Batch batch = MakeBatch(std::vector<int>(7, 32),
                                std::vector<int>(7, 4), 77);
  ExpectBitIdentical(gon, oracle, batch, "L=3 G=70");
}

TEST(GonAscentTest, PerCandidateEarlyConvergenceMatchesOracle) {
  core::GonConfig cfg = ServingConfig();
  cfg.generation_steps = 12;
  cfg.generation_tol = 5e-3;  // candidates drop out at different steps
  core::GonModel gon(cfg);
  TapeOracle oracle(gon);
  const Batch batch = MakeBatch(std::vector<int>(20, 16),
                                std::vector<int>(20, 3), 5);
  const auto results = ExpectBitIdentical(gon, oracle, batch, "tol");
  int min_steps = cfg.generation_steps, max_steps = 0;
  for (const auto& r : results) {
    min_steps = std::min(min_steps, r.steps);
    max_steps = std::max(max_steps, r.steps);
  }
  EXPECT_LT(min_steps, max_steps) << "no candidate converged early";
}

TEST(GonAscentTest, GradScaleStopMatchesOracle) {
  // A saturated sigmoid head leaves grad_M log D below the 1e-12 stop
  // (nonzero, but tiny), so every candidate stops before its first step.
  core::GonModel gon(ServingConfig());
  gon.network().Parameters().back()->value(0, 0) = 30.0;  // head bias
  TapeOracle oracle(gon);
  const Batch batch = MakeBatch(std::vector<int>(7, 16),
                                std::vector<int>(7, 4), 9);
  const auto results = ExpectBitIdentical(gon, oracle, batch, "stop");
  for (const auto& r : results) EXPECT_EQ(r.steps, 0);
}

TEST(GonAscentTest, UnderflowingAttentionMatchesOracle) {
  // Large GAT weights saturate tanh and spread the scores by hundreds, so
  // some admitted attention weights underflow to exactly 0 — the zero
  // skips of the aggregation and its backward must match the dense path.
  core::GonModel gon(ServingConfig());
  for (nn::Parameter* p : gon.network().Parameters()) {
    if (p->name == "gon.gat.w") p->value *= 20.0;
    if (p->name == "gon.gat.wq") p->value *= 200.0;
  }
  TapeOracle oracle(gon);
  const Batch batch = MakeBatch(std::vector<int>(7, 64),
                                std::vector<int>(7, 16), 13);

  // Check that the case is exercised: some edge weights are exact zeros.
  std::vector<const nn::Matrix*> adjs;
  for (const auto& s : batch.states) adjs.push_back(&s.adjacency);
  nn::AttentionEdges edges;
  edges.Build(adjs);
  nn::Matrix u(7 * 64, kGatInputWidth);
  for (std::size_t i = 0; i < batch.states.size(); ++i) {
    for (std::size_t r = 0; r < 64; ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        u(i * 64 + r, c) = batch.states[i].m(r, c);
      }
      for (std::size_t c = 0; c < 2; ++c) {
        u(i * 64 + r, 4 + c) = batch.states[i].roles(r, c);
      }
    }
  }
  nn::GraphAttention::Activations act;
  oracle.network().gat.ForwardSparse(u, edges, 0, act);
  EXPECT_GT(std::count(act.attn.begin(), act.attn.end(), 0.0), 0);

  ExpectBitIdentical(gon, oracle, batch, "underflow");
}

TEST(GonAscentTest, MixedHostCountBucketsMatchOracle) {
  core::GonModel gon(ServingConfig());
  TapeOracle oracle(gon);
  const Batch batch =
      MakeBatch({16, 4, 16, 64, 4, 1, 16}, {4, 1, 2, 16, 1, 1, 3}, 21);
  ExpectBitIdentical(gon, oracle, batch, "mixed");
}

TEST(GonAscentTest, PooledModelMatchesOracle) {
  // The ascent's candidate chunks (kAscentChunkRows / width host rows
  // each) and the scoring pass fan out over the pool; which participant
  // claims which chunk must not move a bit.
  core::GonConfig converging = ServingConfig();
  converging.generation_steps = 12;
  converging.generation_tol = 5e-3;  // the active set shrinks mid-call
  for (int width : {1, 2, 3, 4}) {
    nn::WorkerPool pool(width);
    const std::string w = " width=" + std::to_string(width);
    {
      core::GonModel gon(ServingConfig(), &pool);
      TapeOracle oracle(gon);
      // Fewer candidates than participants: one state per chunk at H=128.
      for (std::size_t k : {1u, 2u}) {
        const Batch few = MakeBatch(std::vector<int>(k, 128),
                                    std::vector<int>(k, 8), 30 + k);
        ExpectBitIdentical(gon, oracle, few,
                           "K=" + std::to_string(k) + w);
      }
      // K not divisible by the width, several chunks per participant.
      const Batch ragged = MakeBatch(std::vector<int>(9, 64),
                                     std::vector<int>(9, 8), 31);
      ExpectBitIdentical(gon, oracle, ragged, "K=9" + w);
      const Batch mixed =
          MakeBatch({16, 64, 16, 32, 64}, {4, 8, 2, 8, 16}, 32);
      ExpectBitIdentical(gon, oracle, mixed, "mixed" + w);
    }
    core::GonModel gon(converging, &pool);
    TapeOracle oracle(gon);
    const Batch batch = MakeBatch(std::vector<int>(20, 32),
                                  std::vector<int>(20, 4), 33);
    const auto results = ExpectBitIdentical(gon, oracle, batch, "tol" + w);
    int min_steps = converging.generation_steps, max_steps = 0;
    for (const auto& r : results) {
      min_steps = std::min(min_steps, r.steps);
      max_steps = std::max(max_steps, r.steps);
    }
    EXPECT_LT(min_steps, max_steps) << "no candidate converged early" << w;
  }
}

TEST(GonAscentTest, DeadEncoderUnitsMatchOracleAcrossPoolWidths) {
  // Zeroed weight columns make encoder units dead for every input (the
  // biases start at 0): whole zero columns in the ReLU outputs and their
  // backward, so the MatMul kernel's row-group zero skip runs through
  // every step of the ascent, forward and backward.
  for (int width : {1, 2, 3, 4}) {
    nn::WorkerPool pool(width);
    core::GonModel gon(ServingConfig(), &pool);
    for (nn::Parameter* p : gon.network().Parameters()) {
      if (p->name != "gon.ms.l0.w" && p->name != "gon.ms.l1.w") continue;
      for (std::size_t c = 0; c < p->value.cols(); c += 3) {
        for (std::size_t r = 0; r < p->value.rows(); ++r) p->value(r, c) = 0.0;
      }
    }
    TapeOracle oracle(gon);
    const std::string w = " width=" + std::to_string(width);
    ExpectBitIdentical(gon, oracle,
                       MakeBatch(std::vector<int>(9, 64),
                                 std::vector<int>(9, 8), 50 + width),
                       "dead units K=9" + w);
    ExpectBitIdentical(gon, oracle,
                       MakeBatch(std::vector<int>(20, 128),
                                 std::vector<int>(20, 8), 60 + width),
                       "dead units K=20" + w);
  }
}

TEST(GonAscentTest, ResultsDoNotDependOnBatchComposition) {
  // A candidate's trajectory is the same alone as inside a stack whose
  // other candidates converge at different steps.
  core::GonConfig cfg = ServingConfig();
  cfg.generation_steps = 10;
  cfg.generation_tol = 5e-3;
  core::GonModel gon(cfg);
  const Batch batch = MakeBatch(std::vector<int>(7, 16),
                                std::vector<int>(7, 4), 41);
  const auto together = gon.GenerateBatch(batch.InitPtrs(), batch.StatePtrs());
  for (std::size_t i = 0; i < batch.states.size(); ++i) {
    const auto alone = gon.Generate(batch.inits[i], batch.states[i]);
    EXPECT_EQ(alone.steps, together[i].steps) << i;
    EXPECT_TRUE(alone.metrics == together[i].metrics) << i;
  }
}

}  // namespace
}  // namespace carol
