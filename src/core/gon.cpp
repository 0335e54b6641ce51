#include "core/gon.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/log.h"
#include "core/bucket.h"
#include "nn/simd.h"

namespace carol::core {

namespace {
constexpr int kMsInputWidth =
    FeatureEncoder::kMetricFeatures + FeatureEncoder::kSchedFeatures;  // 11
constexpr int kGatInputWidth = 4 + FeatureEncoder::kRoleFeatures;      // 6
// Host rows per stacked ascent chunk (see GenerateBatch).
constexpr std::size_t kAscentChunkRows = 512;
}  // namespace

// The composite discriminator of Figure 3: per-host feed-forward encoder
// for [M,S], graph-attention branch for G, sigmoid likelihood head.
struct GonModel::Network : nn::Module {
  nn::Mlp ms_encoder;
  nn::GraphAttention gat;
  nn::Mlp head;

  Network(const GonConfig& cfg, common::Rng& rng)
      : ms_encoder(MsDims(cfg), rng, "gon.ms", nn::Activation::kRelu),
        gat(kGatInputWidth, static_cast<std::size_t>(cfg.gat_width), rng,
            "gon.gat"),
        head({static_cast<std::size_t>(cfg.hidden_width + cfg.gat_width),
              static_cast<std::size_t>(cfg.hidden_width), 1},
             rng, "gon.head", nn::Activation::kSigmoid) {
    ms_encoder.set_fused(cfg.use_fast_path);
    gat.set_fused(cfg.use_fast_path);
    head.set_fused(cfg.use_fast_path);
  }

  static std::vector<std::size_t> MsDims(const GonConfig& cfg) {
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

// Eq.-1 ascent buffers of one pool slot: a chunk's candidates, their
// stacked inputs and attention edges, and the forward activations kept
// for the backward sweep.
struct GonModel::AscentSlot {
  std::vector<const nn::Matrix*> ms;
  std::vector<const EncodedState*> ctxs;
  nn::AttentionEdges edges;      // the chunk's sub-stack of the call's edges
  nn::Matrix ms_stack;           // [A*H x 11]
  nn::Matrix u_stack;            // [A*H x 6]
  nn::Matrix pooled;             // [A x hidden+gat]
  std::vector<nn::Matrix> enc;   // encoder layer outputs
  nn::GraphAttention::Activations gat;
  std::vector<nn::Matrix> head;  // head layer outputs; back() is D
  nn::Matrix d_score;            // d log D / d D            [A x 1]
  nn::Matrix d_ems, d_eg;        // mean-pool input gradients
  nn::Matrix d_u;                // GAT input gradient       [A*H x 6]
  nn::Mlp::GradScratch enc_grad, head_grad;
  nn::GraphAttention::GradScratch gat_grad;
  nn::Matrix grad;               // grad_M sum log D         [A*H x 9]
};

// Recycled buffers for the tape-free scoring path, the hand-written
// ascent and the stacked training tape builds; steady state is
// allocation-free.
struct GonModel::InferenceWorkspace {
  nn::Matrix ms_stack;     // [K*H x 11]
  nn::Matrix u_stack;      // [K*H x 6]
  nn::Matrix s_stack;      // [K*H x 2]  (tape builds)
  nn::Matrix roles_stack;  // [K*H x 2]  (tape builds)
  nn::Matrix m_stack;      // [K*H x 9]  (tape builds)
  std::vector<nn::Matrix> mlp_outs;
  std::vector<nn::Matrix> head_outs;
  nn::GraphAttention::InferenceScratch gat;
  nn::Matrix e_g;     // [K*H x gat_width]
  nn::Matrix pooled;  // [K x hidden+gat]
  nn::Matrix ones_stack;
  // Attention edges of all the states of a DiscriminateBatch or
  // GenerateBatch call.
  nn::AttentionEdges edges;
  std::vector<const nn::Matrix*> adj_ptrs;
  std::vector<const nn::Matrix*> m_ptrs;
  // Per-slot encoder scratch for the threaded scoring path: pool slot t
  // owns enc_chunks[t] (only the participant holding slot t ever
  // touches it; see nn/threading.h).
  struct EncoderChunk {
    nn::Matrix in;  // this slot's [B*H x 11] row block
    std::vector<nn::Matrix> mlp;
  };
  std::vector<EncoderChunk> enc_chunks;
  // Eq.-1 ascent buffers, one per pool slot.
  std::vector<AscentSlot> ascent;
};

namespace {

// dst[c] = (sum of rows [row, row + h) of m, column c) * inv. Lanes are
// columns: each column sums its rows in ascending order from +0, then
// scales, as the RowMean tape op does.
void MeanRows(const nn::Matrix& m, std::size_t row, std::size_t h,
              double inv, double* dst) {
  using nn::simd::Vec;
  constexpr std::size_t kL = nn::simd::kLanes;
  const std::size_t w = m.cols();
  const double* src = m.flat().data() + row * w;
  std::size_t c = 0;
  for (; c + 2 * kL <= w; c += 2 * kL) {
    Vec a0{}, a1{};
    for (std::size_t r = 0; r < h; ++r) {
      a0 += nn::simd::Load(src + r * w + c);
      a1 += nn::simd::Load(src + r * w + c + kL);
    }
    nn::simd::Store(dst + c, a0 * inv);
    nn::simd::Store(dst + c + kL, a1 * inv);
  }
  for (; c + kL <= w; c += kL) {
    Vec a{};
    for (std::size_t r = 0; r < h; ++r) a += nn::simd::Load(src + r * w + c);
    nn::simd::Store(dst + c, a * inv);
  }
  for (; c < w; ++c) {
    double acc = 0.0;
    for (std::size_t r = 0; r < h; ++r) acc += src[r * w + c];
    dst[c] = acc * inv;
  }
}

// Mean-pools one state's H encoder rows (from row `ems_row` of `e_ms`)
// and GAT rows (from row `eg_row` of `e_g`) into its [hidden + gat]
// head-input row.
void PoolState(const nn::Matrix& e_ms, std::size_t ems_row,
               const nn::Matrix& e_g, std::size_t eg_row, std::size_t h,
               double* prow) {
  const double inv = h == 0 ? 0.0 : 1.0 / static_cast<double>(h);
  MeanRows(e_ms, ems_row, h, inv, prow);
  MeanRows(e_g, eg_row, h, inv, prow + e_ms.cols());
}

// Writes the [M_i, S_i] encoder rows and [M_i[:, :4], roles_i] GAT rows
// of states [i0, i1) into rows [i0*H, i1*H) of the stacks (sized by the
// caller).
void StackInputs(std::span<const nn::Matrix* const> ms,
                 std::span<const EncodedState* const> ctxs, std::size_t i0,
                 std::size_t i1, nn::Matrix& ms_stack, nn::Matrix& u_stack) {
  const std::size_t h = ctxs.front()->m.rows();
  constexpr std::size_t mc = FeatureEncoder::kMetricFeatures;
  constexpr std::size_t sc = FeatureEncoder::kSchedFeatures;
  constexpr std::size_t rc = FeatureEncoder::kRoleFeatures;
  constexpr auto kMsWidth = static_cast<std::size_t>(kMsInputWidth);
  constexpr auto kGatWidth = static_cast<std::size_t>(kGatInputWidth);
  for (std::size_t i = i0; i < i1; ++i) {
    const double* m = ms[i]->flat().data();
    const double* s = ctxs[i]->s.flat().data();
    const double* roles = ctxs[i]->roles.flat().data();
    double* ms_row = ms_stack.flat().data() + i * h * kMsWidth;
    double* u_row = u_stack.flat().data() + i * h * kGatWidth;
    for (std::size_t r = 0; r < h; ++r) {
      for (std::size_t c = 0; c < mc; ++c) ms_row[c] = m[c];
      for (std::size_t c = 0; c < sc; ++c) ms_row[mc + c] = s[c];
      for (std::size_t c = 0; c < 4; ++c) u_row[c] = m[c];
      for (std::size_t c = 0; c < rc; ++c) u_row[4 + c] = roles[c];
      m += mc;
      s += sc;
      roles += rc;
      ms_row += kMsWidth;
      u_row += kGatWidth;
    }
  }
}

// One Eq.-1 step on a candidate's metrics `mp` (n entries) from its
// gradient `gp`: M <- clamp(M + lr * grad / max|grad|, 0, 1). Returns
// false, leaving M untouched, when max|grad| < 1e-12; otherwise sets
// `moved` to whether any |delta| > 1e-9. Lanes are entries, each
// evaluating the scalar expressions of the tail loop, and the max is
// exact in any order.
bool AscentStep(const double* gp, double* mp, std::size_t n, double lr,
                bool& moved) {
  using nn::simd::Vec;
  constexpr std::size_t kL = nn::simd::kLanes;
  Vec scale_v{};
  std::size_t j = 0;
  for (; j + kL <= n; j += kL) {
    const Vec g = nn::simd::Load(gp + j);
    const Vec ag = g < 0.0 ? -g : g;
    scale_v = scale_v < ag ? ag : scale_v;
  }
  double grad_scale = 0.0;
  for (std::size_t l = 0; l < kL; ++l) {
    grad_scale = std::max(grad_scale, scale_v[l]);
  }
  for (; j < n; ++j) grad_scale = std::max(grad_scale, std::abs(gp[j]));
  if (grad_scale < 1e-12) return false;
  const Vec one = Vec{} + 1.0;
  decltype(Vec{} < Vec{}) moved_v{};
  j = 0;
  for (; j + kL <= n; j += kL) {
    const Vec delta = lr * nn::simd::Load(gp + j) / grad_scale;
    moved_v |= (delta > 1e-9) | (delta < -1e-9);
    const Vec v = nn::simd::Load(mp + j) + delta;
    nn::simd::Store(mp + j, v < 0.0 ? Vec{} : (1.0 < v ? one : v));  // clamp
  }
  moved = false;
  for (std::size_t l = 0; l < kL; ++l) moved |= moved_v[l] != 0;
  for (; j < n; ++j) {
    const double delta = lr * gp[j] / grad_scale;
    if (std::abs(delta) > 1e-9) moved = true;
    mp[j] = std::clamp(mp[j] + delta, 0.0, 1.0);
  }
  return true;
}

// Rejects a state the stacked kernels would read out of bounds: every
// state's s, roles and adjacency must match its metrics' host count.
void CheckStates(std::span<const EncodedState* const> states,
                 const char* where) {
  for (std::size_t i = 0; i < states.size(); ++i) {
    const std::string error = states[i]->ShapeError();
    if (!error.empty()) {
      throw std::invalid_argument(std::string(where) + ": state " +
                                  std::to_string(i) + ": " + error);
    }
  }
}

}  // namespace

GonModel::~GonModel() = default;

GonModel::GonModel(const GonConfig& config, nn::WorkerPool* pool)
    : config_(config),
      rng_(config.seed),
      pool_(pool != nullptr && pool->width() > 1 ? pool : nullptr) {
  net_impl_ = std::make_unique<Network>(config_, rng_);
  optimizer_ = std::make_unique<nn::Adam>(
      net().Parameters(), config_.train_lr, 0.9, 0.999, 1e-8,
      config_.weight_decay);
  inference_ = std::make_unique<InferenceWorkspace>();
}

nn::Module& GonModel::network() { return *net_impl_; }
const nn::Module& GonModel::network() const { return *net_impl_; }

bool GonModel::SameHostCount(std::span<const EncodedState* const> states) {
  for (const EncodedState* s : states) {
    if (s->m.rows() != states.front()->m.rows()) return false;
  }
  return true;
}

nn::Value GonModel::Forward(nn::Tape& tape, nn::Value m,
                            const EncodedState& ctx) {
  Network& net = *net_impl_;
  nn::Value s = tape.LeafRef(ctx.s);
  nn::Value roles = tape.LeafRef(ctx.roles);
  // E_{M,S} = ReLU(FeedForward([M, S])) per host, mean-pooled (Eq. 3).
  nn::Value ms = tape.ConcatCols(m, s);
  nn::Value e_ms = net.ms_encoder.Forward(tape, ms);
  // GAT branch over utilization features + role flags (Eq. 4).
  nn::Value u = tape.ConcatCols(tape.SliceCols(m, 0, 4), roles);
  nn::Value e_g = net.gat.Forward(tape, u, ctx.adjacency);
  // Sigmoid head over pooled representations (Eq. 5).
  nn::Value pooled = tape.ConcatCols(tape.RowMean(e_ms), tape.RowMean(e_g));
  return net.head.Forward(tape, pooled);
}

nn::Value GonModel::ForwardBatch(nn::Tape& tape, nn::Value m,
                                 std::span<const EncodedState* const> ctxs) {
  Network& net = *net_impl_;
  InferenceWorkspace& ws = *inference_;
  const std::size_t k = ctxs.size();
  const std::size_t h = ctxs.front()->m.rows();

  // Stacked S and role constants.
  ws.s_stack.Resize(k * h, FeatureEncoder::kSchedFeatures);
  ws.roles_stack.Resize(k * h, FeatureEncoder::kRoleFeatures);
  for (std::size_t i = 0; i < k; ++i) {
    std::copy(ctxs[i]->s.flat().begin(), ctxs[i]->s.flat().end(),
              ws.s_stack.flat().begin() +
                  static_cast<std::ptrdiff_t>(i * h *
                                              FeatureEncoder::kSchedFeatures));
    std::copy(ctxs[i]->roles.flat().begin(), ctxs[i]->roles.flat().end(),
              ws.roles_stack.flat().begin() +
                  static_cast<std::ptrdiff_t>(i * h *
                                              FeatureEncoder::kRoleFeatures));
  }
  nn::Value s = tape.LeafRef(ws.s_stack);
  nn::Value roles = tape.LeafRef(ws.roles_stack);

  // Rows are per-host, so the stacked encoder pass equals K separate
  // passes row for row (Eq. 3 batched).
  nn::Value ms = tape.ConcatCols(m, s);
  nn::Value e_ms = net.ms_encoder.Forward(tape, ms);
  // GAT branch: shared projections batched, attention per state (Eq. 4).
  nn::Value u = tape.ConcatCols(tape.SliceCols(m, 0, 4), roles);
  ws.adj_ptrs.clear();
  for (const EncodedState* ctx : ctxs) ws.adj_ptrs.push_back(&ctx->adjacency);
  nn::Value e_g = net.gat.ForwardBatch(tape, u, ws.adj_ptrs);
  // Per-state mean-pools, stacked into the [K x hidden+gat] head input.
  std::vector<nn::Value> pooled_rows;
  pooled_rows.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    pooled_rows.push_back(tape.ConcatCols(
        tape.RowMean(tape.SliceRows(e_ms, i * h, (i + 1) * h)),
        tape.RowMean(tape.SliceRows(e_g, i * h, (i + 1) * h))));
  }
  nn::Value pooled =
      k == 1 ? pooled_rows.front() : tape.StackRows(pooled_rows);
  return net.head.Forward(tape, pooled);  // [K x 1] scores (Eq. 5)
}

void GonModel::ForwardInferenceBatch(
    std::span<const nn::Matrix* const> ms,
    std::span<const EncodedState* const> ctxs,
    const nn::AttentionEdges& edges, std::vector<double>& out) {
  Network& net = *net_impl_;
  InferenceWorkspace& ws = *inference_;
  const std::size_t k = ctxs.size();
  const std::size_t h = ctxs.front()->m.rows();
  nn::WorkerPool* pool = k > 1 ? pool_ : nullptr;

  // Stack [M_i, S_i] rows and the GAT inputs in one sweep. Each state
  // owns its row block, so the sweep fans out across the pool.
  ws.ms_stack.Resize(k * h, kMsInputWidth);
  ws.u_stack.Resize(k * h, kGatInputWidth);
  if (pool != nullptr) {
    pool->ParallelFor(k, [&](std::size_t i0, std::size_t i1, int) {
      StackInputs(ms, ctxs, i0, i1, ws.ms_stack, ws.u_stack);
    });
  } else {
    StackInputs(ms, ctxs, 0, k, ws.ms_stack, ws.u_stack);
  }

  // GAT branch: shared projections row-partitioned by state block,
  // per-state sparse attention fanned across the pool (see layers.cpp).
  net.gat.ForwardInferenceBatch(ws.u_stack, edges, ws.gat, ws.e_g, pool);

  // Encoder + per-state mean-pool. Threaded: each participant encodes
  // the rows of the contiguous state blocks it claims and pools them
  // straight into the (disjoint) pooled rows — the row-partitioned encoder equals the one
  // stacked kernel of the sequential path bit for bit (see
  // src/nn/README.md).
  const std::size_t gw = ws.e_g.cols();
  const std::size_t hw = static_cast<std::size_t>(config_.hidden_width);
  ws.pooled.Resize(k, hw + gw);
  double* pooled = ws.pooled.flat().data();
  if (pool != nullptr) {
    if (ws.enc_chunks.size() < static_cast<std::size_t>(pool->width())) {
      ws.enc_chunks.resize(static_cast<std::size_t>(pool->width()));
    }
    pool->ParallelFor(k, [&](std::size_t i0, std::size_t i1, int t) {
      InferenceWorkspace::EncoderChunk& chunk =
          ws.enc_chunks[static_cast<std::size_t>(t)];
      chunk.in.CopyRowsFrom(ws.ms_stack, i0 * h, i1 * h);
      const nn::Matrix& e_ms =
          net.ms_encoder.ForwardInference(chunk.in, chunk.mlp);
      for (std::size_t i = i0; i < i1; ++i) {
        PoolState(e_ms, (i - i0) * h, ws.e_g, i * h, h,
                  pooled + i * (hw + gw));
      }
    });
  } else {
    const nn::Matrix& e_ms =
        net.ms_encoder.ForwardInference(ws.ms_stack, ws.mlp_outs);
    for (std::size_t i = 0; i < k; ++i) {
      PoolState(e_ms, i * h, ws.e_g, i * h, h, pooled + i * (hw + gw));
    }
  }

  const nn::Matrix& scores =
      net.head.ForwardInference(ws.pooled, ws.head_outs);
  out.resize(k);
  for (std::size_t i = 0; i < k; ++i) out[i] = scores(i, 0);
}

void GonModel::AscentGradient(AscentSlot& as) const {
  const Network& net = *net_impl_;
  const std::span<const nn::Matrix* const> ms(as.ms);
  const std::span<const EncodedState* const> ctxs(as.ctxs);
  const nn::AttentionEdges& edges = as.edges;
  const std::size_t k = ctxs.size();
  const std::size_t h = ctxs.front()->m.rows();
  const std::size_t hw = static_cast<std::size_t>(config_.hidden_width);
  const std::size_t gw = static_cast<std::size_t>(config_.gat_width);
  const std::size_t mc = FeatureEncoder::kMetricFeatures;

  // Forward (Eqs. 3-5) with the kernels of the scoring path, keeping
  // every activation the backward sweep reads.
  as.ms_stack.Resize(k * h, kMsInputWidth);
  as.u_stack.Resize(k * h, kGatInputWidth);
  StackInputs(ms, ctxs, 0, k, as.ms_stack, as.u_stack);
  net.ms_encoder.ForwardInference(as.ms_stack, as.enc);
  net.gat.ForwardSparse(as.u_stack, edges, 0, as.gat);
  as.pooled.Resize(k, hw + gw);
  for (std::size_t i = 0; i < k; ++i) {
    PoolState(as.enc.back(), i * h, as.gat.out, i * h, h,
              as.pooled.flat().data() + i * (hw + gw));
  }
  net.head.ForwardInference(as.pooled, as.head);
  const nn::Matrix& d = as.head.back();

  // Backward of sum_i log D_i with respect to M only. Each step applies
  // the expression of the tape op it replaces, and every buffer sums its
  // contributions in the tape's reverse-node order (see src/nn/README.md).
  as.d_score.Resize(k, 1);
  for (std::size_t i = 0; i < k; ++i) {
    as.d_score(i, 0) = 1.0 / std::max(d(i, 0), nn::Tape::kLogEps);
  }
  const nn::Matrix& d_pooled =
      net.head.BackwardInput(as.head, as.d_score, as.head_grad);
  // RowMean: each of a state's H rows receives d_pooled / H.
  const double inv = h == 0 ? 0.0 : 1.0 / static_cast<double>(h);
  as.d_ems.Resize(k * h, hw);
  as.d_eg.Resize(k * h, gw);
  for (std::size_t i = 0; i < k && h > 0; ++i) {
    const double* prow = d_pooled.flat().data() + i * (hw + gw);
    double* ems = as.d_ems.flat().data() + i * h * hw;
    double* eg = as.d_eg.flat().data() + i * h * gw;
    for (std::size_t c = 0; c < hw; ++c) ems[c] = prow[c] * inv;
    for (std::size_t c = 0; c < gw; ++c) eg[c] = prow[hw + c] * inv;
    for (std::size_t r = 1; r < h; ++r) {
      std::copy(ems, ems + hw, ems + r * hw);
      std::copy(eg, eg + gw, eg + r * gw);
    }
  }
  net.gat.BackwardInput(edges, as.gat, as.d_eg, as.gat_grad, as.d_u);
  const nn::Matrix& d_ms =
      net.ms_encoder.BackwardInput(as.enc, as.d_ems, as.enc_grad);
  // M feeds the encoder (all 9 columns) and the GAT input (the first 4
  // utilization columns): two terms per entry, and a two-term sum is the
  // same in either order.
  as.grad.Resize(k * h, mc);
  for (std::size_t r = 0; r < k * h; ++r) {
    for (std::size_t c = 0; c < mc; ++c) {
      as.grad(r, c) = c < 4 ? as.d_u(r, c) + d_ms(r, c) : d_ms(r, c);
    }
  }
}

double GonModel::Discriminate(const EncodedState& state) {
  const EncodedState* p = &state;
  CheckStates(std::span<const EncodedState* const>(&p, 1), "Discriminate");
  if (config_.use_fast_path) {
    const nn::Matrix* m = &state.m;
    std::vector<double> score;
    InferenceWorkspace& ws = *inference_;
    ws.adj_ptrs.assign(1, &state.adjacency);
    ws.edges.Build(ws.adj_ptrs);
    ForwardInferenceBatch(std::span<const nn::Matrix* const>(&m, 1),
                          std::span<const EncodedState* const>(&p, 1),
                          ws.edges, score);
    return score.front();
  }
  nn::Tape tape;
  tape.set_naive_kernels(true);  // seed-style reference execution
  net().ClearBindings();
  nn::Value m = tape.Leaf(state.m);
  return Forward(tape, m, state).scalar();
}

std::vector<double> GonModel::DiscriminateBatch(
    std::span<const EncodedState* const> states) {
  std::vector<double> out;
  if (states.empty()) return out;
  CheckStates(states, "DiscriminateBatch");
  if (!config_.use_fast_path) {
    out.reserve(states.size());
    for (const EncodedState* s : states) out.push_back(Discriminate(*s));
    return out;
  }
  if (SameHostCount(states)) {
    InferenceWorkspace& ws = *inference_;
    ws.m_ptrs.clear();
    ws.adj_ptrs.clear();
    for (const EncodedState* s : states) {
      ws.m_ptrs.push_back(&s->m);
      ws.adj_ptrs.push_back(&s->adjacency);
    }
    ws.edges.Build(ws.adj_ptrs);
    ForwardInferenceBatch(ws.m_ptrs, states, ws.edges, out);
    return out;
  }
  // Mixed host counts: one stacked pass per H bucket (the per-state
  // computations are independent, so bucketed == sequential exactly).
  out.resize(states.size());
  const auto buckets = GroupIndicesBy(
      states.size(), [&](std::size_t i) { return states[i]->m.rows(); });
  std::vector<const EncodedState*> sub_states;
  for (const auto& bucket : buckets) {
    sub_states.clear();
    for (std::size_t i : bucket) sub_states.push_back(states[i]);
    const std::vector<double> sub_out =
        DiscriminateBatch(std::span<const EncodedState* const>(sub_states));
    for (std::size_t j = 0; j < bucket.size(); ++j) {
      out[bucket[j]] = sub_out[j];
    }
  }
  return out;
}

std::vector<double> GonModel::DiscriminateBatch(
    std::span<const EncodedState> states) {
  std::vector<const EncodedState*> ptrs;
  ptrs.reserve(states.size());
  for (const EncodedState& s : states) ptrs.push_back(&s);
  return DiscriminateBatch(std::span<const EncodedState* const>(ptrs));
}

GenerationResult GonModel::Generate(const nn::Matrix& m_init,
                                    const EncodedState& context) {
  const EncodedState* ctx = &context;
  CheckStates(std::span<const EncodedState* const>(&ctx, 1), "Generate");
  if (!config_.use_fast_path) return GenerateSequential(m_init, context);
  const nn::Matrix* init = &m_init;
  auto results =
      GenerateBatch(std::span<const nn::Matrix* const>(&init, 1),
                    std::span<const EncodedState* const>(&ctx, 1));
  return std::move(results.front());
}

GenerationResult GonModel::GenerateSequential(const nn::Matrix& m_init,
                                              const EncodedState& context) {
  GenerationResult result;
  nn::Matrix m_cur = m_init;
  const double lr = config_.generation_lr;
  double prev_objective = -std::numeric_limits<double>::infinity();
  for (int step = 0; step < config_.generation_steps; ++step) {
    nn::Tape tape;
    tape.set_naive_kernels(!config_.use_fast_path);
    net().ClearBindings();
    nn::Value m = tape.Leaf(m_cur, /*requires_grad=*/true);
    nn::Value score = Forward(tape, m, context);
    nn::Value objective = tape.Log(score);
    const double obj = objective.scalar();
    tape.Backward(objective);
    const nn::Matrix& grad = m.grad();
    // Ascent step M <- M + gamma * grad_M log D (Eq. 1), clipped to the
    // normalized feature box. The step is infinity-norm normalized so
    // gamma directly controls the per-feature movement per iteration —
    // without this, a flat discriminator would stall the generation in
    // our [0,1]-normalized feature space (implementation note recorded
    // in EXPERIMENTS.md).
    double grad_scale = 0.0;
    for (const double g : grad.flat()) {
      grad_scale = std::max(grad_scale, std::abs(g));
    }
    if (grad_scale < 1e-12) break;
    bool moved = false;
    for (std::size_t r = 0; r < m_cur.rows(); ++r) {
      for (std::size_t c = 0; c < m_cur.cols(); ++c) {
        const double delta = lr * grad(r, c) / grad_scale;
        if (std::abs(delta) > 1e-9) moved = true;
        m_cur(r, c) = std::clamp(m_cur(r, c) + delta, 0.0, 1.0);
      }
    }
    ++result.steps;
    // "Till convergence": stop once log-likelihood improvement stalls.
    if (!moved || std::abs(obj - prev_objective) < config_.generation_tol) {
      break;
    }
    prev_objective = obj;
  }
  result.metrics = std::move(m_cur);
  return result;
}

std::vector<GenerationResult> GonModel::GenerateBatch(
    std::span<const nn::Matrix* const> inits,
    std::span<const EncodedState* const> contexts) {
  if (inits.size() != contexts.size()) {
    throw std::invalid_argument("GenerateBatch: inits/contexts mismatch");
  }
  CheckStates(contexts, "GenerateBatch");
  std::vector<GenerationResult> results(contexts.size());
  if (contexts.empty()) return results;
  if (!config_.use_fast_path) {
    for (std::size_t i = 0; i < contexts.size(); ++i) {
      results[i] = GenerateSequential(*inits[i], *contexts[i]);
    }
    return results;
  }
  if (!SameHostCount(contexts)) {
    // Mixed host counts: bucket by H and run one stacked ascent per
    // bucket. Candidate trajectories are independent, so the scatter is
    // exactly the sequential result.
    const auto buckets = GroupIndicesBy(
        contexts.size(),
        [&](std::size_t i) { return contexts[i]->m.rows(); });
    std::vector<const nn::Matrix*> sub_inits;
    std::vector<const EncodedState*> sub_ctxs;
    for (const auto& bucket : buckets) {
      sub_inits.clear();
      sub_ctxs.clear();
      for (std::size_t i : bucket) {
        sub_inits.push_back(inits[i]);
        sub_ctxs.push_back(contexts[i]);
      }
      auto sub = GenerateBatch(
          std::span<const nn::Matrix* const>(sub_inits),
          std::span<const EncodedState* const>(sub_ctxs));
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
  for (std::size_t i = 0; i < kTotal; ++i) {
    // A misshapen init would silently corrupt the stacked buffer; the
    // sequential path throws for the same input, so match it.
    if (inits[i]->rows() != h || inits[i]->cols() != c) {
      throw std::invalid_argument(
          "GenerateBatch: init shape does not match the context metrics");
    }
    m_cur[i].CopyFrom(*inits[i]);
  }
  std::vector<double> prev_obj(
      kTotal, -std::numeric_limits<double>::infinity());
  std::vector<char> active(kTotal, 1);
  std::vector<std::size_t> act_idx;
  InferenceWorkspace& ws = *inference_;
  // The attention edges of every candidate, built once per call; each
  // ascent chunk runs on its candidates' sub-stack.
  ws.adj_ptrs.clear();
  for (const EncodedState* ctx : contexts) {
    ws.adj_ptrs.push_back(&ctx->adjacency);
  }
  ws.edges.Build(ws.adj_ptrs);

  // Each global step advances every still-active candidate by exactly the
  // update sequential Generate would have applied at that step. The
  // active candidates run in stacked chunks, so a chunk's activations
  // stay cache-resident, and the chunks fan out over the pool: each
  // participant ascends the chunks it claims in its own slot's buffers
  // and updates only those candidates' entries. The stacked
  // forward/backward is row-block independent per candidate, so neither
  // the chunking nor the participant changes a bit. A participant's chunk
  // is kAscentChunkRows / width host rows, which keeps the working set of
  // all slots together about one sequential chunk.
  const int width = pool_ != nullptr ? pool_->width() : 1;
  if (ws.ascent.size() < static_cast<std::size_t>(width)) {
    ws.ascent.resize(static_cast<std::size_t>(width));
  }
  const std::size_t chunk_rows =
      kAscentChunkRows / static_cast<std::size_t>(width);
  const std::size_t chunk =
      h == 0 ? 1 : std::max<std::size_t>(1, chunk_rows / h);
  const nn::WorkerPool::Fn ascend = [&](std::size_t a0, std::size_t a1,
                                        int slot) {
    AscentSlot& as = ws.ascent[static_cast<std::size_t>(slot)];
    const std::span<const std::size_t> ids(act_idx.data() + a0, a1 - a0);
    as.ms.clear();
    as.ctxs.clear();
    for (const std::size_t i : ids) {
      as.ms.push_back(&m_cur[i]);
      as.ctxs.push_back(contexts[i]);
    }
    as.edges.Select(ws.edges, ids);
    // Per-candidate gradient blocks of sum_i log D_i are exactly
    // grad_M log D_i (the terms are independent).
    AscentGradient(as);
    const nn::Matrix& grad = as.grad;
    const nn::Matrix& scores = as.head.back();

    for (std::size_t a = 0; a < ids.size(); ++a) {
      const std::size_t i = ids[a];
      const double obj = std::log(std::max(scores(a, 0), nn::Tape::kLogEps));
      bool moved = false;
      if (!AscentStep(grad.flat().data() + a * block, m_cur[i].flat().data(),
                      block, lr, moved)) {
        active[i] = 0;
        continue;
      }
      ++results[i].steps;
      if (!moved || std::abs(obj - prev_obj[i]) < config_.generation_tol) {
        active[i] = 0;
        continue;
      }
      prev_obj[i] = obj;
    }
  };
  for (int step = 0; step < config_.generation_steps; ++step) {
    act_idx.clear();
    for (std::size_t i = 0; i < kTotal; ++i) {
      if (active[i]) act_idx.push_back(i);
    }
    if (act_idx.empty()) break;
    if (pool_ != nullptr) {
      pool_->ParallelFor(act_idx.size(), chunk, ascend);
    } else {
      for (std::size_t a0 = 0; a0 < act_idx.size(); a0 += chunk) {
        ascend(a0, std::min(act_idx.size(), a0 + chunk), 0);
      }
    }
  }

  for (std::size_t i = 0; i < kTotal; ++i) {
    results[i].metrics = std::move(m_cur[i]);
  }
  return results;
}

double GonModel::TrainBatch(const std::vector<const EncodedState*>& batch) {
  CheckStates(batch, "TrainBatch");
  if (!config_.use_fast_path || !SameHostCount(batch)) {
    return TrainBatchSequential(batch);
  }
  // Phase 1 (Algorithm 1, line 4): generate fake samples Z* from noise by
  // input-space ascent — one batched ascent for the whole minibatch.
  const std::size_t b = batch.size();
  std::vector<nn::Matrix> noise(b);
  for (std::size_t i = 0; i < b; ++i) {
    noise[i].Resize(batch[i]->m.rows(), batch[i]->m.cols());
    for (double& v : noise[i].flat()) v = rng_.Uniform(0.0, 1.0);
  }
  std::vector<const nn::Matrix*> noise_ptrs;
  noise_ptrs.reserve(b);
  for (const nn::Matrix& n : noise) noise_ptrs.push_back(&n);
  std::vector<GenerationResult> gen = GenerateBatch(noise_ptrs, batch);

  // Phase 2 (line 5): ascend the discriminator objective
  //   mean_i [ log D(M_i,S_i,G_i) + log(1 - D(Z*_i,S_i,G_i)) ]
  // i.e. descend its negation. In addition to the generated negatives we
  // use matching-aware negatives (a real M paired with ANOTHER sample's
  // S,G): without them the discriminator can separate real from
  // generated by looking at M alone and learns to ignore the topology —
  // which would defeat the surrogate's purpose of ranking candidate
  // graphs (implementation note, EXPERIMENTS.md).
  std::vector<const nn::Matrix*> real_ms, fake_ms, mm_ms;
  std::vector<const EncodedState*> mm_ctx;
  real_ms.reserve(b);
  fake_ms.reserve(b);
  for (std::size_t i = 0; i < b; ++i) {
    real_ms.push_back(&batch[i]->m);
    fake_ms.push_back(&gen[i].metrics);
    if (b > 1) {
      // Mismatched-context negative: metrics from a different record
      // presented under this record's (S, G). Same draw order as the
      // per-sample path so fixed-seed runs line up.
      std::size_t other = rng_.Choice(b);
      if (other == i) other = (other + 1) % b;
      if (batch[other]->m.rows() == batch[i]->m.rows()) {
        mm_ms.push_back(&batch[other]->m);
        mm_ctx.push_back(batch[i]);
      }
    }
  }

  tape_.Reset();
  net().ClearBindings();
  const std::span<const EncodedState* const> ctx_span(batch);
  InferenceWorkspace& ws = *inference_;
  nn::Value d_real = ForwardBatch(tape_, StackLeaf(tape_, real_ms), ctx_span);
  nn::Value d_fake = ForwardBatch(tape_, StackLeaf(tape_, fake_ms), ctx_span);
  ws.ones_stack.Resize(b, 1);
  ws.ones_stack.Fill(1.0);
  nn::Value ones_b = tape_.LeafRef(ws.ones_stack);
  // -[ sum log D(real) + sum log(1 - D(fake)) (+ sum log(1 - D(mm))) ] / B
  nn::Value logsum =
      tape_.Add(tape_.SumAll(tape_.Log(d_real)),
                tape_.SumAll(tape_.Log(tape_.Sub(ones_b, d_fake))));
  if (!mm_ms.empty()) {
    nn::Value d_mm = ForwardBatch(
        tape_, StackLeaf(tape_, mm_ms),
        std::span<const EncodedState* const>(mm_ctx));
    ws.ones_stack.Resize(mm_ms.size(), 1);
    ws.ones_stack.Fill(1.0);
    nn::Value ones_p = tape_.LeafRef(ws.ones_stack);
    logsum = tape_.Add(
        logsum, tape_.SumAll(tape_.Log(tape_.Sub(ones_p, d_mm))));
  }
  nn::Value loss =
      tape_.Scale(tape_.Neg(logsum), 1.0 / static_cast<double>(b));
  optimizer_->ZeroGrad();
  tape_.Backward(loss);
  net().CollectGrads();
  optimizer_->Step();
  return loss.scalar();
}

nn::Value GonModel::StackLeaf(nn::Tape& tape,
                              std::span<const nn::Matrix* const> ms) {
  InferenceWorkspace& ws = *inference_;
  const std::size_t h = ms.front()->rows();
  const std::size_t c = ms.front()->cols();
  ws.m_stack.Resize(ms.size() * h, c);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::copy(ms[i]->flat().begin(), ms[i]->flat().end(),
              ws.m_stack.flat().begin() +
                  static_cast<std::ptrdiff_t>(i * h * c));
  }
  return tape.LeafRef(ws.m_stack);
}

double GonModel::TrainBatchSequential(
    const std::vector<const EncodedState*>& batch) {
  // Seed-style per-sample training graphs (fallback / A-B reference).
  std::vector<nn::Matrix> fakes;
  fakes.reserve(batch.size());
  for (const EncodedState* state : batch) {
    nn::Matrix noise(state->m.rows(), state->m.cols());
    for (double& v : noise.flat()) v = rng_.Uniform(0.0, 1.0);
    fakes.push_back(Generate(noise, *state).metrics);
  }

  nn::Tape tape;
  tape.set_naive_kernels(!config_.use_fast_path);
  net().ClearBindings();
  nn::Value total;
  nn::Value one = tape.Leaf(nn::Matrix::Ones(1, 1));
  int terms = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const EncodedState& state = *batch[i];
    nn::Value d_real = Forward(tape, tape.LeafRef(state.m), state);
    nn::Value d_fake = Forward(tape, tape.LeafRef(fakes[i]), state);
    nn::Value sample_loss = nn::GanDiscriminatorLoss(tape, d_real, d_fake);
    if (batch.size() > 1) {
      std::size_t other = rng_.Choice(batch.size());
      if (other == i) other = (other + 1) % batch.size();
      if (batch[other]->m.rows() == state.m.rows()) {
        nn::Value d_mismatch =
            Forward(tape, tape.LeafRef(batch[other]->m), state);
        sample_loss = tape.Add(
            sample_loss,
            tape.Neg(tape.Log(tape.Sub(one, d_mismatch))));
      }
    }
    total = (terms == 0) ? sample_loss : tape.Add(total, sample_loss);
    ++terms;
  }
  nn::Value loss = tape.Scale(total, 1.0 / static_cast<double>(terms));
  optimizer_->ZeroGrad();
  tape.Backward(loss);
  net().CollectGrads();
  optimizer_->Step();
  return loss.scalar();
}

EpochStats GonModel::TrainEpoch(const std::vector<EncodedState>& data) {
  EpochStats stats;
  if (data.empty()) return stats;
  const auto order = rng_.Permutation(data.size());
  double loss_sum = 0.0;
  int batches = 0;
  const auto bsz = static_cast<std::size_t>(std::max(1, config_.batch_size));
  for (std::size_t start = 0; start < order.size(); start += bsz) {
    std::vector<const EncodedState*> batch;
    for (std::size_t k = start; k < std::min(start + bsz, order.size());
         ++k) {
      batch.push_back(&data[order[k]]);
    }
    loss_sum += TrainBatch(batch);
    ++batches;
  }
  stats.loss = loss_sum / batches;

  // Evaluation sweep: MSE of warm-started generation vs the recorded
  // metrics, and mean confidence on real tuples (Figure 4's series).
  // Perturbed starts are drawn first (same rng order as the sequential
  // sweep), then generation and scoring run as single batched passes.
  const std::size_t eval_n = std::min<std::size_t>(data.size(), 32);
  std::vector<nn::Matrix> starts(eval_n);
  std::vector<const nn::Matrix*> start_ptrs;
  std::vector<const EncodedState*> eval_states;
  start_ptrs.reserve(eval_n);
  eval_states.reserve(eval_n);
  for (std::size_t i = 0; i < eval_n; ++i) {
    const EncodedState& state = data[order[i]];
    starts[i].CopyFrom(state.m);
    for (double& v : starts[i].flat()) {
      v = std::clamp(v + rng_.Normal(0.0, 0.1), 0.0, 1.0);
    }
    start_ptrs.push_back(&starts[i]);
    eval_states.push_back(&state);
  }
  const std::vector<GenerationResult> gens =
      GenerateBatch(start_ptrs, eval_states);
  const std::vector<double> confs = DiscriminateBatch(
      std::span<const EncodedState* const>(eval_states));
  double mse = 0.0, conf = 0.0;
  for (std::size_t i = 0; i < eval_n; ++i) {
    const nn::Matrix diff = gens[i].metrics - eval_states[i]->m;
    mse += diff.Norm() * diff.Norm() / static_cast<double>(diff.size());
    conf += confs[i];
  }
  stats.mse = mse / static_cast<double>(eval_n);
  stats.confidence = conf / static_cast<double>(eval_n);
  return stats;
}

std::vector<EpochStats> GonModel::Train(
    const std::vector<EncodedState>& data, int max_epochs, int patience) {
  std::vector<EpochStats> history;
  double best_loss = std::numeric_limits<double>::infinity();
  int stale = 0;
  for (int epoch = 0; epoch < max_epochs; ++epoch) {
    history.push_back(TrainEpoch(data));
    common::LogInfo() << "GON epoch " << epoch << ": loss "
                      << history.back().loss << ", mse "
                      << history.back().mse << ", confidence "
                      << history.back().confidence;
    if (history.back().loss < best_loss - 1e-4) {
      best_loss = history.back().loss;
      stale = 0;
    } else if (++stale >= patience) {
      break;  // early stopping (paper §IV-E)
    }
  }
  return history;
}

void GonModel::FineTune(const std::vector<EncodedState>& recent,
                        int epochs) {
  if (recent.empty()) return;
  for (int e = 0; e < epochs; ++e) {
    std::vector<const EncodedState*> batch;
    const auto order = rng_.Permutation(recent.size());
    const auto take = std::min<std::size_t>(
        recent.size(), static_cast<std::size_t>(config_.batch_size));
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(&recent[order[i]]);
    }
    TrainBatch(batch);
  }
}

std::size_t GonModel::ParameterCount() { return net().ParameterCount(); }

double GonModel::MemoryFootprintMb() const {
  const double params =
      static_cast<double>(net_impl_->ParameterCount()) * sizeof(double);
  // Adam keeps two moment buffers; one activation working set per layer
  // for a 16-host forward pass.
  const double adam = 2.0 * params;
  const double activations = 16.0 * config_.hidden_width *
                             (config_.num_layers + 2) * sizeof(double);
  return (params + adam + activations) / (1024.0 * 1024.0);
}

}  // namespace carol::core
