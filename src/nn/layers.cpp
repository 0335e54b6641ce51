#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "nn/simd.h"

namespace carol::nn {

namespace {

// Dot products of attention edges, computed in edge lanes: each queued
// edge is one lane, and each lane sums x_e[k] * y_e[k] over k ascending
// from +0 — the order of the scalar dot product, so every result is
// bit-identical to it. A lane's operands are two rows of width `width`.
class EdgeDots {
 public:
  explicit EdgeDots(std::size_t width) : width_(width) {}

  void Add(const double* x, const double* y, double* out) {
    x_[count_] = x;
    y_[count_] = y;
    out_[count_] = out;
    if (++count_ == simd::kLanes) Flush();
  }

  // Computes the queued dots.
  void Flush() {
    if (count_ == 0) return;
    for (std::size_t l = count_; l < simd::kLanes; ++l) {
      x_[l] = x_[0];  // idle lanes recompute lane 0; their sums are dropped
      y_[l] = y_[0];
    }
    simd::Vec acc{};
    for (std::size_t kk = 0; kk < width_; ++kk) {
      simd::Vec xv, yv;
      for (std::size_t l = 0; l < simd::kLanes; ++l) {
        xv[l] = x_[l][kk];
        yv[l] = y_[l][kk];
      }
      acc += xv * yv;
    }
    for (std::size_t l = 0; l < count_; ++l) *out_[l] = acc[l];
    count_ = 0;
  }

 private:
  std::size_t width_;
  std::size_t count_ = 0;
  const double* x_[simd::kLanes];
  const double* y_[simd::kLanes];
  double* out_[simd::kLanes];
};

// out[j] = sum of w * row[j] over the terms (w, row) that `terms` yields,
// in its order, from +0 and skipping w == 0, for j < width: the
// accumulation MatMulImpl performs for one output row. Lanes are columns,
// and each column block accumulates in registers.
template <class Terms>
void WeightedRowSum(std::size_t width, const Terms& terms, double* out) {
  using simd::Vec;
  constexpr std::size_t kL = simd::kLanes;
  std::size_t j = 0;
  for (; j + 2 * kL <= width; j += 2 * kL) {
    Vec a0{}, a1{};
    terms([&](double w, const double* row) {
      if (w == 0.0) return;
      a0 += w * simd::Load(row + j);
      a1 += w * simd::Load(row + j + kL);
    });
    simd::Store(out + j, a0);
    simd::Store(out + j + kL, a1);
  }
  for (; j + kL <= width; j += kL) {
    Vec a{};
    terms([&](double w, const double* row) {
      if (w != 0.0) a += w * simd::Load(row + j);
    });
    simd::Store(out + j, a);
  }
  for (; j < width; ++j) {
    double a = 0.0;
    terms([&](double w, const double* row) {
      if (w != 0.0) a += w * row[j];
    });
    out[j] = a;
  }
}

}  // namespace

std::size_t Module::ParameterCount() {
  std::size_t total = 0;
  for (Parameter* p : Parameters()) total += p->size();
  return total;
}

double Module::ParameterMegabytes() {
  return static_cast<double>(ParameterCount() * sizeof(double)) /
         (1024.0 * 1024.0);
}

void Module::ZeroGrad() {
  for (Parameter* p : Parameters()) p->grad.Fill(0.0);
}

void Module::CollectGrads() {
  for (auto& [param, leaf] : bindings_) {
    param->grad += leaf.grad();
  }
  bindings_.clear();
  for (Module* child : Children()) child->CollectGrads();
}

void Module::ClearBindings() {
  bindings_.clear();
  for (Module* child : Children()) child->ClearBindings();
}

Value Module::Bind(Tape& tape, Parameter& param) {
  // LeafRef copies into the tape's recycled buffer (arena fast path).
  Value leaf = tape.LeafRef(param.value, /*requires_grad=*/true);
  bindings_.emplace_back(&param, leaf);
  return leaf;
}

Value Activate(Tape& tape, Value x, Activation act) {
  switch (act) {
    case Activation::kNone:
      return x;
    case Activation::kRelu:
      return tape.Relu(x);
    case Activation::kTanh:
      return tape.Tanh(x);
    case Activation::kSigmoid:
      return tape.Sigmoid(x);
  }
  throw std::logic_error("Activate: unknown activation");
}

FusedAct ToFusedAct(Activation act) {
  switch (act) {
    case Activation::kNone:
      return FusedAct::kNone;
    case Activation::kRelu:
      return FusedAct::kRelu;
    case Activation::kTanh:
      return FusedAct::kTanh;
    case Activation::kSigmoid:
      return FusedAct::kSigmoid;
  }
  throw std::logic_error("ToFusedAct: unknown activation");
}

Dense::Dense(std::size_t in, std::size_t out, common::Rng& rng,
             std::string name, Activation act)
    : in_(in),
      out_(out),
      act_(act),
      w_(name + ".w", Matrix::Xavier(in, out, rng)),
      b_(name + ".b", Matrix::Zeros(1, out)) {}

Value Dense::Forward(Tape& tape, Value x) {
  if (x.cols() != in_) {
    throw std::invalid_argument("Dense::Forward: input width " +
                                std::to_string(x.cols()) + " != " +
                                std::to_string(in_));
  }
  Value w = Bind(tape, w_);
  Value b = Bind(tape, b_);
  if (fused_) {
    return tape.Linear(x, w, b, ToFusedAct(act_));
  }
  Value y = tape.AddRowBroadcast(tape.MatMul(x, w), b);
  return Activate(tape, y, act_);
}

std::vector<Parameter*> Dense::Parameters() { return {&w_, &b_}; }

void Dense::ForwardInference(const Matrix& x, Matrix& out) const {
  LinearForward(x, w_.value, b_.value, ToFusedAct(act_), out);
}

void Dense::BackwardInput(const Matrix& y, const Matrix& d_y, Matrix& d_pre,
                          Matrix& w_t, Matrix& d_x) const {
  // The fused Linear op's x gradient: dX (zeroed) += dpre * W^T through
  // a materialized transpose, so the kernel skips dpre's zero row groups.
  // MatMulInto sums from +0, exactly as the accumulation into a zeroed
  // buffer does.
  ActivationBackward(d_y, y, ToFusedAct(act_), d_pre);
  Matrix::TransposeInto(w_.value, w_t);
  Matrix::MatMulInto(d_pre, w_t, d_x);
}

Mlp::Mlp(const std::vector<std::size_t>& dims, common::Rng& rng,
         std::string name, Activation output_act, Activation hidden_act) {
  if (dims.size() < 2) {
    throw std::invalid_argument("Mlp: need at least {in, out} dims");
  }
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool last = (i + 2 == dims.size());
    layers_.emplace_back(dims[i], dims[i + 1], rng,
                         name + ".l" + std::to_string(i),
                         last ? output_act : hidden_act);
  }
}

Value Mlp::Forward(Tape& tape, Value x) {
  Value h = x;
  for (auto& layer : layers_) h = layer.Forward(tape, h);
  return h;
}

std::vector<Parameter*> Mlp::Parameters() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer.Parameters()) out.push_back(p);
  }
  return out;
}

std::vector<Module*> Mlp::Children() {
  std::vector<Module*> out;
  out.reserve(layers_.size());
  for (auto& layer : layers_) out.push_back(&layer);
  return out;
}

void Mlp::set_fused(bool fused) {
  for (auto& layer : layers_) layer.set_fused(fused);
}

const Matrix& Mlp::ForwardInference(const Matrix& x,
                                    std::vector<Matrix>& outs) const {
  outs.resize(layers_.size());
  const Matrix* in = &x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].ForwardInference(*in, outs[l]);
    in = &outs[l];
  }
  return *in;
}

const Matrix& Mlp::BackwardInput(const std::vector<Matrix>& outs,
                                 const Matrix& d_out,
                                 GradScratch& ws) const {
  if (outs.size() != layers_.size()) {
    throw std::invalid_argument("Mlp::BackwardInput: outs/layers mismatch");
  }
  const Matrix* g = &d_out;
  std::size_t which = 0;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    Matrix& d_x = ws.d[which];
    layers_[l].BackwardInput(outs[l], *g, ws.d_pre, ws.w_t, d_x);
    g = &d_x;
    which ^= 1;
  }
  return *g;
}

void AttentionEdges::Build(std::span<const Matrix* const> adjacencies) {
  const std::size_t h =
      adjacencies.empty() ? 0 : adjacencies.front()->rows();
  for (const Matrix* adj : adjacencies) {
    if (adj->rows() != h || adj->cols() != h) {
      throw std::invalid_argument(
          "AttentionEdges: adjacencies must share one H x H shape");
    }
  }
  hosts_ = h;
  states_ = adjacencies.size();
  row_ptr_.resize(states_ * h + 1);
  cols_.clear();
  std::size_t r = 0;
  for (const Matrix* adj : adjacencies) {
    for (std::size_t i = 0; i < h; ++i, ++r) {
      const double* arow = adj->flat().data() + i * h;
      // Adjacency rows are almost all zeros: test a vector of entries at
      // a time and only scan the blocks that hold an edge or the
      // self-loop.
      std::size_t j0 = 0;
      for (; j0 + simd::kLanes <= h; j0 += simd::kLanes) {
        const auto nonzero = simd::Load(arow + j0) != simd::Vec{};
        bool any = i >= j0 && i < j0 + simd::kLanes;
        for (std::size_t l = 0; l < simd::kLanes; ++l) any |= nonzero[l] != 0;
        if (!any) continue;
        for (std::size_t j = j0; j < j0 + simd::kLanes; ++j) {
          if (j == i || arow[j] != 0.0) {
            cols_.push_back(static_cast<std::uint32_t>(j));
          }
        }
      }
      for (std::size_t j = j0; j < h; ++j) {
        if (j == i || arow[j] != 0.0) {
          cols_.push_back(static_cast<std::uint32_t>(j));
        }
      }
      row_ptr_[r + 1] = cols_.size();
    }
  }
}

void AttentionEdges::Select(const AttentionEdges& all,
                            std::span<const std::size_t> states) {
  const std::size_t h = all.hosts_;
  hosts_ = h;
  states_ = states.size();
  row_ptr_.resize(states_ * h + 1);
  cols_.clear();
  std::size_t r = 0;
  for (const std::size_t s : states) {
    if (s >= all.states_) {
      throw std::out_of_range("AttentionEdges::Select: state out of range");
    }
    for (std::size_t i = s * h; i < (s + 1) * h; ++i, ++r) {
      cols_.insert(cols_.end(),
                   all.cols_.begin() +
                       static_cast<std::ptrdiff_t>(all.row_ptr_[i]),
                   all.cols_.begin() +
                       static_cast<std::ptrdiff_t>(all.row_ptr_[i + 1]));
      row_ptr_[r + 1] = cols_.size();
    }
  }
}

GraphAttention::GraphAttention(std::size_t in, std::size_t out,
                               common::Rng& rng, std::string name)
    : in_(in),
      out_(out),
      w_(name + ".w", Matrix::Xavier(in, out, rng)),
      b_(name + ".b", Matrix::Zeros(1, out)),
      wq_(name + ".wq", Matrix::Xavier(out, out, rng)) {}

Value GraphAttention::Forward(Tape& tape, Value u, const Matrix& adjacency) {
  const std::size_t h = u.rows();
  if (adjacency.rows() != h || adjacency.cols() != h) {
    throw std::invalid_argument("GraphAttention: adjacency must be HxH");
  }
  if (u.cols() != in_) {
    throw std::invalid_argument("GraphAttention: input width mismatch");
  }
  Matrix mask = adjacency;
  for (std::size_t i = 0; i < h; ++i) mask(i, i) = 1.0;  // self-loops

  Value w = Bind(tape, w_);
  Value b = Bind(tape, b_);
  Value wq = Bind(tape, wq_);

  Value hidden = fused_
                     ? tape.LinearTanh(u, w, b)
                     : tape.Tanh(tape.AddRowBroadcast(tape.MatMul(u, w), b));
  Value query = tape.MatMul(hidden, wq);
  Value scores = tape.MatMul(query, tape.Transpose(hidden));
  Value attn = tape.MaskedRowSoftmax(scores, std::move(mask));
  return tape.Sigmoid(tape.MatMul(attn, hidden));
}

Value GraphAttention::ForwardBatch(
    Tape& tape, Value u, std::span<const Matrix* const> adjacencies) {
  if (adjacencies.empty()) {
    throw std::invalid_argument("GraphAttention::ForwardBatch: empty batch");
  }
  const std::size_t h = adjacencies.front()->rows();
  const std::size_t k = adjacencies.size();
  for (const Matrix* adj : adjacencies) {
    if (adj->rows() != h || adj->cols() != h) {
      throw std::invalid_argument(
          "GraphAttention::ForwardBatch: adjacencies must share H x H");
    }
  }
  if (u.rows() != k * h || u.cols() != in_) {
    throw std::invalid_argument(
        "GraphAttention::ForwardBatch: u must be [K*H x in]");
  }

  Value w = Bind(tape, w_);
  Value b = Bind(tape, b_);
  Value wq = Bind(tape, wq_);

  // Shared projections over the whole stack: one kernel for K states.
  Value hidden = tape.LinearTanh(u, w, b);
  Value query = tape.MatMul(hidden, wq);

  // Attention is per-state over the row block [s*H, (s+1)*H); a state's
  // rows never attend across the block boundary, so this matches K
  // independent Forward calls exactly.
  std::vector<Value> parts;
  parts.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    Matrix mask = *adjacencies[s];
    for (std::size_t i = 0; i < h; ++i) mask(i, i) = 1.0;  // self-loops
    Value hid_s = tape.SliceRows(hidden, s * h, (s + 1) * h);
    Value q_s = tape.SliceRows(query, s * h, (s + 1) * h);
    Value scores = tape.MatMul(q_s, tape.Transpose(hid_s));
    Value attn = tape.MaskedRowSoftmax(scores, std::move(mask));
    parts.push_back(tape.Sigmoid(tape.MatMul(attn, hid_s)));
  }
  return k == 1 ? parts.front() : tape.StackRows(parts);
}

void GraphAttention::ForwardSparse(const Matrix& u,
                                   const AttentionEdges& edges,
                                   std::size_t first_state,
                                   Activations& act) const {
  const std::size_t h = edges.hosts();
  const std::size_t n = h == 0 ? 0 : u.rows() / h;
  if (u.cols() != in_ || u.rows() != n * h ||
      first_state + n > edges.states()) {
    throw std::invalid_argument(
        "GraphAttention::ForwardSparse: u must be [N*H x in] over states "
        "of the edge list");
  }
  const std::size_t g = out_;
  LinearForward(u, w_.value, b_.value, FusedAct::kTanh, act.hidden);
  Matrix::MatMulInto(act.hidden, wq_.value, act.query);

  const std::span<const std::size_t> row_ptr = edges.row_ptr();
  const std::span<const std::uint32_t> cols = edges.cols();
  const std::size_t row0 = first_state * h;
  const std::size_t e0 = row_ptr[row0];
  act.attn.resize(row_ptr[row0 + n * h] - e0);
  act.out.Resize(n * h, g);
  const double* hid = act.hidden.flat().data();
  const double* q = act.query.flat().data();
  double* out = act.out.flat().data();
  double* attn = act.attn.data();
  // Scores: each is the ascending-k dot product of MatMul(q_s, hid_s^T),
  // computed in edge lanes.
  EdgeDots dots(g);
  for (std::size_t s = 0; s < n; ++s) {
    const double* hid_s = hid + s * h * g;
    for (std::size_t r = s * h; r < (s + 1) * h; ++r) {
      for (std::size_t e = row_ptr[row0 + r]; e < row_ptr[row0 + r + 1];
           ++e) {
        dots.Add(q + r * g, hid_s + cols[e] * g, attn + (e - e0));
      }
    }
  }
  dots.Flush();
  for (std::size_t s = 0; s < n; ++s) {
    const double* hid_s = hid + s * h * g;
    for (std::size_t r = s * h; r < (s + 1) * h; ++r) {
      const std::size_t eb = row_ptr[row0 + r], ee = row_ptr[row0 + r + 1];
      const std::uint32_t* col = cols.data() + eb;
      double* a = attn + (eb - e0);
      const std::size_t deg = ee - eb;
      double* orow = out + r * g;
      // The running max follows the dense softmax's column order.
      double mx = -std::numeric_limits<double>::infinity();
      for (std::size_t e = 0; e < deg; ++e) mx = std::max(mx, a[e]);
      if (!std::isfinite(mx)) {  // MaskedRowSoftmaxForward's zero row
        std::fill(a, a + deg, 0.0);
      } else {
        double denom = 0.0;
        for (std::size_t e = 0; e < deg; ++e) {
          a[e] = std::exp(a[e] - mx);
          denom += a[e];
        }
        for (std::size_t e = 0; e < deg; ++e) a[e] /= denom;
      }
      // Aggregation: MatMul(attn, hid_s) skips exact-zero weights, which
      // includes weights that underflowed.
      WeightedRowSum(
          g,
          [&](auto&& add) {
            for (std::size_t e = 0; e < deg; ++e) {
              add(a[e], hid_s + col[e] * g);
            }
          },
          orow);
      for (std::size_t j = 0; j < g; ++j) {
        orow[j] = scalar_ops::Sigmoid(orow[j]);
      }
    }
  }
}

void GraphAttention::BackwardInput(const AttentionEdges& edges,
                                   const Activations& act,
                                   const Matrix& d_out, GradScratch& ws,
                                   Matrix& d_u) const {
  const std::size_t h = edges.hosts();
  const std::size_t k = edges.states();
  const std::size_t g = out_;
  if (act.out.rows() != k * h || d_out.rows() != k * h ||
      d_out.cols() != g || act.attn.size() != edges.cols().size()) {
    throw std::invalid_argument(
        "GraphAttention::BackwardInput: activations do not match the edges");
  }
  const std::span<const std::size_t> row_ptr = edges.row_ptr();
  const std::span<const std::uint32_t> cols = edges.cols();
  const double* hid = act.hidden.flat().data();
  const double* q = act.query.flat().data();
  const double* attn = act.attn.data();

  // The tape sweeps ForwardBatch's nodes in reverse: per state (last
  // first) Sigmoid, MatMul(attn, hid_s), MaskedRowSoftmax,
  // MatMul(q_s, hid_s^T), Transpose, the two SliceRows; then the shared
  // query MatMul and LinearTanh. States write disjoint rows, so only the
  // order within a state matters, and it is reproduced below.
  ActivationBackward(d_out, act.out, FusedAct::kSigmoid, ws.d_agg);
  const std::size_t rows = k * h;
  ws.d_hidden.Resize(rows, g);
  ws.d_hid_t.Resize(rows, g);
  ws.d_query.Resize(rows, g);
  ws.d_attn.resize(cols.size());
  const double* d_agg = ws.d_agg.flat().data();
  double* d_hidden = ws.d_hidden.flat().data();
  double* d_hid_t = ws.d_hid_t.flat().data();
  double* d_query = ws.d_query.flat().data();
  double* d_attn = ws.d_attn.data();
  // The gradients that land on hid_s rows sum over SOURCE rows in
  // ascending order. The edges by destination row (CSC), sources
  // ascending, let each destination row accumulate in registers.
  ws.in_ptr.assign(rows + 1, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t base = r - r % h;
    for (std::size_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      ++ws.in_ptr[base + cols[e] + 1];
    }
  }
  for (std::size_t c = 0; c < rows; ++c) ws.in_ptr[c + 1] += ws.in_ptr[c];
  ws.in_src.resize(cols.size());
  ws.in_edge.resize(cols.size());
  ws.in_fill.assign(ws.in_ptr.begin(), ws.in_ptr.end() - 1);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t base = r - r % h;
    for (std::size_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      const std::size_t slot = ws.in_fill[base + cols[e]]++;
      ws.in_src[slot] = r;
      ws.in_edge[slot] = e;
    }
  }
  // Sums over the edges into destination row c: w(e) * row(r) per edge e
  // from source row r, sources ascending.
  auto into_row = [&](std::size_t c, auto&& weight, const double* src,
                      double* out) {
    WeightedRowSum(
        g,
        [&](auto&& add) {
          for (std::size_t t = ws.in_ptr[c]; t < ws.in_ptr[c + 1]; ++t) {
            add(weight(ws.in_edge[t]), src + ws.in_src[t] * g);
          }
        },
        out + c * g);
  };

  // MatMul(attn, hid_s): d_attn = d_agg hid_s^T, in edge lanes, and
  // d_hid_s = attn^T d_agg (zero weights skipped).
  EdgeDots dots(g);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t base = r - r % h;
    for (std::size_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      dots.Add(d_agg + r * g, hid + (base + cols[e]) * g, d_attn + e);
    }
  }
  dots.Flush();
  for (std::size_t c = 0; c < rows; ++c) {
    into_row(c, [&](std::size_t e) { return attn[e]; }, d_agg, d_hidden);
  }
  // MaskedRowSoftmax: d_scores = y .* (d_attn - <d_attn, y>), in place.
  for (std::size_t r = 0; r < rows; ++r) {
    double dot = 0.0;
    for (std::size_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      dot += d_attn[e] * attn[e];
    }
    for (std::size_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      d_attn[e] = attn[e] * (d_attn[e] - dot);
    }
  }
  // MatMul(q_s, hid_s^T): d_q_s = d_scores hid_s (zero d_scores skipped),
  // and the transposed operand's gradient q_s^T d_scores forms in its
  // own buffer before the Transpose node adds it onto d_hid_s. The tape
  // skips zero q entries instead of zero d_scores; either way a skipped
  // term is ±0 added to a sum that started at +0, which changes nothing.
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t base = r - r % h;
    WeightedRowSum(
        g,
        [&](auto&& add) {
          for (std::size_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
            add(d_attn[e], hid + (base + cols[e]) * g);
          }
        },
        d_query + r * g);
  }
  for (std::size_t c = 0; c < rows; ++c) {
    into_row(c, [&](std::size_t e) { return d_attn[e]; }, q, d_hid_t);
    simd::Add(d_hid_t + c * g, d_hidden + c * g, g);
  }
  // query = hidden Wq: its gradient lands on top of the slice gradients.
  Matrix::TransposeInto(wq_.value, ws.w_t);
  Matrix::MatMulAccum(ws.d_query, ws.w_t, ws.d_hidden);
  // hidden = tanh(u W + b): the fused Linear op's x gradient.
  ActivationBackward(ws.d_hidden, act.hidden, FusedAct::kTanh, ws.d_pre);
  Matrix::TransposeInto(w_.value, ws.w_t);
  Matrix::MatMulInto(ws.d_pre, ws.w_t, d_u);
}

void GraphAttention::ForwardInferenceBatch(const Matrix& u,
                                           const AttentionEdges& edges,
                                           InferenceScratch& ws, Matrix& out,
                                           WorkerPool* pool) const {
  const std::size_t h = edges.hosts();
  const std::size_t k = edges.states();
  if (k == 0) {
    throw std::invalid_argument(
        "GraphAttention::ForwardInferenceBatch: empty batch");
  }
  if (u.rows() != k * h || u.cols() != in_) {
    throw std::invalid_argument(
        "GraphAttention::ForwardInferenceBatch: u must be [K*H x in]");
  }
  if (pool != nullptr && pool->width() > 1 && k > 1) {
    // A block of states reads only its own rows of u and edges and
    // writes only its own rows of `out`. The blocked MatMul kernel
    // accumulates each output row independently of which rows share the
    // call, so the block's projections equal the stacked ones bit for
    // bit.
    ws.EnsureSlots(static_cast<std::size_t>(pool->width()));
    out.Resize(k * h, out_);
    pool->ParallelFor(k, [&](std::size_t s0, std::size_t s1, int t) {
      InferenceScratch::Slot& slot = ws.slots[static_cast<std::size_t>(t)];
      slot.u_s.CopyRowsFrom(u, s0 * h, s1 * h);
      ForwardSparse(slot.u_s, edges, s0, slot.act);
      std::copy(
          slot.act.out.flat().begin(), slot.act.out.flat().end(),
          out.flat().begin() + static_cast<std::ptrdiff_t>(s0 * h * out_));
    });
    return;
  }
  ws.EnsureSlots(1);
  ForwardSparse(u, edges, 0, ws.slots.front().act);
  out.CopyFrom(ws.slots.front().act.out);
}

std::vector<Parameter*> GraphAttention::Parameters() {
  return {&w_, &b_, &wq_};
}

LstmCell::LstmCell(std::size_t in, std::size_t hidden, common::Rng& rng,
                   std::string name)
    : in_(in),
      hidden_(hidden),
      wx_(name + ".wx", Matrix::Xavier(in, 4 * hidden, rng)),
      wh_(name + ".wh", Matrix::Xavier(hidden, 4 * hidden, rng)),
      b_(name + ".b", Matrix::Zeros(1, 4 * hidden)) {}

LstmCell::State LstmCell::InitialState(Tape& tape, std::size_t batch_rows) {
  return State{tape.Leaf(Matrix::Zeros(batch_rows, hidden_)),
               tape.Leaf(Matrix::Zeros(batch_rows, hidden_))};
}

LstmCell::State LstmCell::Forward(Tape& tape, Value x, const State& prev) {
  if (x.cols() != in_) {
    throw std::invalid_argument("LstmCell::Forward: input width mismatch");
  }
  Value wx = Bind(tape, wx_);
  Value wh = Bind(tape, wh_);
  Value b = Bind(tape, b_);

  Value gates = tape.AddRowBroadcast(
      tape.Add(tape.MatMul(x, wx), tape.MatMul(prev.h, wh)), b);
  Value i = tape.Sigmoid(tape.SliceCols(gates, 0, hidden_));
  Value f = tape.Sigmoid(tape.SliceCols(gates, hidden_, 2 * hidden_));
  Value g = tape.Tanh(tape.SliceCols(gates, 2 * hidden_, 3 * hidden_));
  Value o = tape.Sigmoid(tape.SliceCols(gates, 3 * hidden_, 4 * hidden_));
  Value c = tape.Add(tape.Mul(f, prev.c), tape.Mul(i, g));
  Value h = tape.Mul(o, tape.Tanh(c));
  return State{h, c};
}

std::vector<Parameter*> LstmCell::Parameters() { return {&wx_, &wh_, &b_}; }

Value MseLoss(Tape& tape, Value pred, const Matrix& target) {
  Value t = tape.Leaf(target);
  Value diff = tape.Sub(pred, t);
  return tape.MeanAll(tape.Mul(diff, diff));
}

Value GanDiscriminatorLoss(Tape& tape, Value d_real, Value d_fake) {
  Value one = tape.Leaf(Matrix::Ones(1, 1));
  Value term_real = tape.Log(d_real);
  Value term_fake = tape.Log(tape.Sub(one, d_fake));
  return tape.Neg(tape.Add(term_real, term_fake));
}

}  // namespace carol::nn
