// Neural-network building blocks used by the CAROL GON discriminator
// (Figure 3 of the paper: feed-forward encoders + one graph-attention layer
// + sigmoid head) and by the learned baselines (LSTM/VAE for TopoMAD, GAN
// for StepGAN and the With-GAN ablation, recurrent surrogate for FRAS).
#ifndef CAROL_NN_LAYERS_H_
#define CAROL_NN_LAYERS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/autograd.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "nn/threading.h"

namespace carol::nn {

// A trainable tensor. Gradients are accumulated here (across a whole
// minibatch graph) by Module::CollectGrads after Tape::Backward.
struct Parameter {
  std::string name;
  Matrix value;
  Matrix grad;

  Parameter(std::string n, Matrix v)
      : name(std::move(n)),
        value(std::move(v)),
        grad(Matrix::Zeros(value.rows(), value.cols())) {}

  std::size_t size() const { return value.size(); }
};

// Base class for anything that owns Parameters. Forward passes bind
// parameters as tape leaves; after Backward, CollectGrads moves the leaf
// gradients into Parameter::grad (summing across all bindings made since
// the last ClearBindings, i.e. across a minibatch).
class Module {
 public:
  virtual ~Module() = default;

  virtual std::vector<Parameter*> Parameters() = 0;

  // Composite modules (Mlp, the GON network, ...) MUST expose their
  // sub-modules here: forward passes record parameter->leaf bindings on
  // the sub-module that owns the parameter, and CollectGrads /
  // ClearBindings traverse the module tree to reach them.
  virtual std::vector<Module*> Children() { return {}; }

  // Total number of scalar parameters.
  std::size_t ParameterCount();
  // Parameter memory in megabytes (doubles), used by the analytic memory
  // model of Fig. 5(e).
  double ParameterMegabytes();

  void ZeroGrad();
  // Sums leaf grads recorded during forward passes into Parameter::grad,
  // recursively over the module tree.
  void CollectGrads();
  // Must be called whenever a new tape is started (bindings reference the
  // previous tape's nodes). Recursive.
  void ClearBindings();

 protected:
  // Binds `param` as a requires-grad leaf on `tape` and records the
  // binding for CollectGrads.
  Value Bind(Tape& tape, Parameter& param);

 private:
  std::vector<std::pair<Parameter*, Value>> bindings_;
};

enum class Activation { kNone, kRelu, kTanh, kSigmoid };

// Applies an activation as a tape op.
Value Activate(Tape& tape, Value x, Activation act);

// Maps a layer activation onto the fused tape-op activation kind.
FusedAct ToFusedAct(Activation act);

// Fully connected layer: y = act(x W + b), x is [N x in].
// By default this emits ONE fused Linear tape node per forward; the
// unfused three-node form (MatMul + AddRowBroadcast + activation) is kept
// behind set_fused(false) as the A/B reference for benches.
class Dense : public Module {
 public:
  Dense(std::size_t in, std::size_t out, common::Rng& rng,
        std::string name = "dense", Activation act = Activation::kNone);

  Value Forward(Tape& tape, Value x);
  std::vector<Parameter*> Parameters() override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }
  Activation activation() const { return act_; }
  void set_fused(bool fused) { fused_ = fused; }

  // Tape-free forward into a caller-owned buffer (inference hot path);
  // uses the same LinearForward kernel as the fused tape op, so the
  // values are identical to Forward's.
  void ForwardInference(const Matrix& x, Matrix& out) const;
  // Input gradient of ForwardInference with the weights held constant:
  // d_x = (d_y .* act'(y)) W^T for the layer output y. Same expressions
  // and kernels as the fused Linear tape op's x gradient, so d_x equals
  // it bit for bit. `d_pre` and `w_t` are scratch.
  void BackwardInput(const Matrix& y, const Matrix& d_y, Matrix& d_pre,
                     Matrix& w_t, Matrix& d_x) const;

 private:
  std::size_t in_;
  std::size_t out_;
  Activation act_;
  bool fused_ = true;
  Parameter w_;
  Parameter b_;
};

// Multi-layer perceptron with ReLU hidden activations and a configurable
// output activation. `dims` is {in, h1, ..., out}.
class Mlp : public Module {
 public:
  Mlp(const std::vector<std::size_t>& dims, common::Rng& rng,
      std::string name = "mlp", Activation output_act = Activation::kNone,
      Activation hidden_act = Activation::kRelu);

  Value Forward(Tape& tape, Value x);
  std::vector<Parameter*> Parameters() override;
  std::vector<Module*> Children() override;
  std::size_t depth() const { return layers_.size(); }
  // Propagates to every layer (bench A/B knob; fused is the default).
  void set_fused(bool fused);

  // Tape-free forward for inference hot paths. outs[l] receives layer
  // l's output (recycled buffers, kept for BackwardInput); returns
  // outs.back(), the network's output.
  const Matrix& ForwardInference(const Matrix& x,
                                 std::vector<Matrix>& outs) const;
  struct GradScratch {
    Matrix d_pre, w_t;
    std::array<Matrix, 2> d;
  };
  // Input gradient of ForwardInference (weights held constant) for the
  // output gradient `d_out`, layer by layer through
  // Dense::BackwardInput. The returned reference points into `ws` and
  // stays valid until its next use.
  const Matrix& BackwardInput(const std::vector<Matrix>& outs,
                              const Matrix& d_out, GradScratch& ws) const;

 private:
  std::vector<Dense> layers_;
};

// Attention neighbourhoods of K stacked H-host states in compressed
// sparse row (CSR) form. Stacked row r = s*H + i lists, in ascending
// order, the columns j of state s (local to the state) with
// adjacency_s(i, j) != 0, plus the self-loop j == i: exactly the
// positions the dense masked softmax admits. A broker topology has
// B(B-1) + 2(H-B) + H of them, 2.6% of H x H at H=128 with 8 brokers.
class AttentionEdges {
 public:
  // Rebuilds from K dense adjacencies; throws std::invalid_argument
  // unless they all share one H x H shape.
  void Build(std::span<const Matrix* const> adjacencies);
  // Rebuilds as the sub-stack of `all`'s states listed in `states`.
  void Select(const AttentionEdges& all, std::span<const std::size_t> states);

  std::size_t hosts() const { return hosts_; }
  std::size_t states() const { return states_; }
  // Edges of stacked row r are [row_ptr()[r], row_ptr()[r + 1]).
  std::span<const std::size_t> row_ptr() const { return row_ptr_; }
  std::span<const std::uint32_t> cols() const { return cols_; }

 private:
  std::size_t hosts_ = 0;
  std::size_t states_ = 0;
  std::vector<std::size_t> row_ptr_ = {0};
  std::vector<std::uint32_t> cols_;
};

// Graph attention layer (Velickovic et al., Eq. (4) of the paper).
// Input: per-node features u [H x in] and a 0/1 adjacency matrix [H x H].
// Self-loops are added internally. Output: e [H x out], computed as
//   h_j = tanh(u_j W + b)
//   a_ij = softmax_{j in n(i)} ((h_i Wq) . h_j)
//   e_i  = sigma( sum_j a_ij h_j )
// which keeps the computation agnostic to the number of hosts, the paper's
// stated motivation for the GAT branch.
class GraphAttention : public Module {
 public:
  GraphAttention(std::size_t in, std::size_t out, common::Rng& rng,
                 std::string name = "gat");

  Value Forward(Tape& tape, Value u, const Matrix& adjacency);
  // Batched forward over K stacked states: `u` is [K*H x in] (H = rows of
  // each adjacency) and `adjacencies` has one H x H entry per state.
  // The shared linear/query projections run as ONE kernel over all K*H
  // rows; attention stays per-state (cross-state attention is impossible
  // by construction, matching K independent Forward calls bit-for-bit).
  // Returns the stacked embeddings [K*H x out].
  Value ForwardBatch(Tape& tape, Value u,
                     std::span<const Matrix* const> adjacencies);
  std::vector<Parameter*> Parameters() override;
  void set_fused(bool fused) { fused_ = fused; }

  // Activations of one sparse forward over N stacked states, kept for
  // BackwardInput. `attn` holds one softmax weight per edge, indexed
  // from the block's first edge.
  struct Activations {
    Matrix hidden;             // tanh(u W + b)             [N*H x out]
    Matrix query;              // hidden Wq                 [N*H x out]
    std::vector<double> attn;  // a_ij, one per edge
    Matrix out;                // sigma(sum_j a_ij h_j)     [N*H x out]
  };
  // Tape-free forward over the N = u.rows() / H stacked states whose
  // edge lists are states [first_state, first_state + N) of `edges`.
  // Scores, masked softmax and aggregation run over the edges only,
  // with the arithmetic of the dense tape ops of ForwardBatch (see
  // src/nn/README.md), so `act.out` equals ForwardBatch's output bit for
  // bit.
  void ForwardSparse(const Matrix& u, const AttentionEdges& edges,
                     std::size_t first_state, Activations& act) const;

  struct GradScratch {
    Matrix d_agg, d_hidden, d_query, d_hid_t, d_pre, w_t;
    std::vector<double> d_attn;
  };
  // Input gradient of ForwardSparse (weights held constant) over all of
  // `edges`' states: d_u for the output gradient `d_out`. Each buffer
  // accumulates in the reverse-node order of ForwardBatch's tape ops,
  // so d_u equals the tape's u gradient bit for bit.
  void BackwardInput(const AttentionEdges& edges, const Activations& act,
                     const Matrix& d_out, GradScratch& ws,
                     Matrix& d_u) const;

  // Recycled buffers for ForwardInferenceBatch. One Slot per pool
  // participant slot (slot 0 doubles as the sequential path's scratch);
  // a Slot is only ever touched by the participant holding its index,
  // which is what keeps the threaded path race-free without any
  // per-state locking (see nn/threading.h).
  struct InferenceScratch {
    struct Slot {
      Matrix u_s;
      Activations act;
    };
    std::vector<Slot> slots;
    // Grows (never shrinks) to at least `count` slots; existing slots
    // keep their buffers. Call before a parallel region — growing the
    // vector inside one would race.
    void EnsureSlots(std::size_t count) {
      if (slots.size() < count) slots.resize(count);
    }
  };
  // ForwardSparse over all of `edges`' states that writes only the
  // stacked embeddings [K*H x out], into `out`.
  // With a `pool`, contiguous blocks of states — their shared
  // projections and their attention — fan out across the pool's
  // participants; results are bit-identical to the sequential path for
  // any pool width (see src/nn/README.md).
  void ForwardInferenceBatch(const Matrix& u, const AttentionEdges& edges,
                             InferenceScratch& ws, Matrix& out,
                             WorkerPool* pool = nullptr) const;

 private:
  std::size_t in_;
  std::size_t out_;
  bool fused_ = true;
  Parameter w_;
  Parameter b_;
  Parameter wq_;
};

// Standard LSTM cell; state is a pair of [N x hidden] values. Used by the
// TopoMAD (LSTM+VAE) and FRAS (recurrent surrogate) baselines.
class LstmCell : public Module {
 public:
  LstmCell(std::size_t in, std::size_t hidden, common::Rng& rng,
           std::string name = "lstm");

  struct State {
    Value h;
    Value c;
  };

  State InitialState(Tape& tape, std::size_t batch_rows);
  State Forward(Tape& tape, Value x, const State& prev);
  std::vector<Parameter*> Parameters() override;
  std::size_t hidden_size() const { return hidden_; }

 private:
  std::size_t in_;
  std::size_t hidden_;
  Parameter wx_;  // [in x 4*hidden]
  Parameter wh_;  // [hidden x 4*hidden]
  Parameter b_;   // [1 x 4*hidden]
};

// --- common losses (built from tape ops) ---

// Mean squared error between pred and a constant target.
Value MseLoss(Tape& tape, Value pred, const Matrix& target);

// Binary cross-entropy pieces used by Algorithm 1:
//   L = -[ log D(real) + log(1 - D(fake)) ]
// `d_real` / `d_fake` are 1x1 discriminator outputs in (0,1).
Value GanDiscriminatorLoss(Tape& tape, Value d_real, Value d_fake);

}  // namespace carol::nn

#endif  // CAROL_NN_LAYERS_H_
