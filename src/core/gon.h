// Generative Optimization Network surrogate (paper §III-B and Figure 3).
//
// A GON is a GAN without the generator: a single discriminator
// D(M, S, G; theta) doubles as
//   * a likelihood/confidence scorer for an observed tuple, and
//   * a generator, by running gradient ASCENT on log D in the input space
//     of M (Eq. 1):  M <- M + gamma * grad_M log D(M, S, G; theta).
//
// Architecture (Figure 3): a shared per-host feed-forward encoder over
// [M_i, S_i] rows with ReLU, a graph-attention branch over the topology
// with per-node features derived from M's utilization columns and role
// flags, mean-pooled and concatenated into a sigmoid likelihood head.
//
// Training follows Algorithm 1: fake samples Z* are produced by the same
// input-space ascent from noise, and theta ascends
//   log D(M,S,G) + log(1 - D(Z*,S,G)).
//
// Latency design (the paper's headline metric is per-interval decision
// time): the decision path — scoring and the Eq.-1 ascent — is
// tape-free. Scoring runs a forward over recycled buffers; each ascent
// step runs a hand-written forward and backward of this fixed graph that
// computes grad_M log D only. Graph attention runs over the topology's
// edges (a CSR list built once per call from EncodedState::adjacency),
// never over a dense H x H block. The *Batch entry points stack K
// candidate states into a single kernel pass, so scoring the node-shift
// neighborhood costs one forward instead of K. Per-host encoder rows and
// per-state attention blocks are independent, so batched results match
// the sequential ones exactly; and every sparse kernel repeats the
// arithmetic of the dense tape ops in the same order (src/nn/README.md),
// so the decisions are bit-identical to the tape path's. The arena tape
// is used for training only.
//
// Threading: a GonModel may be handed a shared, non-owned
// nn::WorkerPool. The batched scoring pass then fans its states out
// over the pool, and every Eq.-1 ascent step fans its candidate chunks
// out, each participant in its own slot's buffers. Results are
// bit-identical for any pool width and any claim order (src/nn/README.md
// "Threaded batched inference"). The model itself is not thread-safe:
// one thread drives it at a time, but any number of models may share
// one pool.
#ifndef CAROL_CORE_GON_H_
#define CAROL_CORE_GON_H_

#include <memory>
#include <span>
#include <vector>

#include "core/encoder.h"
#include "nn/autograd.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "nn/threading.h"

namespace carol::core {

struct GonConfig {
  // Width of every hidden layer (the paper fixes 128).
  int hidden_width = 64;
  // Number of feed-forward layers in the [M,S] encoder — the paper's
  // memory-footprint knob (§IV-E, Fig. 6b sweeps it).
  int num_layers = 3;
  int gat_width = 32;
  // gamma in Eq. (1) — the generation/learning rate of the input-space
  // ascent (Fig. 6a sweeps it). NOTE: our features are normalized to
  // [0,1], so the operating point differs from the paper's raw scale;
  // 5e-2 plays the role of the paper's 1e-3 (see EXPERIMENTS.md).
  double generation_lr = 5e-2;
  // Maximum ascent iterations per generation; the loop stops early once
  // the likelihood improvement drops below generation_tol ("running the
  // following till convergence", Algorithm 1 line 4). Warm-starting from
  // M_{t-1} (paper §III-B) keeps the typical count small.
  int generation_steps = 20;
  double generation_tol = 1e-5;
  // Adam settings for discriminator training (paper §IV-E).
  double train_lr = 1e-4;
  double weight_decay = 1e-5;
  int batch_size = 32;
  unsigned seed = 42;
  // A/B safety valve for the latency work: when false, scoring and
  // generation fall back to the seed-style path (fresh tape per call,
  // unfused three-node dense layers, per-sample training graphs). The
  // two paths compute the same values; benches measure the gap.
  bool use_fast_path = true;
};

struct GenerationResult {
  nn::Matrix metrics;   // converged M*, [H x 9], normalized
  double confidence = 0.0;  // D(M*, S, G)
  int steps = 0;
};

struct EpochStats {
  double loss = 0.0;        // mean adversarial loss (Eq. 2, negated)
  double mse = 0.0;         // mean ||Z* - M||^2 (prediction quality)
  double confidence = 0.0;  // mean D on real tuples
};

class GonModel {
 public:
  // `pool`, when given, must outlive the model; the model fans its
  // scoring passes and ascent steps out over it (see the header
  // comment). Without one — or with a width-1 pool — it runs
  // sequentially on the calling thread.
  explicit GonModel(const GonConfig& config,
                    nn::WorkerPool* pool = nullptr);
  ~GonModel();  // out-of-line: Network is an incomplete type here

  // Likelihood score D(M,S,G) in (0,1) for an encoded tuple.
  double Discriminate(const EncodedState& state);

  // Batched scoring: one stacked kernel pass over K states that share a
  // host count. Matches K sequential Discriminate calls (the per-host /
  // per-state computations are independent; see header comment). States
  // with differing host counts are bucketed by H and run as one stacked
  // pass per bucket. Every entry point taking states (this, Generate*,
  // training) first checks each state's shapes — m [H x 9], s [H x 2],
  // roles [H x 2], adjacency [H x H] — and throws std::invalid_argument
  // naming the first bad state's index.
  std::vector<double> DiscriminateBatch(
      std::span<const EncodedState* const> states);
  std::vector<double> DiscriminateBatch(std::span<const EncodedState> states);

  // Eq. (1): ascends log D over the metrics matrix starting from
  // `m_init` (normalized [H x 9]); S, roles and adjacency come from
  // `context`. Returns the converged metrics and their confidence.
  GenerationResult Generate(const nn::Matrix& m_init,
                            const EncodedState& context);

  // Batched Eq. (1): runs the input-space ascent for K candidates in one
  // stacked pass per step (candidates converge and drop out
  // individually). The
  // per-candidate trajectories are identical to sequential Generate
  // calls. `inits` and `contexts` must have equal length; mixed host
  // counts are bucketed by H and each bucket runs as one stacked ascent.
  std::vector<GenerationResult> GenerateBatch(
      std::span<const nn::Matrix* const> inits,
      std::span<const EncodedState* const> contexts);

  // One minibatch-SGD epoch of Algorithm 1 over the dataset.
  EpochStats TrainEpoch(const std::vector<EncodedState>& data);

  // Convenience: full offline training until `epochs` or an early-stop
  // patience on the epoch loss (paper uses early stopping, §IV-E).
  // Returns the per-epoch stats (this is Figure 4's data).
  std::vector<EpochStats> Train(const std::vector<EncodedState>& data,
                                int max_epochs, int patience = 5);

  // Fine-tuning on the running dataset Gamma (Algorithm 2 line 15): a few
  // epochs of the same adversarial loss on recent tuples.
  void FineTune(const std::vector<EncodedState>& recent, int epochs = 1);

  // Analytic memory model: parameters + Adam moments + one activation
  // working set, in MB. Used by Fig. 5(e)/6(b).
  double MemoryFootprintMb() const;

  std::size_t ParameterCount();
  const GonConfig& config() const { return config_; }
  // The underlying discriminator module (weight save/load/clone surface).
  nn::Module& network();
  const nn::Module& network() const;

 private:
  struct Network;
  struct InferenceWorkspace;
  struct AscentSlot;

  // Builds the discriminator graph on `tape` for one state; m may be a
  // requires-grad leaf (generation) or constant (scoring).
  nn::Value Forward(nn::Tape& tape, nn::Value m, const EncodedState& ctx);
  // Batched graph: `m` is the [K*H x 9] stacked metrics; returns the
  // [K x 1] per-state scores.
  nn::Value ForwardBatch(nn::Tape& tape, nn::Value m,
                         std::span<const EncodedState* const> ctxs);
  // Tape-free stacked forward used by DiscriminateBatch and the final
  // GenerateBatch confidence pass; `edges` holds the states' attention
  // edges.
  void ForwardInferenceBatch(std::span<const nn::Matrix* const> ms,
                             std::span<const EncodedState* const> ctxs,
                             const nn::AttentionEdges& edges,
                             std::vector<double>& out);
  // One Eq.-1 ascent evaluation for the chunk staged in `as` (its
  // metrics, contexts and attention edges): a hand-written forward and
  // backward of sum_i log D(M_i, S_i, G_i) over the stacked states,
  // leaving the scores D_i and grad_M in `as`. Reads the weights only,
  // so pool participants run it concurrently on their own slots.
  void AscentGradient(AscentSlot& as) const;
  double TrainBatch(const std::vector<const EncodedState*>& batch);
  double TrainBatchSequential(const std::vector<const EncodedState*>& batch);
  // Stacks the given metric matrices into one [sum(H) x 9] tape leaf.
  nn::Value StackLeaf(nn::Tape& tape,
                      std::span<const nn::Matrix* const> ms);
  GenerationResult GenerateSequential(const nn::Matrix& m_init,
                                      const EncodedState& context);
  static bool SameHostCount(std::span<const EncodedState* const> states);

  // Typed view over net_impl_ (replaces the old raw facade pointer).
  nn::Module& net() { return network(); }

  GonConfig config_;
  common::Rng rng_;
  std::unique_ptr<Network> net_impl_;
  std::unique_ptr<nn::Adam> optimizer_;
  // Arena tape recycled across training calls.
  nn::Tape tape_;
  std::unique_ptr<InferenceWorkspace> inference_;
  // Shared compute pool (not owned; null = sequential).
  nn::WorkerPool* pool_ = nullptr;
};

}  // namespace carol::core

#endif  // CAROL_CORE_GON_H_
