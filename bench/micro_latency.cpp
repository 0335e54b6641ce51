// Micro-benchmarks of the latency-critical inner loops: matrix kernels,
// GON forward pass / input-space generation (fast arena+fused+batched
// path vs the seed-style naive path), node-shift neighborhood expansion,
// tabu repair and POT updates.
//
// Self-timed (no external benchmark dependency) and machine-readable:
// every measurement is appended to BENCH_micro.json as
//   {"op", "shape", "ns_per_op", "baseline_ns_per_op", "speedup"}
// so the perf trajectory is tracked from PR 1 onward. `baseline` is the
// naive reference implementation measured in the same process (textbook
// i-j-k matmul, std::function map, seed-style per-call-tape GON). Rows
// with an absolute efficiency also carry "gflops". The first row,
// op "machine_fingerprint", names the CPU, core count, compiler and
// flags in its "shape" field.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/carol.h"
#include "core/encoder.h"
#include "core/gon.h"
#include "core/node_shift.h"
#include "core/pot.h"
#include "core/tabu.h"
#include "harness/runtime.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "nn/threading.h"
#include "sim/topology.h"

namespace {

using namespace carol;
using clock_type = std::chrono::steady_clock;

double g_sink = 0.0;  // defeats dead-code elimination

struct BenchResult {
  std::string op;
  std::string shape;
  double ns_per_op = 0.0;
  double baseline_ns_per_op = 0.0;  // 0 => no baseline for this op
  double speedup = 0.0;             // baseline / fast
  double gflops = 0.0;              // 0 => no absolute efficiency
};

std::vector<BenchResult>& Results() {
  static std::vector<BenchResult> results;
  return results;
}

// Runs `fn` repeatedly for ~`budget_ms` and returns ns per call.
double TimeNs(const std::function<void()>& fn, double budget_ms = 300.0) {
  fn();  // warm-up (also sizes arena buffers)
  // Calibrate an iteration count that fills the budget.
  int iters = 1;
  for (;;) {
    const auto t0 = clock_type::now();
    for (int i = 0; i < iters; ++i) fn();
    const double ms =
        std::chrono::duration<double, std::milli>(clock_type::now() - t0)
            .count();
    if (ms >= budget_ms || iters >= (1 << 24)) {
      return ms * 1e6 / iters;
    }
    const double scale = ms > 0.0 ? budget_ms / ms : 1000.0;
    iters = static_cast<int>(iters * std::min(1000.0, scale * 1.2)) + 1;
  }
}

void Report(const std::string& op, const std::string& shape, double fast_ns,
            double baseline_ns = 0.0) {
  BenchResult r;
  r.op = op;
  r.shape = shape;
  r.ns_per_op = fast_ns;
  r.baseline_ns_per_op = baseline_ns;
  r.speedup = baseline_ns > 0.0 ? baseline_ns / fast_ns : 0.0;
  Results().push_back(r);
  if (baseline_ns > 0.0) {
    std::printf("%-28s %-16s %12.0f ns/op  baseline %12.0f ns/op  %5.2fx\n",
                op.c_str(), shape.c_str(), fast_ns, baseline_ns, r.speedup);
  } else {
    std::printf("%-28s %-16s %12.0f ns/op\n", op.c_str(), shape.c_str(),
                fast_ns);
  }
}

// CPU model, core count, compiler and flags: the first row of the JSON.
std::string MachineFingerprint() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  return "cpu=" + cpu +
         " nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " compiler=" CAROL_BENCH_COMPILER " flags=" CAROL_BENCH_FLAGS;
}

void WriteJson(const char* path) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  std::fprintf(f,
               "  {\"op\": \"machine_fingerprint\", \"shape\": \"%s\", "
               "\"ns_per_op\": 0.0, \"baseline_ns_per_op\": 0.0, "
               "\"speedup\": 0.000}%s\n",
               MachineFingerprint().c_str(), Results().empty() ? "" : ",");
  const auto& rs = Results();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    std::string gflops;
    if (rs[i].gflops > 0.0) {
      char buf[64];
      std::snprintf(buf, sizeof buf, ", \"gflops\": %.3f", rs[i].gflops);
      gflops = buf;
    }
    std::fprintf(f,
                 "  {\"op\": \"%s\", \"shape\": \"%s\", \"ns_per_op\": "
                 "%.1f, \"baseline_ns_per_op\": %.1f, \"speedup\": %.3f%s}%s\n",
                 rs[i].op.c_str(), rs[i].shape.c_str(), rs[i].ns_per_op,
                 rs[i].baseline_ns_per_op, rs[i].speedup, gflops.c_str(),
                 i + 1 < rs.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu entries)\n", path, rs.size());
}

// --- naive references (the seed-style kernels) ----------------------------

nn::Matrix NaiveMatMul(const nn::Matrix& a, const nn::Matrix& b) {
  nn::Matrix out(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      out(i, j) = acc;
    }
  }
  return out;
}

// --- fixtures -------------------------------------------------------------

sim::SystemSnapshot MakeSnapshot(int hosts = 16, int brokers = 4) {
  sim::SystemSnapshot snap;
  snap.topology = sim::Topology::Initial(hosts, brokers);
  snap.hosts.resize(static_cast<std::size_t>(hosts));
  snap.alive.assign(static_cast<std::size_t>(hosts), true);
  for (int i = 0; i < hosts; ++i) {
    auto& m = snap.hosts[static_cast<std::size_t>(i)];
    m.cpu_util = 0.4 + 0.02 * i;
    m.ram_util = 0.3;
    m.energy_kwh = 3e-4;
    m.is_broker = snap.topology.is_broker(i);
  }
  return snap;
}

core::GonConfig BenchGonConfig(bool fast_path) {
  core::GonConfig cfg;  // paper-shaped defaults (64-wide, 3 layers)
  cfg.use_fast_path = fast_path;
  return cfg;
}

// --- benches --------------------------------------------------------------

void BenchMatMul() {
  common::Rng rng(1);
  for (int n : {16, 64, 128}) {
    const nn::Matrix a = nn::Matrix::Randn(n, n, rng);
    const nn::Matrix b = nn::Matrix::Randn(n, n, rng);
    nn::Matrix out;
    const double fast = TimeNs([&] {
      nn::Matrix::MatMulInto(a, b, out);
      g_sink += out(0, 0);
    });
    const double naive = TimeNs([&] { g_sink += NaiveMatMul(a, b)(0, 0); });
    Report("matmul_blocked", std::to_string(n) + "x" + std::to_string(n),
           fast, naive);
  }
  // The GON encoder layer shape.
  const nn::Matrix a = nn::Matrix::Randn(16, 64, rng);
  const nn::Matrix b = nn::Matrix::Randn(64, 64, rng);
  nn::Matrix out;
  const double fast = TimeNs([&] {
    nn::Matrix::MatMulInto(a, b, out);
    g_sink += out(0, 0);
  });
  const double naive = TimeNs([&] { g_sink += NaiveMatMul(a, b)(0, 0); });
  Report("matmul_blocked", "16x64*64x64", fast, naive);
}

void BenchMap() {
  common::Rng rng(2);
  const nn::Matrix m = nn::Matrix::Randn(16, 64, rng);
  const double fast =
      TimeNs([&] { g_sink += m.MapFn([](double v) { return v * v + 1.0; })(0, 0); });
  const std::function<double(double)> fn = [](double v) {
    return v * v + 1.0;
  };
  const double naive = TimeNs([&] {
    // Seed-style: std::function dispatch per element.
    nn::Matrix out = m;
    for (double& v : out.flat()) v = fn(v);
    g_sink += out(0, 0);
  });
  Report("map_templated", "16x64", fast, naive);
}

void BenchGon() {
  core::FeatureEncoder encoder;
  const auto enc = encoder.Encode(MakeSnapshot());

  core::GonModel fast_gon(BenchGonConfig(true));
  core::GonModel slow_gon(BenchGonConfig(false));

  // Forward/confidence scoring: arena + fused + tape-free vs seed-style.
  const double fwd_fast =
      TimeNs([&] { g_sink += fast_gon.Discriminate(enc); });
  const double fwd_slow =
      TimeNs([&] { g_sink += slow_gon.Discriminate(enc); });
  Report("gon_discriminate", "H=16", fwd_fast, fwd_slow);

  // Input-space generation (Eq. 1 ascent = the OptimizeInput hot path).
  const double gen_fast =
      TimeNs([&] { g_sink += fast_gon.Generate(enc.m, enc).metrics(0, 0); },
             500.0);
  const double gen_slow =
      TimeNs([&] { g_sink += slow_gon.Generate(enc.m, enc).metrics(0, 0); },
             500.0);
  Report("gon_generate_warm", "H=16 steps<=20", gen_fast, gen_slow);

  // The paper's decision unit: score + optimize per interval.
  Report("gon_decision_path", "discriminate+generate",
         fwd_fast + gen_fast, fwd_slow + gen_slow);

  // Batched scoring of K candidate neighbors vs K sequential calls.
  constexpr int kBatch = 16;
  std::vector<core::EncodedState> states;
  for (int i = 0; i < kBatch; ++i) {
    auto snap = MakeSnapshot();
    snap.hosts[static_cast<std::size_t>(i)].cpu_util += 0.3;
    states.push_back(encoder.Encode(snap));
  }
  const double batch = TimeNs([&] {
    const auto scores = fast_gon.DiscriminateBatch(
        std::span<const core::EncodedState>(states));
    g_sink += scores[0];
  });
  const double naive_seq = TimeNs([&] {
    for (const auto& s : states) g_sink += slow_gon.Discriminate(s);
  });
  Report("gon_discriminate_batch", "K=16 H=16", batch, naive_seq);
  // Marginal gain of batching over the already-fast sequential path.
  const double fast_seq = TimeNs([&] {
    for (const auto& s : states) g_sink += fast_gon.Discriminate(s);
  });
  Report("gon_discriminate_batch_vs_fast", "K=16 H=16", batch, fast_seq);
}

// Large federations (H >= 64): the decision path is dominated by the
// per-state GAT attention, which a width-T WorkerPool fans across the K
// stacked states. Rows report the pooled batched scoring pass against
// the sequential (no pool) pass on the SAME inputs; values are
// bit-identical, only the wall clock moves. CI gates the H=128 T=4 row
// at > 1.5x on 4+-core runners.
void BenchGonLargeH() {
  constexpr int kBatch = 16;
  core::FeatureEncoder encoder;
  for (int hosts : {64, 128}) {
    std::vector<core::EncodedState> states;
    for (int i = 0; i < kBatch; ++i) {
      auto snap = MakeSnapshot(hosts, hosts / 4);
      snap.hosts[static_cast<std::size_t>(i % hosts)].cpu_util += 0.3;
      states.push_back(encoder.Encode(snap));
    }
    const std::string shape_base =
        "K=" + std::to_string(kBatch) + " H=" + std::to_string(hosts);

    core::GonModel sequential(BenchGonConfig(true));
    const double seq_ns = TimeNs([&] {
      const auto scores = sequential.DiscriminateBatch(
          std::span<const core::EncodedState>(states));
      g_sink += scores[0];
    });
    // The unthreaded stacked pass itself, vs per-state fast calls.
    const double fast_seq = TimeNs([&] {
      for (const auto& s : states) g_sink += sequential.Discriminate(s);
    });
    Report("gon_discriminate_batch_vs_fast", shape_base, seq_ns, fast_seq);

    for (int threads : {2, 4}) {
      nn::WorkerPool pool(threads);
      core::GonModel threaded(BenchGonConfig(true), &pool);
      const double thr_ns = TimeNs([&] {
        const auto scores = threaded.DiscriminateBatch(
            std::span<const core::EncodedState>(states));
        g_sink += scores[0];
      });
      Report("gon_discriminate_batch_threads",
             shape_base + " T=" + std::to_string(threads), thr_ns, seq_ns);
    }
  }
}

// Floating-point operations of one Eq.-1 ascent evaluation (forward plus
// the grad_M backward) of one H-host state with `edges` attention edges
// (self-loops included), counted from the layer shapes and the edge
// count: 2 per multiply-add of every product the hand-written ascent
// runs, with no credit for skipped zeros and no dense H x H term.
double AscentFlops(const core::GonConfig& g, double h, double edges) {
  const double hw = g.hidden_width;
  const double gw = g.gat_width;
  const double deep = std::max(1, g.num_layers) - 1.0;
  const double in_ms = 11.0, in_gat = 6.0;
  // Encoder and head, forward and input-gradient backward: each weight
  // matrix is multiplied once per direction.
  const double encoder = 2.0 * 2.0 * h * (in_ms * hw + deep * hw * hw);
  const double head = 2.0 * 2.0 * ((hw + gw) * hw + hw);
  // GAT projections (u W, hidden Wq) both ways; per edge: the score and
  // the aggregation forward, then d_attn, d_hidden, d_query and the
  // transposed-operand gradient backward.
  const double projections = 2.0 * 2.0 * h * (in_gat * gw + gw * gw);
  const double attention = 6.0 * 2.0 * edges * gw;
  return encoder + head + projections + attention;
}

// The Eq.-1 ascent at the repository benchmark's serving shape
// (perfbench's fleet-h4096-scoped replay): H = 128 with 8 brokers, a
// frontier of K = 20 node-shift candidates of one snapshot, hidden 32 x 2,
// GAT 16, 5 ascent steps, weights trained on a training trace as the
// benchmark's set-up trains them (untrained weights have unstructured
// zeros). Sequential (no pool). GFLOP/s counts AscentFlops per state and
// ascent evaluation.
void BenchGonAscent() {
  core::GonConfig cfg;
  cfg.hidden_width = 32;
  cfg.num_layers = 2;
  cfg.gat_width = 16;
  cfg.generation_steps = 5;
  core::GonModel gon(cfg);
  {
    harness::RunConfig rc;
    rc.intervals = 120;
    rc.seed = 7u * 7919u + 17u;
    const workload::Trace trace = harness::CollectTrainingTrace(rc);
    core::FeatureEncoder encoder;
    std::vector<core::EncodedState> data;
    for (const auto& record : trace) data.push_back(encoder.EncodeRecord(record));
    gon.Train(data, /*max_epochs=*/6);
  }

  constexpr int kHosts = 128, kBrokers = 8, kCandidates = 20;
  common::Rng rng(5);
  sim::SystemSnapshot snap;
  snap.topology = sim::Topology::Initial(kHosts, kBrokers);
  snap.hosts.resize(kHosts);
  snap.alive.assign(kHosts, true);
  for (int i = 0; i < kHosts; ++i) {
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
  }
  const auto moves = core::LocalMoves(snap.topology, snap.alive);
  core::FeatureEncoder encoder;
  std::vector<core::EncodedState> states;
  for (int k = 0; k < kCandidates; ++k) {
    sim::Topology candidate;
    core::ApplyLocalMove(
        snap.topology,
        moves[static_cast<std::size_t>(k * 7) % moves.size()], candidate);
    states.push_back(encoder.EncodeForTopology(snap, candidate));
  }
  std::vector<const nn::Matrix*> inits;
  std::vector<const core::EncodedState*> ctxs;
  for (const auto& s : states) {
    inits.push_back(&s.m);
    ctxs.push_back(&s);
  }

  // Work per call: each state's edges (self-loops included) times its
  // ascent evaluations.
  const auto results = gon.GenerateBatch(inits, ctxs);
  double flops = 0.0;
  for (std::size_t i = 0; i < states.size(); ++i) {
    double edges = kHosts;
    for (double v : states[i].adjacency.flat()) edges += v != 0.0 ? 1.0 : 0.0;
    flops += AscentFlops(cfg, kHosts, edges) * results[i].steps;
  }
  const double ns = TimeNs(
      [&] { g_sink += gon.GenerateBatch(inits, ctxs).front().metrics(0, 0); },
      1500.0);
  Report("gon_ascent", "H=128 B=8 K=20 hidden=32x2 gat=16 steps=5", ns);
  Results().back().gflops = flops / ns;
  std::printf("%-28s %-16s %12.2f GFLOP/s (%.1f MFLOP per call)\n",
              "gon_ascent", "", flops / ns, flops / 1e6);
}

void BenchNodeShift() {
  for (int hosts : {16, 32, 64}) {
    const sim::Topology g = sim::Topology::Initial(hosts, hosts / 4);
    std::vector<bool> alive(static_cast<std::size_t>(hosts), true);
    alive[0] = false;
    const double ns = TimeNs([&] {
      g_sink += static_cast<double>(core::FailureNeighbors(g, 0, alive).size());
    });
    Report("failure_neighbors", "H=" + std::to_string(hosts), ns);
  }
}

void BenchRepair() {
  core::CarolConfig cfg;
  core::CarolModel model(cfg);
  auto snap = MakeSnapshot();
  snap.alive[0] = false;
  const double ns = TimeNs(
      [&] {
        g_sink += static_cast<double>(
            model.Repair(snap.topology, {0}, snap).brokers().size());
      },
      1500.0);
  Report("tabu_repair_full", "H=16", ns);
}

void BenchPot() {
  common::Rng rng(3);
  std::vector<double> scores;
  for (int i = 0; i < 256; ++i) scores.push_back(0.7 + 0.1 * rng.Normal());
  const double batch = TimeNs([&] {
    core::PotThreshold pot;
    g_sink += pot.UpdateBatch(scores);
  });
  const double sequential = TimeNs([&] {
    core::PotThreshold pot;
    for (double s : scores) g_sink += pot.Update(s);
  });
  Report("pot_update_batch", "n=256", batch, sequential);
}

void BenchTopologyHash() {
  // Hash() is now maintained incrementally under every mutation, so the
  // tabu filter's per-candidate lookup is O(1); the baseline is the
  // from-scratch O(H) rehash it replaced.
  for (int hosts : {64, 128}) {
    const sim::Topology g = sim::Topology::Initial(hosts, hosts / 8);
    const double incremental =
        TimeNs([&] { g_sink += static_cast<double>(g.Hash()); });
    const double rehash =
        TimeNs([&] { g_sink += static_cast<double>(g.RecomputeHash()); });
    Report("topology_hash_incremental", "H=" + std::to_string(hosts),
           incremental, rehash);
  }
  // The tabu inner loop: materialize a move into the reused scratch and
  // filter it by hash — the candidate-enumeration unit of work.
  for (int hosts : {64, 128}) {
    const sim::Topology g = sim::Topology::Initial(hosts, hosts / 8);
    const std::vector<bool> alive(static_cast<std::size_t>(hosts), true);
    const auto moves = core::LocalMoves(g, alive);
    sim::Topology scratch;
    std::size_t next = 0;
    const double ns = TimeNs([&] {
      core::ApplyLocalMove(g, moves[next], scratch);
      g_sink += static_cast<double>(scratch.Hash());
      next = (next + 1) % moves.size();
    });
    Report("apply_move_and_hash", "H=" + std::to_string(hosts), ns);
  }
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Micro latency — fast path vs naive kernels (ns/op; speedup = "
      "naive/fast)");
  BenchMatMul();
  BenchMap();
  BenchGon();
  BenchGonLargeH();
  BenchGonAscent();
  BenchNodeShift();
  BenchRepair();
  BenchPot();
  BenchTopologyHash();
  WriteJson("BENCH_micro.json");
  if (g_sink == 12345.6789) std::printf(" ");  // keep g_sink alive
  return 0;
}
