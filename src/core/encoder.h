// Feature encoding: turns simulator snapshots / trace records into the
// (M, S, G) tensors consumed by the GON discriminator (paper Figure 3).
//
// Layout (all features normalized to roughly [0, 1]):
//   M  [H x 9]  — u_i (cpu/ram/disk/net util), q_i (energy, slo rate),
//                 t_i (task cpu demand, task ram demand, avg deadline)
//   S  [H x 2]  — per-host scheduling-decision footprint
//                 (new-task cpu demand, new-task count)
//   R  [H x 2]  — role flags (is_broker, failed) for the candidate topology
//   A  [H x H]  — adjacency of the candidate topology
//
// The per-host row layout (instead of the paper's flat [p x |H|] one-hot
// scheduling matrix) keeps the encoder agnostic to the number of active
// tasks AND the number of hosts — the same property the paper obtains from
// its graph-attention branch (see DESIGN.md §5.2).
#ifndef CAROL_CORE_ENCODER_H_
#define CAROL_CORE_ENCODER_H_

#include <string>

#include "nn/matrix.h"
#include "sim/federation.h"
#include "workload/trace.h"

namespace carol::core {

// Normalization scales; chosen once for the Raspberry-Pi-class testbed.
struct EncoderScales {
  double util = 2.0;            // utilizations clipped at 2x capacity
  double energy_kwh = 7.3 * 300.0 / 3.6e6;  // peak power * interval
  double mips = 5000.0;
  double ram_mb = 8192.0;
  double deadline_s = 600.0;
  double task_count = 5.0;
};

struct EncodedState {
  nn::Matrix m;      // [H x 9]
  nn::Matrix s;      // [H x 2]
  nn::Matrix roles;  // [H x 2]
  nn::Matrix adjacency;  // [H x H]

  std::size_t num_hosts() const { return m.rows(); }
  // Empty when every matrix has the shape above for H = m.rows(),
  // otherwise a description of the first mismatch.
  std::string ShapeError() const;
};

class FeatureEncoder {
 public:
  static constexpr int kMetricFeatures = 9;
  static constexpr int kSchedFeatures = 2;
  static constexpr int kRoleFeatures = 2;

  explicit FeatureEncoder(EncoderScales scales = {}) : scales_(scales) {}

  // Encodes a snapshot with its own topology.
  EncodedState Encode(const sim::SystemSnapshot& snapshot) const;
  // Encodes the snapshot's metrics against a *candidate* topology: this is
  // what the tabu search evaluates for each node-shift neighbor.
  EncodedState EncodeForTopology(const sim::SystemSnapshot& snapshot,
                                 const sim::Topology& topology) const;
  // Encodes an offline trace record (for Algorithm 1 training).
  EncodedState EncodeRecord(const workload::TraceRecord& record) const;

  // Index of the per-host energy / SLO columns inside M — the objective
  // O(M) (Eq. 7) reads these from generated metrics.
  static constexpr int kEnergyColumn = 4;
  static constexpr int kSloColumn = 5;

  const EncoderScales& scales() const { return scales_; }

 private:
  EncodedState EncodeRows(
      const std::vector<std::vector<double>>& feature_rows,
      const sim::Topology& topology,
      const std::vector<bool>* alive) const;

  EncoderScales scales_;
};

}  // namespace carol::core

#endif  // CAROL_CORE_ENCODER_H_
