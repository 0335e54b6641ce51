#include "core/encoder.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace carol::core {

namespace {
double Clip01(double v) { return std::clamp(v, 0.0, 1.0); }
}  // namespace

EncodedState FeatureEncoder::EncodeRows(
    const std::vector<std::vector<double>>& feature_rows,
    const sim::Topology& topology, const std::vector<bool>* alive) const {
  const std::size_t h = feature_rows.size();
  if (static_cast<int>(h) != topology.num_nodes()) {
    throw std::invalid_argument("FeatureEncoder: host/topology mismatch");
  }
  EncodedState out;
  out.m = nn::Matrix(h, kMetricFeatures);
  out.s = nn::Matrix(h, kSchedFeatures);
  out.roles = nn::Matrix(h, kRoleFeatures);
  for (std::size_t i = 0; i < h; ++i) {
    const auto& f = feature_rows[i];
    if (f.size() < static_cast<std::size_t>(sim::HostMetricsRow::kFeatureCount)) {
      throw std::invalid_argument("FeatureEncoder: short feature row");
    }
    // Raw layout (HostMetricsRow::Features): cpu, ram, disk, net, energy,
    // slo, task_cpu, task_ram, avg_deadline, sched_cpu, sched_count,
    // is_broker, failed.
    out.m(i, 0) = Clip01(f[0] / scales_.util);
    out.m(i, 1) = Clip01(f[1] / scales_.util);
    out.m(i, 2) = Clip01(f[2] / scales_.util);
    out.m(i, 3) = Clip01(f[3] / scales_.util);
    out.m(i, kEnergyColumn) = Clip01(f[4] / scales_.energy_kwh);
    out.m(i, kSloColumn) = Clip01(f[5]);
    out.m(i, 6) = Clip01(f[6] / scales_.mips);
    out.m(i, 7) = Clip01(f[7] / scales_.ram_mb);
    out.m(i, 8) = Clip01(f[8] / scales_.deadline_s);
    out.s(i, 0) = Clip01(f[9] / scales_.mips);
    out.s(i, 1) = Clip01(f[10] / scales_.task_count);
    // Roles come from the *candidate* topology, not the recorded flags —
    // the whole point of EncodeForTopology is scoring hypotheticals.
    const auto node = static_cast<sim::NodeId>(i);
    out.roles(i, 0) = topology.is_broker(node) ? 1.0 : 0.0;
    const bool failed =
        alive != nullptr ? !(*alive)[i] : f[12] != 0.0;
    out.roles(i, 1) = failed ? 1.0 : 0.0;
  }
  out.adjacency =
      nn::Matrix::FromFlat(h, h, topology.AdjacencyFlat());
  return out;
}

std::string EncodedState::ShapeError() const {
  const std::size_t h = m.rows();
  const auto check = [h](const nn::Matrix& x, const char* name,
                         std::size_t cols) -> std::string {
    if (x.rows() == h && x.cols() == cols) return {};
    return std::string(name) + " is " + std::to_string(x.rows()) + "x" +
           std::to_string(x.cols()) + ", expected " + std::to_string(h) +
           "x" + std::to_string(cols);
  };
  for (std::string error :
       {check(m, "m", FeatureEncoder::kMetricFeatures),
        check(s, "s", FeatureEncoder::kSchedFeatures),
        check(roles, "roles", FeatureEncoder::kRoleFeatures),
        check(adjacency, "adjacency", h)}) {
    if (!error.empty()) return error;
  }
  return {};
}

EncodedState FeatureEncoder::Encode(
    const sim::SystemSnapshot& snapshot) const {
  return EncodeForTopology(snapshot, snapshot.topology);
}

EncodedState FeatureEncoder::EncodeForTopology(
    const sim::SystemSnapshot& snapshot,
    const sim::Topology& topology) const {
  std::vector<std::vector<double>> rows;
  rows.reserve(snapshot.hosts.size());
  for (const auto& host : snapshot.hosts) rows.push_back(host.Features());
  std::vector<bool> alive = snapshot.alive;
  if (alive.size() != rows.size()) alive.assign(rows.size(), true);
  return EncodeRows(rows, topology, &alive);
}

EncodedState FeatureEncoder::EncodeRecord(
    const workload::TraceRecord& record) const {
  const sim::Topology topo =
      sim::Topology::FromAssignment(record.assignment);
  return EncodeRows(record.host_features, topo, nullptr);
}

}  // namespace carol::core
