#include "sim/topology.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>

namespace carol::sim {

Topology::Topology(int num_nodes) {
  if (num_nodes <= 0) {
    throw std::invalid_argument("Topology: num_nodes must be positive");
  }
  assignment_.assign(static_cast<std::size_t>(num_nodes), 0);
  assignment_[0] = 0;  // node 0 is the sole broker
  hash_ = RecomputeHash();
}

Topology Topology::Initial(int num_nodes, int num_brokers) {
  if (num_brokers <= 0 || num_brokers > num_nodes) {
    throw std::invalid_argument("Topology::Initial: bad broker count");
  }
  Topology t(num_nodes);
  // Spread brokers evenly: with 16 nodes / 4 brokers this picks
  // 0, 4, 8, 12 — the first (8 GB) node of each site in the default fleet.
  const int stride = num_nodes / num_brokers;
  std::vector<NodeId> brokers;
  for (int b = 0; b < num_brokers; ++b) brokers.push_back(b * stride);
  for (NodeId b : brokers) t.SetAssignment(static_cast<std::size_t>(b), b);
  int next = 0;
  for (NodeId i = 0; i < num_nodes; ++i) {
    if (std::find(brokers.begin(), brokers.end(), i) != brokers.end()) {
      continue;
    }
    // Prefer the broker of the node's own stride block (its site), which
    // reproduces the paper's symmetric initial LEIs.
    const NodeId site_broker = (i / stride) * stride;
    if (std::find(brokers.begin(), brokers.end(), site_broker) !=
        brokers.end()) {
      t.SetAssignment(static_cast<std::size_t>(i), site_broker);
    } else {
      t.SetAssignment(static_cast<std::size_t>(i),
                      brokers[static_cast<std::size_t>(next++ % num_brokers)]);
    }
  }
  return t;
}

Topology Topology::FromAssignment(const std::vector<NodeId>& assignment) {
  if (assignment.empty()) {
    throw std::invalid_argument("FromAssignment: empty assignment");
  }
  Topology t;
  t.assignment_ = assignment;
  t.hash_ = t.RecomputeHash();
  if (!t.IsValid()) {
    throw std::invalid_argument("FromAssignment: invalid encoding");
  }
  return t;
}

void Topology::ThrowOutOfRange(NodeId node, const char* op) {
  throw std::out_of_range(std::string(op) + ": node " +
                          std::to_string(node) + " out of range");
}

int Topology::broker_count() const {
  int count = 0;
  for (NodeId i = 0; i < num_nodes(); ++i) {
    if (assignment_[static_cast<std::size_t>(i)] == i) ++count;
  }
  return count;
}

std::vector<NodeId> Topology::brokers() const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < num_nodes(); ++i) {
    if (assignment_[static_cast<std::size_t>(i)] == i) out.push_back(i);
  }
  return out;
}

std::vector<NodeId> Topology::workers() const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < num_nodes(); ++i) {
    if (assignment_[static_cast<std::size_t>(i)] != i) out.push_back(i);
  }
  return out;
}

std::vector<NodeId> Topology::workers_of(NodeId broker) const {
  CheckNode(broker, "workers_of");
  std::vector<NodeId> out;
  for (NodeId i = 0; i < num_nodes(); ++i) {
    if (i != broker && assignment_[static_cast<std::size_t>(i)] == broker) {
      out.push_back(i);
    }
  }
  return out;
}

int Topology::lei_of(NodeId node) const {
  const NodeId b = broker_of(node);
  const auto bs = brokers();
  const auto it = std::find(bs.begin(), bs.end(), b);
  return it == bs.end() ? -1 : static_cast<int>(it - bs.begin());
}

void Topology::Promote(NodeId worker) {
  CheckNode(worker, "Promote");
  SetAssignment(static_cast<std::size_t>(worker), worker);
}

void Topology::Demote(NodeId broker, NodeId new_broker) {
  CheckNode(broker, "Demote");
  CheckNode(new_broker, "Demote");
  if (!is_broker(broker)) {
    throw std::invalid_argument("Demote: node is not a broker");
  }
  if (broker == new_broker || !is_broker(new_broker)) {
    throw std::invalid_argument("Demote: new_broker must be another broker");
  }
  for (NodeId w : workers_of(broker)) {
    SetAssignment(static_cast<std::size_t>(w), new_broker);
  }
  SetAssignment(static_cast<std::size_t>(broker), new_broker);
}

void Topology::Assign(NodeId worker, NodeId broker) {
  CheckNode(worker, "Assign");
  CheckNode(broker, "Assign");
  if (!is_broker(broker)) {
    throw std::invalid_argument("Assign: target is not a broker");
  }
  if (is_broker(worker)) {
    throw std::invalid_argument(
        "Assign: node is a broker (demote it instead)");
  }
  SetAssignment(static_cast<std::size_t>(worker), broker);
}

void Topology::ApplySplice(
    const std::vector<std::pair<NodeId, NodeId>>& entries) {
  // Stash the previous values so a failed validation can unwind without
  // leaving a half-spliced topology behind (XOR hash undo is exact).
  std::vector<NodeId> previous;
  previous.reserve(entries.size());
  for (const auto& [node, value] : entries) {
    if (node < 0 || node >= num_nodes() || value < 0 ||
        value >= num_nodes()) {
      for (std::size_t i = previous.size(); i-- > 0;) {
        SetAssignment(static_cast<std::size_t>(entries[i].first),
                      previous[i]);
      }
      throw std::invalid_argument("ApplySplice: entry out of node range");
    }
    previous.push_back(assignment_[static_cast<std::size_t>(node)]);
    SetAssignment(static_cast<std::size_t>(node), value);
  }
  // Local validation AFTER all writes: a worker entry may point at a
  // broker promoted by a later entry of the same splice.
  bool ok = true;
  for (const auto& [node, value] : entries) {
    if (value != node &&
        assignment_[static_cast<std::size_t>(value)] != value) {
      ok = false;
      break;
    }
  }
  if (!ok) {
    for (std::size_t i = previous.size(); i-- > 0;) {
      SetAssignment(static_cast<std::size_t>(entries[i].first),
                    previous[i]);
    }
    throw std::invalid_argument(
        "ApplySplice: spliced worker points at a non-broker");
  }
}

bool Topology::IsValid() const {
  if (assignment_.empty()) return false;
  bool any_broker = false;
  for (NodeId i = 0; i < num_nodes(); ++i) {
    const NodeId target = assignment_[static_cast<std::size_t>(i)];
    if (target < 0 || target >= num_nodes()) return false;
    if (target == i) {
      any_broker = true;
    } else if (assignment_[static_cast<std::size_t>(target)] != target) {
      return false;  // worker pointing at a non-broker
    }
  }
  return any_broker;
}

std::vector<double> Topology::AdjacencyFlat() const {
  const std::size_t h = assignment_.size();
  std::vector<double> adj(h * h, 0.0);
  const auto bs = brokers();
  for (std::size_t a = 0; a < bs.size(); ++a) {
    for (std::size_t b = a + 1; b < bs.size(); ++b) {
      adj[static_cast<std::size_t>(bs[a]) * h +
          static_cast<std::size_t>(bs[b])] = 1.0;
      adj[static_cast<std::size_t>(bs[b]) * h +
          static_cast<std::size_t>(bs[a])] = 1.0;
    }
  }
  for (NodeId i = 0; i < num_nodes(); ++i) {
    const NodeId b = assignment_[static_cast<std::size_t>(i)];
    if (b != i) {
      adj[static_cast<std::size_t>(i) * h + static_cast<std::size_t>(b)] =
          1.0;
      adj[static_cast<std::size_t>(b) * h + static_cast<std::size_t>(i)] =
          1.0;
    }
  }
  return adj;
}

std::size_t Topology::HashKey(std::size_t index, NodeId value) {
  // splitmix64 finalizer over the packed (index, value) pair: cheap,
  // stateless, and well-mixed enough that XOR-combining per-entry keys
  // behaves like a random Zobrist table for arbitrary host counts.
  std::uint64_t x = (static_cast<std::uint64_t>(index) << 32) ^
                    static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                        static_cast<std::int64_t>(value)));
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return static_cast<std::size_t>(x ^ (x >> 31));
}

void Topology::SetAssignment(std::size_t index, NodeId value) {
  NodeId& slot = assignment_[index];
  if (slot == value) return;
  // XOR is its own inverse: out with the old entry's key, in with the
  // new one. A full undo (re-applying the old value) restores the exact
  // previous hash, which is what makes tabu scratch rebuilds O(moved
  // entries) instead of O(H).
  hash_ ^= HashKey(index, slot) ^ HashKey(index, value);
  slot = value;
}

std::size_t Topology::RecomputeHash() const {
  std::size_t hash = 0;
  for (std::size_t i = 0; i < assignment_.size(); ++i) {
    hash ^= HashKey(i, assignment_[i]);
  }
  return hash;
}

std::string Topology::ToString() const {
  std::ostringstream os;
  bool first = true;
  for (NodeId b : brokers()) {
    if (!first) os << ",";
    first = false;
    os << "{" << b << ":[";
    const auto ws = workers_of(b);
    for (std::size_t i = 0; i < ws.size(); ++i) {
      os << ws[i];
      if (i + 1 < ws.size()) os << ",";
    }
    os << "]}";
  }
  return os.str();
}

}  // namespace carol::sim
