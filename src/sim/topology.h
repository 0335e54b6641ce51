// Broker-worker topology graph G_t of the edge federation (paper §III-A).
//
// Every node is either a broker or a worker assigned to exactly one broker;
// brokers form a clique (they synchronize management state), workers
// connect only to their broker. Local Edge Infrastructure (LEI) = a broker
// plus its workers.
#ifndef CAROL_SIM_TOPOLOGY_H_
#define CAROL_SIM_TOPOLOGY_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.h"

namespace carol::sim {

class Topology {
 public:
  Topology() = default;
  // All nodes start as workers of node 0 (which becomes the sole broker).
  explicit Topology(int num_nodes);

  // The paper's starting configuration: `num_brokers` LEIs with brokers
  // spread evenly across the node range and remaining nodes assigned
  // round-robin, i.e. symmetric worker distribution.
  static Topology Initial(int num_nodes, int num_brokers);

  // Rebuilds a topology from a broker_of vector (assignment[i] == i marks
  // a broker). Throws std::invalid_argument if the encoding is invalid.
  static Topology FromAssignment(const std::vector<NodeId>& assignment);

  int num_nodes() const { return static_cast<int>(assignment_.size()); }
  int broker_count() const;
  int worker_count() const { return num_nodes() - broker_count(); }

  // Inline: the sim kernel and the node-shift search call these two in
  // their innermost loops. Both throw std::out_of_range for a node outside
  // [0, num_nodes()).
  bool is_broker(NodeId node) const {
    CheckNode(node, "is_broker");
    return assignment_[static_cast<std::size_t>(node)] == node;
  }
  // Sorted list of broker ids.
  std::vector<NodeId> brokers() const;
  std::vector<NodeId> workers() const;
  // Broker managing `node`; for a broker returns the node itself.
  NodeId broker_of(NodeId node) const {
    CheckNode(node, "broker_of");
    return assignment_[static_cast<std::size_t>(node)];
  }
  std::vector<NodeId> workers_of(NodeId broker) const;
  // LEI index of a node = position of its broker in brokers().
  int lei_of(NodeId node) const;

  // --- mutations (the node-shift primitives build on these) ---
  // Makes `worker` a broker (its former siblings stay with their broker).
  void Promote(NodeId worker);
  // Makes `broker` a worker of `new_broker`; all its workers move to
  // `new_broker` too. Throws std::invalid_argument if it is the last
  // broker or new_broker is not a broker.
  void Demote(NodeId broker, NodeId new_broker);
  // Reassigns `worker` to `broker`. Throws on role violations.
  void Assign(NodeId worker, NodeId broker);

  // Splices a batch of assignment edits (node -> new broker_of value;
  // value == node makes the node a broker) in O(entries): every entry
  // goes through the hash-maintaining writer, so Hash() stays incremental
  // — no full rehash. Validation is local to the entries (post-splice,
  // every written worker must point at a broker and no entry may leave
  // the node range); the caller guarantees the region property that makes
  // local validation sufficient: no node OUTSIDE the entry set points at
  // a node whose role the splice changes (core::RepairSubgraph extracts
  // whole LEIs exactly so this holds). Throws std::invalid_argument on a
  // locally-detectable violation, after rolling the splice back.
  void ApplySplice(const std::vector<std::pair<NodeId, NodeId>>& entries);

  // True iff there is at least one broker and every worker points at a
  // broker. (Mutation methods preserve validity; this guards topologies
  // assembled externally, e.g. by baseline policies.)
  bool IsValid() const;

  // Undirected adjacency (broker clique + worker-broker edges), flattened
  // row-major HxH with 0/1 entries. No self loops.
  std::vector<double> AdjacencyFlat() const;

  // Zobrist-style hash over the assignment vector, maintained
  // INCREMENTALLY: every mutation XORs out the touched entries' old keys
  // and XORs in the new ones, so Hash() is O(1) — the tabu list filters
  // candidates without ever rehashing a full topology (the ROADMAP's
  // enumeration-side cost at H >= 64). Pinned bit-for-bit against
  // RecomputeHash() by tests/topology_hash_test.cpp.
  std::size_t Hash() const { return hash_; }
  // From-scratch reference rehash (O(H)); equals Hash() always.
  std::size_t RecomputeHash() const;

  // Read-only view of the broker_of encoding (assignment()[i] == i marks
  // a broker); FromAssignment(assignment()) round-trips.
  const std::vector<NodeId>& assignment() const { return assignment_; }

  bool operator==(const Topology& other) const = default;

  // e.g. "{0:[1,2,3]},{4:[5,6,7]}".
  std::string ToString() const;

 private:
  void CheckNode(NodeId node, const char* op) const {
    if (node < 0 || node >= num_nodes()) [[unlikely]] {
      ThrowOutOfRange(node, op);
    }
  }
  // The cold half of CheckNode, kept out of line.
  [[noreturn]] static void ThrowOutOfRange(NodeId node, const char* op);
  // Per-(index, value) 64-bit Zobrist key (splitmix64 mix, computed on
  // the fly so no table has to cover arbitrary host counts).
  static std::size_t HashKey(std::size_t index, NodeId value);
  // The only writer of assignment_ entries: updates hash_ in O(1).
  void SetAssignment(std::size_t index, NodeId value);

  // assignment_[i] == i  -> node i is a broker;
  // assignment_[i] == b  -> node i is a worker of broker b.
  std::vector<NodeId> assignment_;
  // XOR over HashKey(i, assignment_[i]); kept in sync by SetAssignment.
  std::size_t hash_ = 0;
};

}  // namespace carol::sim

#endif  // CAROL_SIM_TOPOLOGY_H_
