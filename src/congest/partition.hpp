// Deterministic node-to-worker partitioning for the synchronous round
// kernel (congest/shard.cpp).
//
// A Partition is a pure function of (topology, workers, policy): no seeds,
// no wall clock, no platform dependence. That purity is what lets the
// round kernel promise bit-identical outcomes at every worker count — the
// partition only decides *which thread* executes a node and *which channel*
// carries a frame, never what the node computes or what the frame says.
// At W = 1 every node is owned by the single inline worker.
//
// Two policies, mirroring the standard Pregel choices:
//   * Hash  — owner(v) = mix64(v) mod W. Stateless, balanced in
//     expectation on any vertex distribution, oblivious to topology;
//     adjacent vertices usually land on different workers (high cut).
//   * Range — contiguous vertex ranges weighted by CSR degree, so every
//     worker owns about the same number of directed edges (the unit of
//     per-round work). Builders in this library lay out structured
//     instances (paths, cycles, planted gadgets) with locality, so Range
//     usually cuts far fewer edges than Hash.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace csd::congest {

enum class PartitionPolicy : std::uint8_t { Range = 0, Hash = 1 };

std::string_view to_string(PartitionPolicy policy);
/// Parse "range" / "hash" (exact, lowercase). Returns false on anything else.
bool parse_partition_policy(std::string_view text, PartitionPolicy& out);

/// One (src_worker, dst_worker) frame batch, exchanged at the superstep
/// barrier: `edges[i]` is the dense directed-edge index of a send (CSR
/// offsets[src] + port) whose receiver the destination worker owns. The
/// payload stays in the sender's send-arena slot (congest/frame_arena.hpp),
/// where the receiver reads it next round, so the destination lands each
/// edge by setting one presence byte. The kernel fills channels in
/// ascending edge order and drains them in (src_worker, edge) order — the
/// merge-order rule that makes the exchange deterministic. `edges` keeps
/// its capacity across rounds.
struct ShardChannel {
  std::vector<std::uint64_t> edges;

  void push(std::uint64_t edge) { edges.push_back(edge); }
  void reset() noexcept { edges.clear(); }
};

/// Execution knobs of the synchronous round kernel (congest/shard.hpp),
/// carried by NetworkConfig. Sharding is an execution strategy, not part of
/// the model: it is deliberately excluded from Network::config_digest(), so
/// the supervisor's csd-ckpt-v1 checkpoints resume across worker counts and
/// every outcome field is bit-identical at any W.
struct ShardSpec {
  /// Worker count W of the round kernel. 0 and 1 both run one worker
  /// inline on the calling thread; W >= 2 partitions the nodes across W
  /// workers (W - 1 extra threads) that exchange frames at a barrier.
  std::uint32_t workers = 0;
  PartitionPolicy policy = PartitionPolicy::Range;
  /// Surface per-worker channel traffic as engine counters
  /// (shard_channel_frames_w*/shard_channel_bytes_w*) in
  /// RunMetrics::counters and hence the trace summary. Off by default:
  /// these counters depend on W, so the determinism matrix runs without
  /// them and the nightly sweep runs with them.
  bool channel_counters = false;
};

/// Immutable node-to-worker assignment, built once per Network; O(n) memory.
class Partition {
 public:
  /// `workers` >= 1. Vertices with no owner never exist: owner(v) < workers
  /// for every v, and the owned lists partition [0, n).
  static Partition build(const GraphCsr& csr, std::uint32_t workers,
                         PartitionPolicy policy);

  std::uint32_t workers() const noexcept { return workers_; }
  std::uint32_t owner(Vertex v) const noexcept { return owner_[v]; }
  /// Vertices owned by `w`, ascending. The kernel iterates these in order —
  /// together with the channel merge-order rule this reproduces the global
  /// ascending-vertex order of a single worker exactly.
  const std::vector<Vertex>& owned(std::uint32_t w) const noexcept {
    return owned_[w];
  }
  /// Directed edges whose source is owned by `w` (the per-worker share of
  /// the dense edge index; these shares partition [0, num_directed_edges)).
  std::uint64_t owned_directed_edges(std::uint32_t w) const noexcept {
    return owned_edges_[w];
  }
  /// Directed edges whose endpoints live on different workers (each
  /// crossing edge counted once per direction).
  std::uint64_t cut_directed_edges() const noexcept { return cut_edges_; }

 private:
  std::uint32_t workers_ = 1;
  std::vector<std::uint32_t> owner_;
  std::vector<std::vector<Vertex>> owned_;
  std::vector<std::uint64_t> owned_edges_;
  std::uint64_t cut_edges_ = 0;
};

}  // namespace csd::congest
