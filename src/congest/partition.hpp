// Deterministic node-to-worker partitioning for the synchronous round
// kernel (congest/shard.cpp).
//
// A Partition is a pure function of (topology, workers): no seeds, no wall
// clock, no platform dependence. That purity is what lets the round kernel
// promise bit-identical outcomes at every worker count — the partition only
// decides *which thread* executes a node and *which channel* carries a
// frame, never what the node computes or what the frame says.
//
// Worker w owns the contiguous vertex range [first(w), first(w + 1)),
// balanced by CSR degree so every worker owns about the same number of
// directed edges (the unit of per-round work). The partition is its W + 1
// boundaries: no per-vertex table. Because the ranges are contiguous and in
// worker order, lists each worker fills in ascending vertex or dense-edge
// order concatenate, in worker order, into the global order. At W = 1 the
// single inline worker owns [0, n).
#pragma once

#include <cstdint>
#include <ranges>
#include <vector>

#include "graph/graph.hpp"

namespace csd::congest {

/// Only the range partition exists. The enum, ShardSpec::policy and
/// Partition::build's third parameter remain because the benchmark sources
/// (perfbench/) name them.
enum class PartitionPolicy : std::uint8_t { Range = 0 };

/// Execution knobs of the synchronous round kernel (congest/shard.hpp),
/// carried by NetworkConfig. Sharding is an execution strategy, not part of
/// the model: it is deliberately excluded from Network::config_digest(), so
/// the supervisor's csd-ckpt-v1 checkpoints resume across worker counts and
/// every outcome field is bit-identical at any W.
struct ShardSpec {
  /// Worker count W of the round kernel. 0 and 1 both run one worker
  /// inline on the calling thread; W >= 2 splits the nodes into W
  /// contiguous ranges run by W workers (W - 1 extra threads) that exchange
  /// frames at a barrier.
  std::uint32_t workers = 0;
  PartitionPolicy policy = PartitionPolicy::Range;  // see PartitionPolicy
  /// Surface per-worker channel traffic as engine counters
  /// (shard_channel_frames_w*/shard_channel_bytes_w*) in
  /// RunMetrics::counters and hence the trace summary. Off by default:
  /// these counters depend on W, so the determinism matrix runs without
  /// them and the nightly sweep runs with them.
  bool channel_counters = false;
};

/// Immutable node-to-worker assignment, built once per Network; O(W) memory.
class Partition {
 public:
  /// `workers` >= 1. For 0 < w < W, first(w) is the least vertex v with
  /// (offsets[v] + v) * W >= w * (2m + n): offsets[v] + v is the weight of
  /// the vertices before v, each weighing degree + 1 (the +1 keeps isolated
  /// vertices from piling onto one worker). A range may be empty. At W = 1
  /// this makes no pass over the graph.
  static Partition build(const GraphCsr& csr, std::uint32_t workers,
                         PartitionPolicy = PartitionPolicy::Range);

  std::uint32_t workers() const noexcept {
    return static_cast<std::uint32_t>(first_.size() - 1);
  }
  /// The first vertex of worker w's range; first(workers()) = n.
  Vertex first(std::uint32_t w) const noexcept { return first_[w]; }
  /// Vertices owned by `w`, ascending.
  auto owned(std::uint32_t w) const noexcept {
    return std::views::iota(first_[w], first_[w + 1]);
  }
  /// The worker whose range holds `v` (v < n).
  std::uint32_t owner(Vertex v) const noexcept;
  /// Directed edges whose source is owned by `w` (the per-worker share of
  /// the dense edge index; these shares partition [0, num_directed_edges)).
  std::uint64_t owned_directed_edges(std::uint32_t w) const noexcept {
    return owned_edges_[w];
  }
  /// Directed edges whose endpoints live on different workers (each
  /// crossing edge counted once per direction).
  std::uint64_t cut_directed_edges() const noexcept { return cut_edges_; }

 private:
  std::vector<Vertex> first_;  // W + 1 ascending boundaries, 0 .. n
  std::vector<std::uint64_t> owned_edges_;
  std::uint64_t cut_edges_ = 0;
};

}  // namespace csd::congest
