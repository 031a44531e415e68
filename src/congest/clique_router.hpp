// Relay-balanced routing in the Congested Clique — the communication
// primitive behind DLP-style subgraph listing (and, in spirit, Lenzen's
// routing theorem: bounded per-node send/receive volume routes in few
// rounds).
//
// Input: a multiset of (src → dst, payload) messages with uniform payload
// width. Direct delivery would bottleneck on the heaviest (src, dst) link;
// instead every message hops through a pseudo-random relay keyed by
// (src, dst, sequence), so both hops spread over all n links of each node.
// The round cost is ⌈max per-link stage-1 load⌉ + ⌈max stage-2 load⌉ + O(1),
// which for L messages per node is O(L/n) + O(1) with high probability.
//
// The router runs as a self-contained congested-clique execution and hands
// back the payloads delivered to each node; callers do their (free) local
// computation on the result. clique_listing is built on this primitive.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/network.hpp"
#include "graph/graph.hpp"

namespace csd::congest {

struct RoutedMessage {
  Vertex src = 0;
  Vertex dst = 0;
  BitVec payload;  // width must equal CliqueRouteRequest::payload_bits
};

struct CliqueRouteRequest {
  Vertex num_nodes = 0;
  /// Uniform payload width in bits (every message must match).
  std::uint64_t payload_bits = 0;
  std::vector<RoutedMessage> messages;
  /// Per-link bandwidth; must fit one routed record
  /// (2 + ⌈log2 n⌉ + payload_bits). 0 = unbounded.
  std::uint64_t bandwidth = 64;
};

struct CliqueRouteResult {
  /// delivered[v] = payloads that reached node v (arrival order).
  std::vector<std::vector<BitVec>> delivered;
  std::uint64_t rounds = 0;
  std::uint64_t total_bits = 0;
  /// Static per-link loads the budget was derived from.
  std::uint64_t max_stage1_load = 0;
  std::uint64_t max_stage2_load = 0;
};

/// Minimum bandwidth for a routed record.
std::uint64_t clique_route_min_bandwidth(std::uint64_t n,
                                         std::uint64_t payload_bits);

/// Round budget the request will take (computed from the static plan).
std::uint64_t clique_route_round_budget(const CliqueRouteRequest& request);

/// Execute the routing. Throws CheckFailure on malformed requests
/// (payload width mismatch, src/dst out of range, bandwidth too small).
CliqueRouteResult route_in_clique(const CliqueRouteRequest& request);

}  // namespace csd::congest
