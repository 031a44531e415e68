// Node-program interface for the CONGEST simulator.
//
// A distributed algorithm is a NodeProgram factory: the Network instantiates
// one program per node, then drives synchronous rounds. In each round the
// program sees the messages delivered this round (sent by neighbors in the
// previous round), may send at most one message of at most B bits per
// incident edge, and may set its verdict or halt.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "support/bitvec.hpp"
#include "support/rng.hpp"

namespace csd::congest {

/// Network-wide identifier of a node. Identifier assignment is separate from
/// topology (several lower bounds quantify over adversarial/random IDs).
using NodeId = std::uint64_t;

/// Local decision of a node. Following Definition 1 of the paper: on a graph
/// containing H some node must Reject; on an H-free graph all must Accept.
enum class Verdict : std::uint8_t { Accept, Reject };

/// The per-round, per-node view handed to a NodeProgram. All model
/// interaction flows through this interface; programs cannot observe
/// anything else (no shared memory, no global state).
class NodeApi {
 public:
  virtual ~NodeApi() = default;

  /// This node's identifier.
  virtual NodeId id() const = 0;
  /// Number of incident edges; ports are 0..degree()-1.
  virtual std::uint32_t degree() const = 0;
  /// Identifier of the neighbor across `port` (KT1 assumption: nodes know
  /// their neighbors' identifiers; costs one round otherwise).
  virtual NodeId neighbor_id(std::uint32_t port) const = 0;
  /// Current round number (0-based).
  virtual std::uint64_t round() const = 0;
  /// Number of nodes in the network (standard global-knowledge assumption).
  virtual std::uint64_t network_size() const = 0;
  /// Identifier namespace size N >= network_size(); all ids are in [0, N).
  /// Algorithms encode identifiers in ⌈log2 N⌉ bits.
  virtual std::uint64_t namespace_size() const = 0;
  /// Per-edge bandwidth in bits per round; 0 means unbounded (LOCAL model).
  virtual std::uint64_t bandwidth() const = 0;

  /// Message received on `port` this round; nullptr if none. The buffer is
  /// engine-owned and valid until the end of the current on_round call.
  virtual const BitVec* inbox(std::uint32_t port) const = 0;

  /// Queue `payload` for delivery to the neighbor on `port` next round.
  /// At most one send per port per round; at most bandwidth() bits.
  virtual void send(std::uint32_t port, BitVec payload) = 0;
  /// Send the same payload on every port.
  virtual void broadcast(const BitVec& payload) = 0;

  /// Node-local deterministic randomness (derived from the run seed).
  virtual Rng& rng() = 0;

  /// An empty payload buffer recycled from this node's already-consumed
  /// inbox messages (contents cleared, heap capacity retained). Semantically
  /// identical to `BitVec{}`; building outgoing payloads from it (e.g.
  /// `wire::Writer w(api.scratch());`) eliminates the one heap allocation
  /// per message per round that otherwise dominates tight send loops.
  virtual BitVec scratch() { return BitVec{}; }

  /// Annotate the current round with the algorithmic phase it belongs to
  /// ("phase1-pipeline", "peel", ...). Purely observational: a no-op unless
  /// the run records a trace (obs/round_trace.hpp), in which case the round
  /// is attributed to `name` in the trace's phase spans. Programs must
  /// derive the name from the round number (not from node-local state) so
  /// every node declares the same phase for a round — the trace keeps the
  /// first declaration.
  virtual void phase(std::string_view name) { (void)name; }

  /// Advisory activity hint (DESIGN.md §15). Called during round t, it
  /// promises that without a message this node's on_round calls in rounds
  /// t+1 .. r-1 would do nothing: no send, no RNG draw, no state change, no
  /// halt, no reject. An engine that honors the hint runs the node next at
  /// round r, or in the first earlier round whose inbox holds a frame; an
  /// engine that ignores it keeps calling on_round every round, which the
  /// promise makes indistinguishable. Every on_round call ends the hint
  /// (like re-voting to halt); a later call in the same round replaces an
  /// earlier one, and r <= t+1 is a no-op. A program must not sleep past a
  /// round where its phase() name changes: a round in which no node runs
  /// inherits the previous round's phase in the trace.
  virtual void sleep_until(std::uint64_t round) { (void)round; }

  /// Set this node's verdict to Reject ("I detected a copy of H"). Sticky.
  virtual void reject() = 0;
  /// Stop participating after this round. The run ends when all halt.
  virtual void halt() = 0;
};

/// A distributed algorithm, instantiated once per node.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Called once per round, in increasing round order. Round 0 has an empty
  /// inbox. The program must eventually call api.halt() on every node (or
  /// the network stops at its round cap and flags it).
  virtual void on_round(NodeApi& api) = 0;
};

/// Creates the program for the node with the given topology index. The same
/// factory is used for every node (uniform algorithms), but the factory may
/// inspect the index — used by lower-bound harnesses that wire special roles.
using ProgramFactory =
    std::function<std::unique_ptr<NodeProgram>(std::uint32_t /*node index*/)>;

}  // namespace csd::congest
