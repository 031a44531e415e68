// Linear-round C_L detection via color-coded pipelined BFS.
//
// This is the folklore O(n + L)-round CONGEST algorithm the paper uses as
// the yardstick ("It is easy to see that O(n) rounds suffice", §1.1): every
// node picks a random color in {0,...,L-1}; color-0 nodes launch a BFS token
// carrying (origin id, hop count); a token at hop i is forwarded only by
// nodes colored i+1; if the origin receives its own token at hop L-1, a
// properly-colored — hence simple — L-cycle has been traversed and the node
// rejects. One queued token is broadcast per round (pipelining), so all
// queues drain within #origins + L rounds.
//
// One-sided error: rejection always certifies a real L-cycle; detection of
// an existing cycle happens with probability >= L^{-L} per repetition and is
// amplified by repetitions under the run supervisor (congest/supervisor.hpp).
#pragma once

#include <cstdint>

#include "congest/supervisor.hpp"
#include "graph/graph.hpp"

namespace csd::detect {

struct PipelinedCycleConfig {
  /// Cycle length to detect (L >= 3).
  std::uint32_t length = 3;
  /// Independent color-coding repetitions (amplification).
  std::uint32_t repetitions = 1;
  /// How repetitions are driven: worker threads + early exit after the
  /// first rejecting repetition. Results are jobs-count independent.
  congest::AmplifyOptions amplify;
};

/// Program factory for one repetition (colors drawn from the network seed).
congest::ProgramFactory pipelined_cycle_program(std::uint32_t length);

/// Round budget one repetition needs on an n-node network.
std::uint64_t pipelined_cycle_round_budget(std::uint64_t n,
                                           std::uint32_t length);

/// Minimum bandwidth (bits) the algorithm needs on an n-node network.
std::uint64_t pipelined_cycle_min_bandwidth(std::uint64_t n,
                                            std::uint32_t length);

/// Full detection run: amplifies over cfg.repetitions.
congest::RunOutcome detect_cycle_pipelined(const Graph& g,
                                           const PipelinedCycleConfig& cfg,
                                           std::uint64_t bandwidth,
                                           std::uint64_t seed);

}  // namespace csd::detect
