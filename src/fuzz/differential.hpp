// Differential oracle for one fuzz case.
//
// check_case runs the case through every engine the repo has — the
// synchronous Network, the async engine under both wire disciplines, and
// the run supervisor (the one amplified-run driver) at several --jobs
// counts — and cross-checks every invariant the engines advertise:
//
//   * ground truth: the VF2 monomorphism oracle must agree with the
//     family-specific oracle (has_clique / has_cycle_of_length / has_tree);
//   * fault-free equivalence: per repetition, sync == async-raw ==
//     async-reliable on completion, verdicts, payload bits, rounds/pulses,
//     and the per-round JSONL trace, byte for byte;
//   * accounting: async overhead_bits must equal an *independently
//     restated* per-frame constant (64-bit pulse + 2 flags) times the frame
//     count, and the fault-free reliable transport must charge exactly
//     (seq + crc) per data packet and per ack with acks == frames and zero
//     retransmissions — so an accounting regression in the engine is caught
//     against this file, not against itself;
//   * one-sided error: a fault-free Reject certifies a real copy; the
//     deterministic clique detector must match ground truth exactly;
//   * driver determinism: the Supervisor's amplified outcomes (verdicts,
//     metrics, fault report, trace bytes) are identical at --jobs 1, 4 and
//     hardware concurrency, its aggregation matches a hand-rolled
//     per-repetition aggregate, and early exit never changes the answer;
//   * fault determinism: a faulty plan replays to the identical outcome and
//     FaultReport on every engine (and trace record on the sync engine,
//     whose second run reuses the first one's workspace), and reliable transport restores the
//     fault-free verdicts whenever no node crashed and no packet exhausted
//     its retries;
//   * checkpoint/kill/resume: snapshotting the async engine at a
//     case-derived pulse is a zero observer (the checkpointing run matches
//     the plain run byte for byte), the snapshot survives a csd-ckpt-v1
//     JSON round trip, and the resumed continuation reproduces the
//     uninterrupted verdicts, metrics, FaultReport, and trace suffix —
//     fault-free and under faults, under both wire disciplines and with
//     node recovery;
//   * supervised slices: a Supervisor driven in max_reps_per_call slices
//     through its amplified checkpoints reassembles the uninterrupted
//     aggregate at --jobs 1 and 4, fault-free and with the retry ledger
//     engaged;
//   * worker count: the round kernel at W = 1, 2 and 5 (either partition
//     policy) reproduces the inline run bit for bit, under faults too;
//   * activity hint: the plain programs and the same programs with every
//     NodeApi::sleep_until dropped (ignore_activity_hints) give identical
//     outcomes and traces at W = 1 and W = 3;
//   * workspace reuse: on one Network at W = 1 and W = 3, a run after
//     another factory's run at another seed equals a first run (outcome
//     and trace record), under the case's faults too;
//   * node recovery: with scheduled crashes, reliable transport, and
//     RecoveryPolicy on, the run is deterministic, every crashed node
//     rejoins (none left dead with retry budget to spare), and when no
//     conversation exhausted its retries the healed run completes with the
//     fault-free verdicts.
//
// The first violated invariant is returned as a Divergence (check id +
// human-readable detail); nullopt means the case is consistent.
#pragma once

#include <optional>

#include "fuzz/fuzz_case.hpp"

namespace csd::fuzz {

/// Run every engine over `c` and cross-check. Returns the first divergence,
/// or nullopt when all invariants hold. When `expect` is non-null it is
/// filled with the ground truth and fault-free verdict (valid even when a
/// divergence is returned, unless the divergence is in the oracle itself).
std::optional<Divergence> check_case(const FuzzCase& c,
                                     CaseExpectation* expect = nullptr);

}  // namespace csd::fuzz
