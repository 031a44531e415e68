#include "congest/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "congest/run_batch.hpp"
#include "obs/metrics_v2.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace csd::congest {

RunOutcome make_amplified_accumulator(Vertex n) {
  RunOutcome combined;
  combined.completed = true;
  combined.verdicts.assign(n, Verdict::Accept);
  combined.metrics.bits_sent_by_node.assign(n, 0);
  combined.metrics.repetitions_executed = 0;
  combined.metrics.repetitions_skipped = 0;
  return combined;
}

void merge_amplified(RunOutcome& combined, RunOutcome&& rep) {
  const Vertex n = static_cast<Vertex>(combined.verdicts.size());
  CSD_CHECK_MSG(rep.verdicts.size() == n,
                "merge_amplified: node count mismatch");
  combined.completed = combined.completed && rep.completed;
  combined.detected = combined.detected || rep.detected;
  for (Vertex v = 0; v < n; ++v)
    if (rep.verdicts[v] == Verdict::Reject)
      combined.verdicts[v] = Verdict::Reject;
  combined.metrics.rounds += rep.metrics.rounds;
  combined.metrics.messages += rep.metrics.messages;
  combined.metrics.total_bits += rep.metrics.total_bits;
  combined.metrics.max_message_bits = std::max(
      combined.metrics.max_message_bits, rep.metrics.max_message_bits);
  for (Vertex v = 0; v < n; ++v)
    combined.metrics.bits_sent_by_node[v] += rep.metrics.bits_sent_by_node[v];
  combined.metrics.repetitions_executed += rep.metrics.repetitions_executed;
  combined.metrics.repetitions_skipped += rep.metrics.repetitions_skipped;
  // Traces merge in repetition order — the order the Supervisor merges in
  // at every jobs count — so the combined trace is jobs-count independent.
  combined.trace.append(rep.trace);
  combined.metrics.timers.merge(rep.metrics.timers);
  combined.faults.merge(std::move(rep.faults));
}

std::uint64_t repetition_seed(std::uint64_t seed, std::uint32_t rep) {
  return derive_seed(seed, 0x5eedULL + rep);
}

namespace {

/// A repetition the faults killed: some node never halted (crashed out or
/// starved) or the engine watchdog cut it. Retry candidates.
bool fault_killed(const RunOutcome& outcome) {
  return !outcome.completed || outcome.faults.watchdog_stalls != 0;
}

Snapshot make_amplified_snapshot(const SnapshotIdentity& identity,
                                 const RunOutcome& combined,
                                 std::uint32_t next_repetition,
                                 std::uint32_t repetitions,
                                 std::uint32_t retries_used) {
  Snapshot snap;
  snap.kind = Snapshot::Kind::Amplified;
  AmplifiedSnapshot& amp = snap.amplified;
  static_cast<RunAccounting&>(amp) = combined.metrics;
  amp.identity = identity;
  amp.next_repetition = next_repetition;
  amp.repetitions = repetitions;
  amp.completed = combined.completed ? 1 : 0;
  amp.detected = combined.detected ? 1 : 0;
  amp.verdict_reject.resize(combined.verdicts.size());
  for (std::size_t v = 0; v < combined.verdicts.size(); ++v)
    amp.verdict_reject[v] = combined.verdicts[v] == Verdict::Reject ? 1 : 0;
  amp.retries_used = retries_used;
  amp.faults = combined.faults;
  return snap;
}

}  // namespace

Supervisor::Supervisor(const Graph& topology, NetworkConfig config,
                       SupervisorConfig sup)
    : net_(topology, std::move(config)), sup_(sup) {}

SupervisedResult Supervisor::run(const ProgramFactory& factory,
                                 std::uint32_t repetitions) const {
  return drive(factory, repetitions, nullptr);
}

SupervisedResult Supervisor::resume(const ProgramFactory& factory,
                                    std::uint32_t repetitions,
                                    const Snapshot& snapshot) const {
  return drive(factory, repetitions, &snapshot);
}

SupervisedResult Supervisor::drive(const ProgramFactory& factory,
                                   std::uint32_t repetitions,
                                   const Snapshot* resume_from) const {
  CSD_CHECK(repetitions >= 1);
  const detail::EngineTopology& topology = net_.engine_topology();
  const Vertex n = topology.num_vertices();
  const SnapshotIdentity identity{topology_digest(topology.csr, topology.ids),
                                  net_.config_digest(), net_.config().seed};

  SupervisedResult result;
  result.planned = repetitions;
  RunOutcome combined = make_amplified_accumulator(n);
  std::uint32_t start_rep = 0;

  if (resume_from != nullptr) {
    CSD_CHECK_MSG(resume_from->kind == Snapshot::Kind::Amplified,
                  "Supervisor::resume needs an amplified snapshot, got "
                      << to_string(resume_from->kind));
    const AmplifiedSnapshot& amp = resume_from->amplified;
    CSD_CHECK_MSG(amp.identity == identity,
                  "snapshot belongs to a different topology/config/seed");
    CSD_CHECK_MSG(amp.repetitions == repetitions,
                  "snapshot planned " << amp.repetitions
                                      << " repetitions, caller asked for "
                                      << repetitions);
    CSD_CHECK_MSG(amp.next_repetition <= amp.repetitions,
                  "key 'next_repetition' = " << amp.next_repetition
                                              << " is above 'repetitions' = "
                                              << amp.repetitions);
    CSD_CHECK_MSG(amp.verdict_reject.size() == n &&
                      amp.bits_sent_by_node.size() == n,
                  "snapshot node count mismatch");
    // The accounting make_amplified_snapshot writes: every repetition
    // before the resume point was executed (merged, never skipped), and
    // `detected` is the OR of the verdicts it was merged with.
    CSD_CHECK_MSG(amp.repetitions_executed == amp.next_repetition,
                  "key 'repetitions_executed' = "
                      << amp.repetitions_executed
                      << " differs from 'next_repetition' = "
                      << amp.next_repetition);
    CSD_CHECK_MSG(amp.repetitions_skipped == 0,
                  "key 'repetitions_skipped' = "
                      << amp.repetitions_skipped
                      << " in a snapshot (only a finished call skips)");
    const bool any_reject =
        std::any_of(amp.verdict_reject.begin(), amp.verdict_reject.end(),
                    [](std::uint8_t reject) { return reject != 0; });
    CSD_CHECK_MSG((amp.detected != 0) == any_reject,
                  "key 'detected' = " << unsigned{amp.detected}
                                      << " but " << (any_reject ? "some" : "no")
                                      << " 'verdict_reject' is 1");
    start_rep = amp.next_repetition;
    result.retries_used = amp.retries_used;
    combined.completed = amp.completed != 0;
    combined.detected = amp.detected != 0;
    for (Vertex v = 0; v < n; ++v)
      combined.verdicts[v] =
          amp.verdict_reject[v] != 0 ? Verdict::Reject : Verdict::Accept;
    static_cast<RunAccounting&>(combined.metrics) = amp;
    combined.faults = amp.faults;
  }

  using Clock = std::chrono::steady_clock;
  const auto started = Clock::now();
  const auto deadline_expired = [&] {
    if (sup_.deadline_ms == 0) return false;
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::now() - started);
    return static_cast<std::uint64_t>(elapsed.count()) >= sup_.deadline_ms;
  };

  // One stream over every repetition this call may merge: the workers run
  // ahead of the merge by a bounded window, and the merge — retries,
  // stall reports, early exit and the deadline — happens here, in
  // repetition order, so the answer is the same at every jobs count.
  std::uint32_t call_reps = repetitions - start_rep;
  if (sup_.max_reps_per_call != 0)
    call_reps = std::min(call_reps, sup_.max_reps_per_call);
  const auto rep_seed = [&](std::uint32_t rep) {
    return repetition_seed(net_.config().seed, rep);
  };
  std::uint32_t rep = start_rep;
  if (!(sup_.early_exit && combined.detected))
    RunBatch(sup_.jobs).stream(
        call_reps,
        [&](std::uint32_t i) {
          return net_.run(factory, rep_seed(start_rep + i));
        },
        [&](std::uint32_t, RunOutcome&& rep_outcome) {
          std::uint64_t merged_seed = rep_seed(rep);
          // Retry-with-reseed: deterministic seed chain off the repetition
          // seed, so a resumed supervisor re-derives the same decisions.
          for (std::uint32_t attempt = 0;
               fault_killed(rep_outcome) && attempt < sup_.max_retries;
               ++attempt) {
            merged_seed = derive_seed(rep_seed(rep), 0x9e7ULL + attempt);
            rep_outcome = net_.run(factory, merged_seed);
            ++result.retries_used;
          }
          const bool over_budget =
              sup_.round_budget != 0 &&
              rep_outcome.metrics.rounds >= sup_.round_budget;
          if (fault_killed(rep_outcome) || over_budget) {
            StallReport report;
            report.repetition = rep;
            report.seed = merged_seed;
            report.rounds = rep_outcome.metrics.rounds;
            report.stalled_nodes = static_cast<std::uint32_t>(
                rep_outcome.faults.stalled_nodes.size());
            report.watchdog = rep_outcome.faults.watchdog_stalls != 0;
            report.over_budget = over_budget;
            report.incomplete = !rep_outcome.completed;
            report.counters = rep_outcome.metrics.counters;
            if (obs::Telemetry* telemetry = net_.config().telemetry)
              telemetry->record(obs::EventKind::StallReport, report.repetition,
                                report.rounds, report.stalled_nodes);
            result.stalls.push_back(std::move(report));
          }
          merge_amplified(combined, std::move(rep_outcome));
          ++rep;
          if (sup_.early_exit && combined.detected) return false;
          result.deadline_hit = rep < repetitions && deadline_expired();
          return !result.deadline_hit;
        });
  result.paused = sup_.max_reps_per_call != 0 && rep < repetitions &&
                  !result.deadline_hit &&
                  !(sup_.early_exit && combined.detected);
  if (rep > start_rep)
    result.checkpoint = std::make_shared<Snapshot>(make_amplified_snapshot(
        identity, combined, rep, repetitions, result.retries_used));

  combined.metrics.repetitions_skipped =
      repetitions - combined.metrics.repetitions_executed;
  result.outcome = std::move(combined);
  return result;
}

}  // namespace csd::congest
