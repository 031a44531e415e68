#include "congest/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "congest/run_batch.hpp"
#include "obs/metrics_v2.hpp"
#include "support/check.hpp"

namespace csd::congest {

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

NetworkConfig with_stall_window(NetworkConfig config,
                                const SupervisorConfig& sup) {
  if (sup.stall_window != 0) config.stall_window = sup.stall_window;
  return config;
}

}  // namespace

Supervisor::Supervisor(Graph topology, NetworkConfig config,
                       SupervisorConfig sup)
    : net_(std::move(topology), with_stall_window(config, sup)), sup_(sup) {}

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
  const Vertex n = net_.topology().num_vertices();
  const SnapshotIdentity identity{topology_digest(net_.topology(), net_.ids()),
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
    return derive_seed(net_.config().seed, 0x5eedULL + rep);
  };
  std::uint32_t rep = start_rep;
  if (!(sup_.early_exit && combined.detected))
    RunBatch(sup_.jobs).stream(
        call_reps,
        [&](std::uint32_t i) {
          return RunBatch::Task{&net_, &factory, rep_seed(start_rep + i)};
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
  // Rebuild the counters from the merged report: the per-repetition
  // counter registries are not serialized, and every fault counter is a
  // linear function of the report, so run and resume stay identical.
  combined.metrics.counters = fault_counters(combined.faults);
  result.outcome = std::move(combined);
  return result;
}

}  // namespace csd::congest
