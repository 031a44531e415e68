#include "fuzz/differential.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "congest/async.hpp"
#include "congest/network.hpp"
#include "congest/snapshot.hpp"
#include "congest/supervisor.hpp"
#include "graph/oracle.hpp"
#include "graph/vf2.hpp"
#include "obs/trace_analysis.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace csd::fuzz {

namespace {

// Independent restatement of the wire formats. Deliberately NOT written in
// terms of Frame::kOverheadBits / kSeqWireBits / kCrcWireBits: if an
// engine-side accounting constant regresses, the fuzzer diverges against
// these numbers instead of agreeing with the regressed engine.
constexpr std::uint64_t kFrameOverheadBits = 64 + 2;  // pulse + 2 flags
constexpr std::uint64_t kSeqWireBits = 32;
constexpr std::uint64_t kCrcWireBits = 32;

std::string verdicts_str(const std::vector<congest::Verdict>& vs) {
  std::string s;
  s.reserve(vs.size());
  for (const auto v : vs) s += v == congest::Verdict::Reject ? 'R' : 'a';
  return s;
}

Divergence diverge(const char* check, const std::ostringstream& detail) {
  return Divergence{check, detail.str()};
}

/// Everything a repeated faulty run must reproduce bit-for-bit.
struct AsyncDigest {
  bool completed;
  bool detected;
  bool detected_by_survivors;
  std::vector<congest::Verdict> verdicts;
  std::uint64_t pulses;
  std::uint64_t payload_bits;
  std::uint64_t overhead_bits;
  std::uint64_t frames;
  std::uint64_t transport_bits;
  std::uint64_t acks;
  congest::FaultReport faults;

  friend bool operator==(const AsyncDigest&, const AsyncDigest&) = default;
};

AsyncDigest digest(const congest::AsyncRunOutcome& o) {
  return {o.completed,     o.detected, o.faults.detected_by_survivors,
          o.verdicts,      o.pulses,   o.payload_bits,
          o.overhead_bits, o.frames,   o.transport_bits,
          o.acks,          o.faults};
}

/// Everything two sync runs of one repetition must agree on bit-for-bit.
struct SyncDigest {
  bool completed;
  bool detected;
  std::vector<congest::Verdict> verdicts;
  std::uint64_t rounds;
  std::uint64_t messages;
  std::uint64_t total_bits;
  std::uint64_t max_message_bits;
  std::vector<std::uint64_t> bits_sent_by_node;
  congest::FaultReport faults;

  friend bool operator==(const SyncDigest&, const SyncDigest&) = default;
};

SyncDigest digest(const congest::RunOutcome& o) {
  return {o.completed,
          o.detected,
          o.verdicts,
          o.metrics.rounds,
          o.metrics.messages,
          o.metrics.total_bits,
          o.metrics.max_message_bits,
          o.metrics.bits_sent_by_node,
          o.faults};
}

/// The resumed trace must match the uninterrupted one for every round at or
/// past the resume point (earlier rounds are quiet in the resumed trace).
bool trace_suffix_matches(const obs::RunTrace& full,
                          const obs::RunTrace& resumed, std::uint64_t from) {
  const auto& a = full.rounds();
  const auto& b = resumed.rounds();
  if (a.size() != b.size()) return false;
  for (std::size_t i = from; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

/// The csd-trace-v2 reader gives back the record the writer wrote.
std::optional<Divergence> check_trace_round_trip(const obs::RunTrace& trace) {
  std::stringstream jsonl;
  trace.write_jsonl(jsonl);
  std::ostringstream os;
  try {
    const auto back = obs::parse_trace_jsonl(jsonl);
    if (back.size() == 1 && back.front() == trace.instance()) return {};
    os << back.size() << " instance(s) read back, unequal to the record";
  } catch (const CheckFailure& failure) {
    os << "the trace's own JSONL is rejected: " << failure.what();
  }
  return diverge("trace-round-trip", os);
}

/// Serialize the snapshot to JSON and parse it back — the resume below then
/// exercises the csd-ckpt-v1 wire format, not just the in-memory structs.
congest::Snapshot wire_round_trip(const congest::Snapshot& snap) {
  return congest::snapshot_from_json(
      obs::Json::parse(congest::to_json(snap).dump()));
}

/// Checkpoint-at-a-random-pulse, discard the engine, resume: the observed
/// run must be a zero observer of the reference (capturing changes nothing)
/// and the resumed continuation must be bit-identical on verdicts, fault
/// report, accounting, and the trace suffix. Both wire disciplines, and the
/// recovery configuration when the caller enables it in `cfg`.
std::optional<Divergence> check_async_resume(
    const Graph& host, congest::AsyncConfig cfg,
    const congest::ProgramFactory& factory,
    const congest::AsyncRunOutcome& reference, std::uint64_t pick_seed,
    const char* name) {
  if (reference.pulses < 2) return std::nullopt;
  cfg.checkpoint_at_pulse = 1 + pick_seed % (reference.pulses - 1);
  const congest::AsyncRunOutcome observed = run_async(host, cfg, factory);
  if (!(digest(observed) == digest(reference)) ||
      !trace_suffix_matches(reference.trace, observed.trace, 0)) {
    std::ostringstream os;
    os << name << ": checkpointing at pulse " << cfg.checkpoint_at_pulse
       << " changed the run (pulses " << observed.pulses << "/"
       << reference.pulses << ", payload " << observed.payload_bits << "/"
       << reference.payload_bits << ")";
    return diverge("checkpoint-zero-observer", os);
  }
  if (observed.checkpoint == nullptr) {
    // An event-free run (no edges anywhere) never enters the event loop and
    // so never crosses a capture point; there is nothing to freeze.
    if (observed.frames == 0) return std::nullopt;
    std::ostringstream os;
    os << name << ": no snapshot captured at pulse "
       << cfg.checkpoint_at_pulse << " of a " << reference.pulses
       << "-pulse run";
    return diverge("checkpoint-missing", os);
  }
  const congest::AsyncRunOutcome resumed =
      resume_async(host, cfg, factory, wire_round_trip(*observed.checkpoint));
  if (!(digest(resumed) == digest(reference))) {
    std::ostringstream os;
    os << name << ": resume from pulse "
       << observed.checkpoint->async_state.pulses << " diverged (verdicts "
       << verdicts_str(resumed.verdicts) << " vs "
       << verdicts_str(reference.verdicts) << ", payload "
       << resumed.payload_bits << " vs " << reference.payload_bits << ")";
    return diverge("checkpoint-resume", os);
  }
  if (!trace_suffix_matches(reference.trace, resumed.trace,
                            observed.checkpoint->async_state.pulses)) {
    std::ostringstream os;
    os << name << ": resumed trace suffix differs from the uninterrupted "
       << "trace past pulse " << observed.checkpoint->async_state.pulses;
    return diverge("checkpoint-resume", os);
  }
  return std::nullopt;
}

/// Drive the supervisor in slices through its amplified checkpoints at
/// --jobs 1 and 4 and require the reassembled aggregate to match the
/// uninterrupted reference bit for bit.
std::optional<Divergence> check_supervised_resume(
    const Graph& host, const congest::NetworkConfig& cfg,
    const congest::ProgramFactory& factory, std::uint32_t repetitions,
    const congest::RunOutcome& reference, std::uint64_t pick_seed,
    std::uint32_t max_retries) {
  for (const unsigned jobs : {1u, 4u}) {
    congest::SupervisorConfig sup;
    sup.jobs = jobs;
    sup.early_exit = false;
    sup.max_retries = max_retries;
    sup.max_reps_per_call =
        1 + static_cast<std::uint32_t>(pick_seed % repetitions);
    const congest::Supervisor supervisor(host, cfg, sup);
    congest::SupervisedResult sr = supervisor.run(factory, repetitions);
    std::uint32_t slices = 1;
    while (sr.paused) {
      if (sr.checkpoint == nullptr || ++slices > repetitions + 1) {
        std::ostringstream os;
        os << "supervisor at --jobs " << jobs << " paused "
           << (sr.checkpoint == nullptr ? "without a checkpoint"
                                        : "more often than it has work");
        return diverge("supervised-resume", os);
      }
      sr = supervisor.resume(factory, repetitions,
                             wire_round_trip(*sr.checkpoint));
    }
    if (!(digest(sr.outcome) == digest(reference)) ||
        sr.outcome.metrics.repetitions_executed !=
            reference.metrics.repetitions_executed ||
        sr.outcome.metrics.repetitions_skipped !=
            reference.metrics.repetitions_skipped) {
      std::ostringstream os;
      os << "supervised slices of " << sup.max_reps_per_call << " at --jobs "
         << jobs << " reassembled a different aggregate (detected "
         << sr.outcome.detected << "/" << reference.detected << ", bits "
         << sr.outcome.metrics.total_bits << "/"
         << reference.metrics.total_bits << ")";
      return diverge("supervised-resume", os);
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<Divergence> check_case(const FuzzCase& c,
                                     CaseExpectation* expect) {
  const Graph host = build_graph(c);
  const Graph pattern = pattern_graph(c);
  const std::uint64_t n = host.num_vertices();
  for (const auto& ev : c.crashes)
    CSD_CHECK_MSG(ev.node < n, "crash event for node " << ev.node
                               << " outside the " << n << "-vertex host");

  // -- ground truth: VF2 vs the family-specific oracle ----------------------
  const bool truth = contains_subgraph(host, pattern);
  bool family_truth = false;
  switch (c.program) {
    case ProgramKind::Clique:
      family_truth = oracle::has_clique(host, c.param);
      break;
    case ProgramKind::EvenCycle:
    case ProgramKind::PipelinedCycle:
      family_truth = oracle::has_cycle_of_length(host, c.param);
      break;
    case ProgramKind::Tree:
      family_truth = oracle::has_tree(host, tree_catalog(c.param));
      break;
  }
  if (truth != family_truth) {
    std::ostringstream os;
    os << "VF2 says " << (truth ? "present" : "absent") << " but the "
       << to_string(c.program) << " oracle says "
       << (family_truth ? "present" : "absent");
    return diverge("vf2-vs-family-oracle", os);
  }
  if (expect) expect->truth = truth;

  const std::uint64_t bandwidth = effective_bandwidth(c, host);
  const std::uint64_t budget = round_budget(c, host, bandwidth);
  const congest::ProgramFactory factory = make_program(c);

  congest::NetworkConfig sync_cfg;
  sync_cfg.bandwidth = bandwidth;
  sync_cfg.max_rounds = budget;
  sync_cfg.seed = c.seed;
  sync_cfg.trace.enabled = true;

  congest::AsyncConfig async_cfg;
  async_cfg.bandwidth = bandwidth;
  async_cfg.max_pulses = budget;
  async_cfg.seed = c.seed;
  async_cfg.max_delay = c.max_delay;
  async_cfg.trace.enabled = true;

  // -- fault-free per-repetition triple-engine equivalence ------------------
  const congest::Network net(host, sync_cfg);
  obs::RunTrace merged_sync_trace;
  std::vector<congest::RunOutcome> sync_reps;
  sync_reps.reserve(c.repetitions);
  for (std::uint32_t rep = 0; rep < c.repetitions; ++rep) {
    const std::uint64_t rep_seed = congest::repetition_seed(c.seed, rep);
    congest::RunOutcome sync = net.run(factory, rep_seed);
    merged_sync_trace.append(sync.trace);

    for (const auto mode :
         {congest::TransportMode::Raw, congest::TransportMode::Reliable}) {
      congest::AsyncConfig cfg = async_cfg;
      cfg.seed = rep_seed;
      cfg.transport = mode;
      const congest::AsyncRunOutcome async = run_async(host, cfg, factory);
      const char* name = mode == congest::TransportMode::Raw
                             ? "async-raw"
                             : "async-reliable";
      if (async.completed != sync.completed || async.detected != sync.detected ||
          async.verdicts != sync.verdicts) {
        std::ostringstream os;
        os << name << " rep " << rep << ": sync verdicts "
           << verdicts_str(sync.verdicts) << " (completed=" << sync.completed
           << ", detected=" << sync.detected << ") vs async "
           << verdicts_str(async.verdicts) << " (completed=" << async.completed
           << ", detected=" << async.detected << ")";
        return diverge("sync-vs-async-verdicts", os);
      }
      if (async.payload_bits != sync.metrics.total_bits ||
          async.pulses != sync.metrics.rounds) {
        std::ostringstream os;
        os << name << " rep " << rep << ": payload "
           << async.payload_bits << " vs sync bits "
           << sync.metrics.total_bits << "; pulses " << async.pulses
           << " vs rounds " << sync.metrics.rounds;
        return diverge("sync-vs-async-accounting", os);
      }
      if (async.trace.instance() != sync.trace.instance()) {
        std::ostringstream os;
        os << name << " rep " << rep
           << ": per-round trace differs from the sync engine";
        return diverge("sync-vs-async-trace", os);
      }
      if (async.overhead_bits != kFrameOverheadBits * async.frames) {
        std::ostringstream os;
        os << name << " rep " << rep << ": overhead_bits "
           << async.overhead_bits << " != " << kFrameOverheadBits << " * "
           << async.frames << " frames";
        return diverge("frame-overhead-accounting", os);
      }
      if (mode == congest::TransportMode::Reliable) {
        // A fault-free reliable run charges exactly (seq + crc) per data
        // packet and per ack and never retransmits. Acks cannot exceed
        // frames (one per *delivered* packet — the run may end with the
        // final pulse's frames still in flight, so <=, not ==). With no
        // faults injected the plan-level counters must all stay at zero:
        // any duplicate packet, duplicate ack, or transport failure here
        // is accounting noise the engines invented on their own.
        const std::uint64_t expected =
            (async.frames + async.acks) * (kSeqWireBits + kCrcWireBits);
        if (async.acks > async.frames || async.faults.retransmissions != 0 ||
            async.faults.checksum_rejects != 0 ||
            async.faults.duplicate_packets != 0 ||
            async.faults.duplicate_acks != 0 ||
            async.faults.transport_failures != 0 ||
            async.transport_bits != expected) {
          std::ostringstream os;
          os << "rep " << rep << ": acks " << async.acks << " for "
             << async.frames << " frames, " << async.faults.retransmissions
             << " retransmissions, " << async.faults.duplicate_packets
             << " duplicate packets, " << async.faults.duplicate_acks
             << " duplicate acks, " << async.faults.transport_failures
             << " transport failures, transport_bits "
             << async.transport_bits << " (want " << expected << ")";
          return diverge("reliable-transport-accounting", os);
        }
      }
      if (rep == 0) {
        if (auto d = check_async_resume(host, cfg, factory, async, c.seed,
                                        name))
          return d;
      }
    }
    sync_reps.push_back(std::move(sync));
  }

  // -- one-sided error ------------------------------------------------------
  bool any_detected = false;
  for (const auto& rep : sync_reps) any_detected |= rep.detected;
  if (any_detected && !truth) {
    std::ostringstream os;
    os << to_string(c.program)
       << " rejected on a host with no copy of the pattern";
    return diverge("one-sided-error", os);
  }
  if (c.program == ProgramKind::Clique && any_detected != truth) {
    std::ostringstream os;
    os << "deterministic clique detector said "
       << (any_detected ? "present" : "absent") << ", oracle says "
       << (truth ? "present" : "absent");
    return diverge("clique-exactness", os);
  }
  if (expect) expect->detected = any_detected;

  // -- the supervisor: jobs-count determinism + aggregation -----------------
  congest::SupervisorConfig full;
  full.jobs = 1;
  full.early_exit = false;
  const congest::RunOutcome amplified =
      congest::Supervisor(host, sync_cfg, full)
          .run(factory, c.repetitions)
          .outcome;
  for (const unsigned jobs : {4u, 0u}) {
    congest::SupervisorConfig opts = full;
    opts.jobs = jobs;
    const congest::RunOutcome other =
        congest::Supervisor(host, sync_cfg, opts)
            .run(factory, c.repetitions)
            .outcome;
    if (other.detected != amplified.detected ||
        other.completed != amplified.completed ||
        other.verdicts != amplified.verdicts ||
        other.metrics.rounds != amplified.metrics.rounds ||
        other.metrics.messages != amplified.metrics.messages ||
        other.metrics.total_bits != amplified.metrics.total_bits ||
        other.metrics.max_message_bits != amplified.metrics.max_message_bits ||
        other.metrics.bits_sent_by_node != amplified.metrics.bits_sent_by_node ||
        !(other.faults == amplified.faults) ||
        other.trace.instance() != amplified.trace.instance()) {
      std::ostringstream os;
      os << "supervisor at --jobs " << jobs
         << " differs from --jobs 1 (detected " << other.detected << "/"
         << amplified.detected << ", bits " << other.metrics.total_bits << "/"
         << amplified.metrics.total_bits << ")";
      return diverge("jobs-determinism", os);
    }
  }

  if (auto d = check_trace_round_trip(amplified.trace)) return d;

  // -- worker count: bit-identical to the inline kernel at every W ----------
  {
    const std::uint64_t rep_seed = congest::repetition_seed(c.seed, 0);
    const congest::RunOutcome& reference = sync_reps[0];
    for (const std::uint32_t workers : {1u, 2u, 5u}) {
      congest::NetworkConfig cfg = sync_cfg;
      cfg.shard.workers = workers;
      const congest::Network sharded_net(host, cfg);
      const congest::RunOutcome sharded = sharded_net.run(factory, rep_seed);
      if (!(digest(sharded) == digest(reference)) ||
          sharded.trace.instance() != reference.trace.instance()) {
        std::ostringstream os;
        os << "kernel at W=" << workers << " differs from the inline run "
           << "(detected " << sharded.detected << "/" << reference.detected
           << ", bits " << sharded.metrics.total_bits << "/"
           << reference.metrics.total_bits << ")";
        return diverge("shard-equivalence", os);
      }
    }
  }

  // -- activity hint: honoring it is unobservable ---------------------------
  // The kernel skips the rounds a node sleeps through (NodeApi::sleep_until);
  // the decorated factory drops every hint, so the same programs run round
  // by round. Outcomes and traces must agree inline (W = 1) and across
  // threads, channels and barrier-folded wake rounds (W = 3), under the
  // case's faults when it has any.
  {
    const std::uint64_t rep_seed = congest::repetition_seed(c.seed, 0);
    const congest::ProgramFactory hintless = ignore_activity_hints(factory);
    congest::NetworkConfig cfg = sync_cfg;
    if (c.has_faults()) cfg.faults = fault_plan(c);
    for (const std::uint32_t workers : {1u, 3u}) {
      cfg.shard.workers = workers;
      const congest::Network hint_net(host, cfg);
      const congest::RunOutcome plain = hint_net.run(factory, rep_seed);
      const congest::RunOutcome ignored = hint_net.run(hintless, rep_seed);
      if (!(digest(plain) == digest(ignored)) ||
          plain.trace.instance() != ignored.trace.instance()) {
        std::ostringstream os;
        os << "honoring the activity hint at W=" << workers
           << " changes the run (detected " << plain.detected << "/"
           << ignored.detected << ", rounds " << plain.metrics.rounds << "/"
           << ignored.metrics.rounds << ", bits " << plain.metrics.total_bits
           << "/" << ignored.metrics.total_bits << ")";
        return diverge("hint-equivalence", os);
      }
    }
  }

  // -- workspace reuse: a run inherits nothing from the run before ----------
  // A Network hands each run the workspace (frame arenas, node records,
  // crash and wake arrays) its previous run left. After other programs ran
  // on it at another seed, repetition 0 must equal a first run: sync_reps[0],
  // or under the case's faults a fresh Network's first run.
  {
    const std::uint64_t rep_seed = congest::repetition_seed(c.seed, 0);
    const congest::ProgramFactory hintless = ignore_activity_hints(factory);
    congest::NetworkConfig cfg = sync_cfg;
    std::optional<congest::RunOutcome> faulty_first;
    if (c.has_faults()) {
      cfg.faults = fault_plan(c);
      faulty_first = congest::Network(host, cfg).run(factory, rep_seed);
    }
    const congest::RunOutcome& reference =
        faulty_first ? *faulty_first : sync_reps[0];
    for (const std::uint32_t workers : {1u, 3u}) {
      cfg.shard.workers = workers;
      const congest::Network reuse_net(host, cfg);
      reuse_net.run(hintless, congest::repetition_seed(c.seed, 1));
      const congest::RunOutcome reused = reuse_net.run(factory, rep_seed);
      if (!(digest(reused) == digest(reference)) ||
          reused.trace.instance() != reference.trace.instance()) {
        std::ostringstream os;
        os << "a run at W=" << workers << " on a reused workspace differs "
           << "from a first run (detected " << reused.detected << "/"
           << reference.detected << ", rounds " << reused.metrics.rounds
           << "/" << reference.metrics.rounds << ", bits "
           << reused.metrics.total_bits << "/"
           << reference.metrics.total_bits << ")";
        return diverge("workspace-reuse", os);
      }
    }
  }

  // Aggregation rules vs a hand-rolled per-repetition aggregate.
  bool agg_detected = false, agg_completed = true;
  std::uint64_t agg_rounds = 0, agg_bits = 0, agg_messages = 0;
  std::vector<congest::Verdict> agg_verdicts(host.num_vertices(),
                                             congest::Verdict::Accept);
  for (const auto& rep : sync_reps) {
    agg_detected |= rep.detected;
    agg_completed &= rep.completed;
    agg_rounds += rep.metrics.rounds;
    agg_bits += rep.metrics.total_bits;
    agg_messages += rep.metrics.messages;
    for (std::size_t v = 0; v < rep.verdicts.size(); ++v)
      if (rep.verdicts[v] == congest::Verdict::Reject)
        agg_verdicts[v] = congest::Verdict::Reject;
  }
  if (amplified.detected != agg_detected ||
      amplified.completed != agg_completed ||
      amplified.metrics.rounds != agg_rounds ||
      amplified.metrics.total_bits != agg_bits ||
      amplified.metrics.messages != agg_messages ||
      amplified.verdicts != agg_verdicts ||
      amplified.trace.instance() != merged_sync_trace.instance()) {
    std::ostringstream os;
    os << "supervisor aggregate (detected=" << amplified.detected
       << ", rounds=" << amplified.metrics.rounds
       << ", bits=" << amplified.metrics.total_bits
       << ") != per-repetition aggregate (detected=" << agg_detected
       << ", rounds=" << agg_rounds << ", bits=" << agg_bits << ")";
    return diverge("amplified-aggregation", os);
  }

  // Early exit may skip repetitions but can never change the answer.
  const congest::RunOutcome exited =
      congest::Supervisor(host, sync_cfg, {})
          .run(factory, c.repetitions)
          .outcome;
  if (exited.detected != amplified.detected ||
      exited.metrics.repetitions_executed +
              exited.metrics.repetitions_skipped !=
          c.repetitions) {
    std::ostringstream os;
    os << "early-exit amplification: detected " << exited.detected << " vs "
       << amplified.detected << ", executed "
       << exited.metrics.repetitions_executed << " + skipped "
       << exited.metrics.repetitions_skipped << " != " << c.repetitions;
    return diverge("early-exit", os);
  }

  // Supervisor in slices (pause via max_reps_per_call, resume from the
  // amplified checkpoint) must reassemble the uninterrupted aggregate at
  // every --jobs count.
  if (c.repetitions >= 2) {
    if (auto d = check_supervised_resume(host, sync_cfg, factory,
                                         c.repetitions, amplified, c.seed,
                                         /*max_retries=*/0))
      return d;
  }

  if (!c.has_faults()) return std::nullopt;

  // -- faulty runs: determinism + reliable-transport recovery ---------------
  const congest::FaultPlan plan = fault_plan(c);

  congest::NetworkConfig faulty_sync = sync_cfg;
  faulty_sync.faults = plan;
  const congest::Network faulty_net(host, faulty_sync);
  // s2 runs on the workspace s1 left.
  const congest::RunOutcome s1 = faulty_net.run(factory);
  const congest::RunOutcome s2 = faulty_net.run(factory);
  if (!(digest(s1) == digest(s2)) ||
      s1.trace.instance() != s2.trace.instance()) {
    std::ostringstream os;
    os << "sync engine under faults is not deterministic (detected "
       << s1.detected << "/" << s2.detected << ")";
    return diverge("faulty-sync-determinism", os);
  }
  // W = 3 must reproduce the faulty run too: fault fates are
  // per-link RNG streams, so the worker count cannot change a single fate.
  {
    congest::NetworkConfig faulty_shard_cfg = faulty_sync;
    faulty_shard_cfg.shard.workers = 3;
    const congest::Network faulty_sharded_net(host, faulty_shard_cfg);
    const congest::RunOutcome s3 = faulty_sharded_net.run(factory);
    if (!(digest(s3) == digest(s1)) ||
        s3.trace.instance() != s1.trace.instance()) {
      std::ostringstream os;
      os << "kernel at W=3 under faults differs from the inline run "
         << "(detected " << s3.detected << "/" << s1.detected << ", dropped "
         << s3.faults.frames_dropped << "/" << s1.faults.frames_dropped
         << ")";
      return diverge("shard-fault-equivalence", os);
    }
  }
  if (s1.faults.crashed_nodes.empty() &&
      s1.faults.detected_by_survivors != s1.detected) {
    std::ostringstream os;
    os << "sync: no node crashed but detected_by_survivors "
       << s1.faults.detected_by_survivors << " != detected " << s1.detected;
    return diverge("survivor-verdict", os);
  }

  for (const auto mode :
       {congest::TransportMode::Raw, congest::TransportMode::Reliable}) {
    congest::AsyncConfig cfg = async_cfg;
    cfg.faults = plan;
    cfg.transport = mode;
    const congest::AsyncRunOutcome a1 = run_async(host, cfg, factory);
    const congest::AsyncRunOutcome a2 = run_async(host, cfg, factory);
    const char* name = mode == congest::TransportMode::Raw
                           ? "async-raw"
                           : "async-reliable";
    if (!(digest(a1) == digest(a2))) {
      std::ostringstream os;
      os << name << " under faults is not deterministic (pulses " << a1.pulses
         << "/" << a2.pulses << ", payload " << a1.payload_bits << "/"
         << a2.payload_bits << ")";
      return diverge("faulty-async-determinism", os);
    }
    if (a1.overhead_bits != kFrameOverheadBits * a1.frames) {
      std::ostringstream os;
      os << name << " under faults: overhead_bits " << a1.overhead_bits
         << " != " << kFrameOverheadBits << " * " << a1.frames << " frames";
      return diverge("frame-overhead-accounting", os);
    }
    if (a1.faults.crashed_nodes.empty() &&
        a1.faults.detected_by_survivors != a1.detected) {
      std::ostringstream os;
      os << name << ": no node crashed but detected_by_survivors "
         << a1.faults.detected_by_survivors << " != detected " << a1.detected;
      return diverge("survivor-verdict", os);
    }
    // One-sided error survives faults under Reliable (the CRC shields the
    // programs from corrupted payloads) and under Raw as long as nothing
    // was corrupted (drops/crashes only silence nodes).
    const bool shielded =
        mode == congest::TransportMode::Reliable || c.corrupt == 0.0;
    if (shielded && a1.detected && !truth) {
      std::ostringstream os;
      os << name << " rejected on a host with no copy of the pattern";
      return diverge("one-sided-error-under-faults", os);
    }
    if (mode == congest::TransportMode::Reliable &&
        a1.faults.crashed_nodes.empty() && a1.faults.transport_failures == 0) {
      // No node fell silent and no packet exhausted its retries, so the
      // ARQ must have healed every fault: the run completes and reproduces
      // the fault-free sync execution exactly. A stall here means a
      // corrupted packet slipped past the CRC into the synchronizer.
      if (!a1.completed) {
        std::ostringstream os;
        os << "reliable run stalled (pulses " << a1.pulses << ", "
           << a1.faults.stalled_nodes.size()
           << " stalled nodes) without crashes or transport failures";
        return diverge("reliable-recovery", os);
      }
      const congest::RunOutcome clean = net.run(factory);
      if (a1.verdicts != clean.verdicts || a1.detected != clean.detected ||
          a1.payload_bits != clean.metrics.total_bits) {
        std::ostringstream os;
        os << "reliable transport healed all faults but verdicts "
           << verdicts_str(a1.verdicts) << " != fault-free sync "
           << verdicts_str(clean.verdicts) << " (payload " << a1.payload_bits
           << " vs " << clean.metrics.total_bits << ")";
        return diverge("reliable-recovery", os);
      }
    }
    if (auto d = check_async_resume(host, cfg, factory, a1,
                                    derive_seed(c.seed, 0xC5), name))
      return d;
  }

  // -- node recovery oracle -------------------------------------------------
  // With scheduled crashes, reliable transport, and the recovery policy on,
  // every crashed node rejoins and replays its logged history. When no
  // conversation exhausted its retry budget the healed run must complete and
  // land on the fault-free verdicts — the crash was fully masked.
  if (!c.crashes.empty()) {
    congest::AsyncConfig rec = async_cfg;
    rec.faults = plan;
    rec.transport = congest::TransportMode::Reliable;
    rec.recovery.enabled = true;
    const congest::AsyncRunOutcome h1 = run_async(host, rec, factory);
    const congest::AsyncRunOutcome h2 = run_async(host, rec, factory);
    if (!(digest(h1) == digest(h2))) {
      std::ostringstream os;
      os << "recovery-enabled run is not deterministic (pulses " << h1.pulses
         << "/" << h2.pulses << ", replayed " << h1.faults.replayed_pulses
         << "/" << h2.faults.replayed_pulses << ")";
      return diverge("recovery-determinism", os);
    }
    if (h1.faults.transport_failures == 0) {
      auto crashed = h1.faults.crashed_nodes;
      auto recovered = h1.faults.recovered_nodes;
      std::sort(crashed.begin(), crashed.end());
      std::sort(recovered.begin(), recovered.end());
      if (recovered != crashed) {
        std::ostringstream os;
        os << "recovery left " << crashed.size() - recovered.size() << " of "
           << crashed.size() << " crashed nodes dead with retry budget to "
           << "spare";
        return diverge("recovery-oracle", os);
      }
      if (!h1.completed) {
        std::ostringstream os;
        os << "all " << crashed.size() << " crashed nodes rejoined but the "
           << "run still stalled at pulse " << h1.pulses;
        return diverge("recovery-oracle", os);
      }
      const congest::RunOutcome clean = net.run(factory);
      if (h1.verdicts != clean.verdicts || h1.detected != clean.detected) {
        std::ostringstream os;
        os << "recovered run verdicts " << verdicts_str(h1.verdicts)
           << " != fault-free sync " << verdicts_str(clean.verdicts)
           << " (replayed " << h1.faults.replayed_pulses << " pulses)";
        return diverge("recovery-oracle", os);
      }
    }
    // Checkpoint/resume composes with recovery: a snapshot taken while a
    // rejoin is pending restores the parked timers and the rejoin event.
    if (auto d = check_async_resume(host, rec, factory, h1,
                                    derive_seed(c.seed, 0xC6),
                                    "async-recovery"))
      return d;
  }

  // Supervised slice-resume stays bit-identical under faults as well: the
  // retry ledger and fault report ride in the amplified snapshot.
  if (c.repetitions >= 2) {
    congest::SupervisorConfig ref_sup;
    ref_sup.jobs = 1;
    ref_sup.early_exit = false;
    ref_sup.max_retries = 1;
    const congest::Supervisor supervisor(host, faulty_sync, ref_sup);
    const congest::SupervisedResult ref =
        supervisor.run(factory, c.repetitions);
    if (auto d = check_supervised_resume(host, faulty_sync, factory,
                                         c.repetitions, ref.outcome,
                                         derive_seed(c.seed, 0xC7),
                                         ref_sup.max_retries))
      return d;
  }

  return std::nullopt;
}

}  // namespace csd::fuzz
