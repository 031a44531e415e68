#include "congest/snapshot.hpp"

#include <bit>
#include <fstream>
#include <sstream>

#include "obs/codec.hpp"
#include "support/check.hpp"

namespace csd::congest {

namespace {

// One field list per csd-ckpt-v1 record (obs/codec.hpp): the same list
// writes a record and reads it back strictly.

constexpr auto identity_fields = [](auto& io, auto& r) {
  io("topology", r.topology);
  io("config", r.config);
  io("seed", r.seed);
};

constexpr auto frame_fields = [](auto& io, auto& r) {
  io("p", r.pulse);
  io("h", r.sender_halted);
  io("pl", r.payload);
};

constexpr auto pending_fields = [](auto& io, auto& r) {
  io("seq", r.seq);
  io("frame", r.frame, frame_fields);
  io("crc", r.crc);
  io("attempts", r.attempts);
};

constexpr auto sender_fields = [](auto& io, auto& r) {
  io("next_seq", r.next_seq);
  io("pending", r.pending, pending_fields);
};

constexpr auto reorder_fields = [](auto& io, auto& r) {
  io("seq", r.seq);
  io("frame", r.frame, frame_fields);
};

constexpr auto receiver_fields = [](auto& io, auto& r) {
  io("next_expected", r.expected);
  io("reorder", r.reorder, reorder_fields);
};

constexpr auto event_fields = [](auto& io, auto& r) {
  io("t", r.time);
  io("q", r.seq);
  io("k", r.kind, EventRecord::Kind::Recover);
  io("s", r.src);
  io("sp", r.src_port);
  io("d", r.dst);
  io("dp", r.dst_port);
  io("ls", r.link_seq);
  if (r.kind == EventRecord::Kind::Data) {
    io("ps", r.packet.seq);
    io("pc", r.packet.crc);
    io("f", r.packet.frame, frame_fields);
  }
};

constexpr auto async_node_fields = [](auto& io, auto& r) {
  io("pulse", r.pulse);
  io("local_time", r.local_time);
  io("arrived", r.arrived, frame_fields);
  io("port_dead", r.port_dead);
  io("running", r.running);
  io("crashed", r.crashed);
  io("crash_done", r.crash_done);
  io("recoveries_used", r.recoveries_used);
  io("inbox", r.inbox);
  io("senders", r.senders, sender_fields);
  io("receivers", r.receivers, receiver_fields);
  io("link_watermark", r.link_watermark);
};

constexpr auto async_fields = [](auto& io, auto& r) {
  io("identity", r.identity, identity_fields);
  io("nodes", r.nodes, async_node_fields);
  io("halted", r.halted);
  io("verdicts", r.verdicts, Verdict::Reject);
  io("events", r.events, event_fields);
  io("next_event_seq", r.next_event_seq);
  io("delay_rng", r.delay_rng);
  io("fault_streams", r.fault_streams);
  io("halted_count", r.halted_count);
  io("stopped_count", r.stopped_count);
  io("pending_recoveries", r.pending_recoveries);
  io("pulses", r.pulses);
  io("virtual_time", r.virtual_time);
  io("payload_bits", r.payload_bits);
  io("overhead_bits", r.overhead_bits);
  io("frames", r.frames);
  io("transport_bits", r.transport_bits);
  io("acks", r.acks);
  io("terminal", r.terminal);
  io("faults", r.faults, report_fields);
};

constexpr auto amplified_fields = [](auto& io, auto& r) {
  io("identity", r.identity, identity_fields);
  io("next_repetition", r.next_repetition);
  io("repetitions", r.repetitions);
  io("completed", r.completed);
  io("detected", r.detected);
  io("verdict_reject", r.verdict_reject);
  io("rounds", r.rounds);
  io("messages", r.messages);
  io("total_bits", r.total_bits);
  io("max_message_bits", r.max_message_bits);
  io("bits_sent_by_node", r.bits_sent_by_node);
  io("repetitions_executed", r.repetitions_executed);
  io("repetitions_skipped", r.repetitions_skipped);
  io("retries_used", r.retries_used);
  io("faults", r.faults, report_fields);
};

constexpr std::array<const char*, 2> kKindNames = {"async", "amplified"};

constexpr auto snapshot_fields = [](auto& io, auto& r) {
  io.tag("schema", kSnapshotSchema);
  io("kind", r.kind, kKindNames);
  switch (r.kind) {
    case Snapshot::Kind::Async:
      io("state", r.async_state, async_fields);
      break;
    case Snapshot::Kind::Amplified:
      io("state", r.amplified, amplified_fields);
      break;
  }
};

}  // namespace

std::uint64_t topology_digest(const GraphCsr& csr,
                              const std::vector<NodeId>& ids) {
  std::uint64_t h = kDigestSeed;
  h = digest_mix(h, csr.num_vertices());
  for (const Vertex w : csr.neighbors) h = digest_mix(h, w);
  for (const NodeId id : ids) h = digest_mix(h, id);
  return h;
}

std::uint64_t fault_plan_digest(const FaultPlan& plan) {
  std::uint64_t h = kDigestSeed;
  h = digest_mix(h, std::bit_cast<std::uint64_t>(plan.drop));
  h = digest_mix(h, std::bit_cast<std::uint64_t>(plan.corrupt));
  h = digest_mix(h, plan.corrupt_headers ? 1 : 0);
  for (const CrashEvent& crash : plan.crashes) {
    h = digest_mix(h, crash.node);
    h = digest_mix(h, crash.round);
  }
  return h;
}

const char* to_string(Snapshot::Kind kind) noexcept {
  return kKindNames[static_cast<std::size_t>(kind)];
}

obs::Json to_json(const Snapshot& snapshot) {
  return obs::encode(snapshot, snapshot_fields);
}

Snapshot snapshot_from_json(const obs::Json& doc) {
  return obs::decode<Snapshot>(doc, snapshot_fields);
}

void save_snapshot(const std::string& path, const Snapshot& snapshot) {
  std::ofstream out(path);
  CSD_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  to_json(snapshot).write(out, 1);
  out << '\n';
  CSD_CHECK_MSG(out.good(), "write to '" << path << "' failed");
}

Snapshot load_snapshot(const std::string& path) {
  std::ifstream in(path);
  CSD_CHECK_MSG(in.good(), "cannot open snapshot '" << path << "'");
  std::ostringstream text;
  text << in.rdbuf();
  return snapshot_from_json(obs::Json::parse(text.str()));
}

}  // namespace csd::congest
