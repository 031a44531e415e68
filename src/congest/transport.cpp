#include "congest/transport.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/crc.hpp"

namespace csd::congest {

std::uint32_t packet_checksum(std::uint64_t seq, const Frame& frame) {
  Crc32 crc;
  crc.bits(seq, kSeqWireBits);
  crc.bits(frame.pulse, Frame::kPulseWireBits);
  crc.bit(frame.sender_halted);
  crc.bit(frame.payload.has_value());
  if (frame.payload.has_value()) crc.raw(*frame.payload);
  return crc.value();
}

namespace {

/// The entry of `seq` in an endpoint's list, or end(). The lists hold a few
/// packets at most (DESIGN.md §2), so a scan is as quick as a search.
template <class Entries>
auto find_seq(Entries& entries, std::uint64_t seq) {
  return std::find_if(entries.begin(), entries.end(),
                      [seq](const auto& entry) { return entry.seq == seq; });
}

}  // namespace

DataPacket LinkSender::packet(Frame frame) {
  DataPacket packet;
  packet.seq = next_seq++;
  CSD_CHECK_MSG((packet.seq >> kSeqWireBits) == 0,
                "sequence number " << packet.seq << " overflows the "
                << kSeqWireBits << "-bit on-wire field");
  packet.crc = packet_checksum(packet.seq, frame);
  packet.frame = std::move(frame);
  pending.push_back({packet, 1});
  return packet;
}

bool LinkSender::on_ack(std::uint64_t seq) {
  const auto it = find_seq(pending, seq);
  if (it == pending.end()) return false;
  pending.erase(it);
  return true;
}

LinkSender::TimeoutAction LinkSender::on_timeout(std::uint64_t seq) {
  const auto it = find_seq(pending, seq);
  if (it == pending.end()) return TimeoutAction::Settled;
  if (it->attempts > kMaxRetries) {
    pending.erase(it);
    return TimeoutAction::GiveUp;
  }
  ++it->attempts;
  return TimeoutAction::Retransmit;
}

DataPacket LinkSender::retransmit_packet(std::uint64_t seq) const {
  const auto it = find_seq(pending, seq);
  CSD_CHECK_MSG(it != pending.end(), "retransmit of settled packet " << seq);
  return *it;
}

std::uint64_t LinkSender::timeout_for(std::uint64_t seq,
                                      std::uint64_t base_rto) const {
  const auto it = find_seq(pending, seq);
  if (it == pending.end()) return base_rto;
  // attempts = k means the k-th transmission was just sent: back off 2^(k-1),
  // capped to keep virtual times sane on long retry chains.
  const std::uint32_t shift = it->attempts > 16 ? 16u : it->attempts - 1;
  return base_rto << shift;
}

void LinkReceiver::on_data(DataPacket packet, Accept& out) {
  out.send_ack = false;
  out.ack_seq = 0;
  out.duplicate = false;
  out.checksum_reject = false;
  out.deliver.clear();
  if (packet_checksum(packet.seq, packet.frame) != packet.crc) {
    out.checksum_reject = true;
    return;
  }
  out.send_ack = true;
  out.ack_seq = packet.seq;
  const auto at = std::find_if(
      reorder.begin(), reorder.end(),
      [&](const Buffered& entry) { return entry.seq >= packet.seq; });
  if (packet.seq < expected || (at != reorder.end() && at->seq == packet.seq)) {
    out.duplicate = true;
    return;
  }
  if (packet.seq != expected) {
    reorder.insert(at, {packet.seq, std::move(packet.frame)});
    return;
  }
  // In sequence: release it, then every buffered frame it unblocks (the
  // buffer holds only seqs above `expected`, smallest first).
  out.deliver.push_back(std::move(packet.frame));
  ++expected;
  auto released = reorder.begin();
  for (; released != reorder.end() && released->seq == expected; ++released) {
    out.deliver.push_back(std::move(released->frame));
    ++expected;
  }
  reorder.erase(reorder.begin(), released);
}

}  // namespace csd::congest
