// Reliable ARQ transport for the asynchronous engine.
//
// Sits *under* the frame synchronizer (async.*): each directed link gets a
// sender and a receiver endpoint. The sender assigns consecutive sequence
// numbers to outgoing synchronizer frames, appends a bit-level CRC-32 over
// the packet contents, and retransmits with exponential backoff until the
// packet is acknowledged or a bounded retry budget is exhausted. The
// receiver discards packets whose CRC does not verify (a corrupted packet
// is indistinguishable from a lost one), acknowledges every intact packet
// (including duplicates, so lost acks heal), and releases frames to the
// synchronizer strictly in sequence order through a reorder buffer.
//
// On a link with drop probability p < 1 this restores exact FIFO semantics
// with probability 1 - p^retries per packet, which is why the paper's
// algorithms run bit-identically to the synchronous engine under heavy
// loss (see test_async.cpp) — the cost moves into separately accounted
// transport overhead bits, never into the CONGEST payload accounting.
//
// The classes here are pure protocol state machines: the engine owns all
// scheduling (delays, timers) and all fault injection, which keeps the
// protocol unit-testable without an event loop.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "support/bitvec.hpp"

namespace csd::congest {

/// Wire discipline of the async engine's links.
enum class TransportMode : std::uint8_t {
  /// Frames go on the wire as-is. Faults hit the algorithm directly: a
  /// dropped frame stalls the destination port forever, a corrupted
  /// payload reaches the program.
  Raw,
  /// ARQ + CRC under the synchronizer: exact semantics restored on faulty
  /// links, overhead accounted in AsyncRunOutcome::transport_bits.
  Reliable,
};

// The reliable transport's wire parameters, the same on every link and in
// every run. (The retransmission timeout is the engine's: one round trip of
// its max_delay plus slack.)

/// Give up on a packet after this many retransmissions. With per-attempt
/// loss q the residual failure probability is q^(kMaxRetries+1), negligible
/// even at 30% drop + lost acks.
inline constexpr std::uint32_t kMaxRetries = 32;
/// On-wire width of the sequence-number field. This is the width the CRC
/// hashes and the accounting charges; LinkSender CHECKs that its 64-bit
/// counter never outgrows it (2^32 packets per directed link is far above
/// any pulse budget this repo runs).
inline constexpr unsigned kSeqWireBits = 32;
/// On-wire width of the checksum field (accounting).
inline constexpr unsigned kCrcWireBits = 32;

/// One synchronizer frame on a directed link (also the raw-mode wire unit).
/// Wire layout: [pulse][halted][has_payload][payload].
struct Frame {
  /// On-wire width of the pulse field. Every frame carries its pulse — the
  /// synchronizer cannot order frames without it — so every frame is charged
  /// for it in overhead_bits().
  static constexpr unsigned kPulseWireBits = 64;
  /// Per-frame framing overhead: pulse + halted + has_payload.
  static constexpr std::uint64_t kOverheadBits = kPulseWireBits + 2;

  std::uint64_t pulse = 0;
  bool sender_halted = false;
  std::optional<BitVec> payload;

  std::uint64_t overhead_bits() const { return kOverheadBits; }
  std::uint64_t payload_bits() const {
    return payload.has_value() ? payload->size() : 0;
  }
};

/// A data packet as the reliable transport puts it on the wire:
/// [pulse][halted][has_payload][seq][payload][crc].
struct DataPacket {
  std::uint64_t seq = 0;
  Frame frame;
  std::uint32_t crc = 0;
};

/// CRC-32 over everything the packet puts on the wire: the sequence number
/// (kSeqWireBits wide — exactly the on-wire field), the full frame header
/// (pulse + flags), and the payload bits. Covering the header means a header
/// bit-flip (FaultPlan::corrupt_headers) is caught and the packet discarded,
/// instead of a corrupted pulse reaching the synchronizer and desyncing it.
std::uint32_t packet_checksum(std::uint64_t seq, const Frame& frame);

/// Sender endpoint of one directed link. Its public members are its whole
/// state, the record a csd-ckpt-v1 snapshot saves.
class LinkSender {
 public:
  /// A packet sent and not yet acknowledged or abandoned.
  struct Unacked : DataPacket {
    std::uint32_t attempts = 1;  // transmissions so far
  };

  /// Wrap `frame` into the next-in-sequence packet; a copy is retained for
  /// retransmission until acknowledged.
  DataPacket packet(Frame frame);

  /// Ack received. True iff it acknowledged an outstanding packet (false =
  /// duplicate ack for an already-settled one).
  bool on_ack(std::uint64_t seq);

  /// Retransmission timer fired for `seq`.
  enum class TimeoutAction {
    Settled,     ///< already acked (or given up); ignore
    Retransmit,  ///< resend retransmit_packet(seq), rearm timer
    GiveUp,      ///< retry budget exhausted; packet abandoned
  };
  TimeoutAction on_timeout(std::uint64_t seq);

  /// The packet to put on the wire for a retransmission of `seq`.
  DataPacket retransmit_packet(std::uint64_t seq) const;

  /// Timeout to arm for the transmission of `seq` that was just sent
  /// (exponential backoff over the attempts made so far).
  std::uint64_t timeout_for(std::uint64_t seq, std::uint64_t base_rto) const;

  /// Packets not yet acknowledged or abandoned.
  std::size_t in_flight() const noexcept { return pending.size(); }

  std::uint64_t next_seq = 0;  // the seq packet() assigns next
  /// Strictly ascending by seq, all below next_seq: packet() appends. A
  /// link rarely has more than three in flight (DESIGN.md §2).
  std::vector<Unacked> pending;
};

/// Receiver endpoint of one directed link; its public members are its whole
/// state, as LinkSender's are.
class LinkReceiver {
 public:
  /// A frame received ahead of the in-order cursor.
  struct Buffered {
    std::uint64_t seq = 0;
    Frame frame;
  };

  /// Outcome of a data packet arriving on the wire.
  struct Accept {
    /// CRC verified — acknowledge `ack_seq` (set for duplicates too: the
    /// original ack may have been lost).
    bool send_ack = false;
    std::uint64_t ack_seq = 0;
    /// Packet already delivered once (retransmit raced the ack).
    bool duplicate = false;
    /// CRC mismatch — packet discarded, no ack.
    bool checksum_reject = false;
    /// Frames released to the synchronizer, in sequence order.
    std::vector<Frame> deliver;
  };
  /// Take `packet` off the wire into `out`, which is reset first; a caller
  /// that keeps one Accept keeps `deliver`'s capacity across calls. An
  /// in-sequence packet with nothing buffered goes straight to `deliver`.
  void on_data(DataPacket packet, Accept& out);

  std::uint64_t next_expected() const noexcept { return expected; }

  std::uint64_t expected = 0;  // the seq released next (key next_expected)
  /// Strictly ascending by seq, all above `expected`: a frame at `expected`
  /// would never be released, as its packet would count as a duplicate.
  std::vector<Buffered> reorder;
};

}  // namespace csd::congest
