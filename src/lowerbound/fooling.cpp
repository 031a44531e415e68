#include "lowerbound/fooling.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "congest/run_batch.hpp"
#include "graph/builders.hpp"
#include "info/flat_counts.hpp"
#include "support/bitvec.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace csd::lb {

namespace {

/// One message of a run, in the order its observer saw it (round order).
struct Message {
  Vertex src, dst;  // topology indices
  BitVec payload;
};
using Transcript = std::vector<Message>;

/// The observer that appends each message of a run to `transcript`.
congest::MessageObserver record_into(Transcript& transcript) {
  return [&transcript](std::uint64_t, Vertex src, Vertex dst,
                       const BitVec& payload) {
    transcript.push_back({src, dst, payload});
  };
}

/// Canonical §4 transcript: for each node in namespace order, its messages
/// to the "+1" neighbor in round order, then to the "+2" neighbor. Encoded
/// as a '0'/'1' string with part boundaries marked (markers are bookkeeping
/// only — the algorithm's own messages must be prefix-free, which the wire
/// codec guarantees, so the raw bit stream is uniquely parsable too).
///
/// `plus_one[v]` is the topology index of v's "+1" neighbor.
std::string canonical_transcript(const Transcript& transcript,
                                 const std::array<std::uint32_t, 6>& plus_one,
                                 std::uint32_t num_nodes) {
  std::string out;
  for (std::uint32_t v = 0; v < num_nodes; ++v) {
    for (const bool towards_plus_one : {true, false}) {
      for (const auto& entry : transcript) {
        if (entry.src != v) continue;
        const bool is_plus_one = entry.dst == plus_one[v];
        if (is_plus_one != towards_plus_one) continue;
        for (std::size_t b = 0; b < entry.payload.size(); ++b)
          out.push_back(entry.payload.get(b) ? '1' : '0');
      }
      out.push_back('|');
    }
    out.push_back('#');
  }
  return out;
}

/// FNV-1a over the canonical transcript string. Platform-independent (the
/// std::hash<string> alternative is implementation-defined), so sampled
/// collision counts are bit-identical across toolchains.
std::uint64_t transcript_hash(const std::string& transcript) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : transcript) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Per-node slice of a canonical transcript (between '#' markers).
std::vector<std::string> split_by_node(const std::string& transcript) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : transcript) {
    if (c == '#') {
      parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  return parts;
}

}  // namespace

FoolingReport run_fooling_adversary(const FoolingConfig& config) {
  CSD_CHECK_MSG(config.namespace_size >= 6 && config.namespace_size % 3 == 0,
                "namespace must be divisible by 3 and >= 6");
  CSD_CHECK_MSG(config.algorithm != nullptr, "algorithm factory required");
  const std::uint64_t n = config.namespace_size / 3;

  FoolingReport report;
  report.part_size = n;
  report.executions = n * n * n;
  report.all_triangles_rejected = true;

  // Triangle topology 0-1-2; node i plays namespace part i. The "+1"
  // neighbor of node i is node (i+1) mod 3.
  const Graph triangle = build::cycle(3);
  const std::array<std::uint32_t, 6> tri_plus_one = {1, 2, 0, 0, 0, 0};

  congest::NetworkConfig run_cfg;
  run_cfg.bandwidth = config.bandwidth;
  run_cfg.max_rounds = config.max_rounds;
  run_cfg.namespace_size = config.namespace_size;

  // Bucket all n^3 executions by canonical transcript.
  std::map<std::string, std::vector<std::array<std::uint64_t, 3>>> buckets;
  for (std::uint64_t a = 0; a < n; ++a) {
    for (std::uint64_t b = 0; b < n; ++b) {
      for (std::uint64_t c = 0; c < n; ++c) {
        const congest::NodeId u0 = a;
        const congest::NodeId u1 = n + b;
        const congest::NodeId u2 = 2 * n + c;
        congest::Network net(triangle, run_cfg, {u0, u1, u2});
        Transcript transcript;
        const auto outcome =
            net.run(config.algorithm, run_cfg.seed, record_into(transcript));
        CSD_CHECK_MSG(outcome.completed,
                      "algorithm did not halt on a triangle");
        report.all_triangles_rejected &= outcome.detected;
        for (const auto& node_bits : outcome.metrics.bits_sent_by_node)
          report.max_total_bits_per_node =
              std::max(report.max_total_bits_per_node, node_bits);
        buckets[canonical_transcript(transcript, tri_plus_one, 3)]
            .push_back({a, b, c});
      }
    }
  }
  report.distinct_transcripts = buckets.size();

  // Largest class S_t.
  const std::vector<std::array<std::uint64_t, 3>>* largest = nullptr;
  std::string transcript_t;
  for (const auto& [t, triples] : buckets) {
    if (largest == nullptr || triples.size() > largest->size()) {
      largest = &triples;
      transcript_t = t;
    }
  }
  CSD_CHECK(largest != nullptr);
  report.largest_class = largest->size();

  // Box search: membership bitsets over N_2 for each (a, b) pair.
  std::vector<BitVec> slab(n * n, BitVec(n));
  for (const auto& [a, b, c] : *largest) slab[a * n + b].set(c);

  std::optional<std::array<std::uint64_t, 6>> box;  // a a' b b' c c'
  for (std::uint64_t a = 0; a < n && !box; ++a) {
    for (std::uint64_t a2 = a + 1; a2 < n && !box; ++a2) {
      for (std::uint64_t b = 0; b < n && !box; ++b) {
        for (std::uint64_t b2 = b + 1; b2 < n && !box; ++b2) {
          BitVec common = slab[a * n + b];
          common &= slab[a * n + b2];
          common &= slab[a2 * n + b];
          common &= slab[a2 * n + b2];
          const std::size_t c1 = common.find_next(0);
          if (c1 >= common.size()) continue;
          const std::size_t c2 = common.find_next(c1 + 1);
          if (c2 >= common.size()) continue;
          box = {a, a2, b, b2, c1, c2};
        }
      }
    }
  }
  if (!box) return report;  // adversary failed: algorithm is safe at this N
  report.box_found = true;

  // Hexagon Q = u0 u1 u2 u0' u1' u2' (cyclic). Claim 4.4 requires each
  // node's two neighbors to come from the other two parts — true in this
  // order. Topology indices follow the cycle; ids carry the box values.
  const congest::NodeId u0 = (*box)[0], u0p = (*box)[1];
  const congest::NodeId u1 = n + (*box)[2], u1p = n + (*box)[3];
  const congest::NodeId u2 = 2 * n + (*box)[4], u2p = 2 * n + (*box)[5];
  report.hexagon = {u0, u1, u2, u0p, u1p, u2p};

  const Graph hexagon = build::cycle(6);
  // Topology index i hosts hexagon[i]; part of index i is i mod 3; the "+1"
  // neighbor (next part cyclically) of index i is index (i+1) mod 6.
  const std::array<std::uint32_t, 6> hex_plus_one = {1, 2, 3, 4, 5, 0};

  congest::Network net(hexagon, run_cfg,
                       {u0, u1, u2, u0p, u1p, u2p});
  Transcript transcript;
  const auto outcome =
      net.run(config.algorithm, run_cfg.seed, record_into(transcript));
  CSD_CHECK_MSG(outcome.completed, "algorithm did not halt on the hexagon");
  report.hexagon_fooled = outcome.detected;

  // Claim 4.4: per-node hexagon transcripts equal the triangle transcript
  // slices t_0 t_1 t_2 (each appearing twice).
  const auto tri_parts = split_by_node(transcript_t);
  const auto hex_parts =
      split_by_node(canonical_transcript(transcript, hex_plus_one, 6));
  CSD_CHECK(tri_parts.size() == 3 && hex_parts.size() == 6);
  report.transcripts_match = true;
  for (std::uint32_t i = 0; i < 6; ++i)
    report.transcripts_match &= hex_parts[i] == tri_parts[i % 3];
  return report;
}

TranscriptSampleReport sample_transcript_collisions(const FoolingConfig& config,
                                                    std::uint64_t samples,
                                                    std::uint64_t seed,
                                                    unsigned jobs) {
  CSD_CHECK_MSG(config.namespace_size >= 6 && config.namespace_size % 3 == 0,
                "namespace must be divisible by 3 and >= 6");
  CSD_CHECK_MSG(config.algorithm != nullptr, "algorithm factory required");
  CSD_CHECK_MSG(samples > 0, "need at least one sample");
  const std::uint64_t n = config.namespace_size / 3;

  TranscriptSampleReport report;
  report.part_size = n;
  report.samples = samples;
  report.all_triangles_rejected = true;

  // Triples are drawn sequentially up front so the sample set is a pure
  // function of the seed, independent of the fan-out below.
  Rng rng(derive_seed(seed, 0x7a41));
  std::vector<std::array<std::uint64_t, 3>> triples(samples);
  for (auto& t : triples) t = {rng.below(n), rng.below(n), rng.below(n)};

  const Graph triangle = build::cycle(3);
  const std::array<std::uint32_t, 6> tri_plus_one = {1, 2, 0, 0, 0, 0};
  congest::NetworkConfig run_cfg;
  run_cfg.bandwidth = config.bandwidth;
  run_cfg.max_rounds = config.max_rounds;
  run_cfg.namespace_size = config.namespace_size;

  // Per-index result slots; the sequential fold below keeps the report
  // independent of execution order.
  std::vector<std::uint64_t> hashes(samples);
  std::vector<std::uint64_t> max_bits(samples, 0);
  std::vector<std::uint8_t> rejected(samples, 0);
  congest::RunBatch batch(jobs);
  batch.for_each_index(samples, [&](std::size_t i) {
    const auto& [a, b, c] = triples[i];
    congest::Network net(triangle, run_cfg, {a, n + b, 2 * n + c});
    Transcript transcript;
    const auto outcome =
        net.run(config.algorithm, run_cfg.seed, record_into(transcript));
    CSD_CHECK_MSG(outcome.completed, "algorithm did not halt on a triangle");
    rejected[i] = outcome.detected ? 1 : 0;
    for (const auto& node_bits : outcome.metrics.bits_sent_by_node)
      max_bits[i] = std::max(max_bits[i], node_bits);
    hashes[i] =
        transcript_hash(canonical_transcript(transcript, tri_plus_one, 3));
  });

  info::FlatCounts counts;
  counts.reserve(samples);
  for (std::uint64_t i = 0; i < samples; ++i) {
    report.all_triangles_rejected &= rejected[i] != 0;
    report.max_total_bits_per_node =
        std::max(report.max_total_bits_per_node, max_bits[i]);
    counts.add(hashes[i], 1);
  }
  report.distinct_transcripts = counts.distinct();
  for (const auto& item : counts.sorted_items()) {
    report.largest_class = std::max(report.largest_class, item.count);
    report.collision_pairs += item.count * (item.count - 1) / 2;
  }
  return report;
}

}  // namespace csd::lb
