#include "detect/clique_detect.hpp"

#include <algorithm>
#include <vector>

#include "graph/oracle.hpp"
#include "support/check.hpp"
#include "support/mathutil.hpp"
#include "support/wire.hpp"

namespace csd::detect {

namespace {

class CliqueDetectProgram final : public congest::NodeProgram {
 public:
  explicit CliqueDetectProgram(std::uint32_t s) : s_(s) {}

  void on_round(congest::NodeApi& api) override {
    const unsigned id_bits = wire::bits_for(api.namespace_size());

    api.phase(api.round() == 0 ? "announce" : "stream");
    if (api.round() == 0) {
      CSD_CHECK_MSG(api.bandwidth() == 0 || api.bandwidth() >= id_bits,
                    "bandwidth too small for neighborhood exchange");
      // Announce degree; also precompute the outgoing id stream.
      expected_bits_.assign(api.degree(), 0);
      received_.assign(api.degree(), BitVec{});
      std::vector<congest::NodeId> sorted_neighbors;
      for (std::uint32_t p = 0; p < api.degree(); ++p)
        sorted_neighbors.push_back(api.neighbor_id(p));
      std::sort(sorted_neighbors.begin(), sorted_neighbors.end());
      for (const auto nid : sorted_neighbors)
        outgoing_.append_bits(nid, id_bits);
      wire::Writer w;
      w.u(api.degree(), id_bits);
      api.broadcast(std::move(w).take());
      return;
    }

    if (api.round() == 1) {
      for (std::uint32_t p = 0; p < api.degree(); ++p) {
        const auto* msg = api.inbox(p);
        CSD_CHECK_MSG(msg != nullptr, "missing degree announcement");
        wire::Reader r(*msg);
        expected_bits_[p] = r.u(id_bits) * id_bits;
      }
    } else if (api.round() >= 2) {
      for (std::uint32_t p = 0; p < api.degree(); ++p) {
        const auto* msg = api.inbox(p);
        if (msg != nullptr) received_[p].append(*msg);
      }
    }

    // Stream the next chunk of the adjacency list.
    if (api.round() >= 1 && cursor_ < outgoing_.size()) {
      const std::uint64_t chunk =
          api.bandwidth() == 0
              ? outgoing_.size() - cursor_
              : std::min<std::uint64_t>(api.bandwidth(),
                                        outgoing_.size() - cursor_);
      BitVec payload;
      for (std::uint64_t i = 0; i < chunk; ++i)
        payload.push_back(outgoing_.get(cursor_ + i));
      cursor_ += chunk;
      api.broadcast(payload);
    }

    // Done when everything is sent and every neighbor's list is complete.
    if (api.round() >= 2 && cursor_ >= outgoing_.size() && all_received()) {
      decide(api, id_bits);
      api.halt();
    }
  }

 private:
  bool all_received() const {
    for (std::size_t p = 0; p < received_.size(); ++p)
      if (received_[p].size() < expected_bits_[p]) return false;
    return true;
  }

  void decide(congest::NodeApi& api, unsigned id_bits) {
    if (s_ <= 1) {
      api.reject();  // K_1 is always present
      return;
    }
    if (api.degree() + 1 < s_) return;
    // Induced neighborhood as adjacency bit-rows over the ports: edge
    // {p, q} (p < q) iff port q's id appears in port p's streamed list —
    // the same decision rule as the dense-graph construction this replaces,
    // but the clique search now intersects candidate sets 64 ports at a
    // time (oracle::has_clique_rows).
    const std::uint32_t d = api.degree();
    std::vector<std::pair<congest::NodeId, std::uint32_t>> by_id(d);
    for (std::uint32_t p = 0; p < d; ++p) by_id[p] = {api.neighbor_id(p), p};
    std::sort(by_id.begin(), by_id.end());
    std::vector<BitVec> rows(d, BitVec(d));
    for (std::uint32_t p = 0; p < d; ++p) {
      CSD_CHECK(received_[p].size() == expected_bits_[p]);
      for (std::uint64_t off = 0; off + id_bits <= received_[p].size();
           off += id_bits) {
        const congest::NodeId nid = received_[p].read_bits(off, id_bits);
        const auto it = std::lower_bound(
            by_id.begin(), by_id.end(),
            std::make_pair(nid, std::uint32_t{0}));
        if (it == by_id.end() || it->first != nid) continue;
        const std::uint32_t q = it->second;
        if (q <= p) continue;  // edge {p, q} is decided by the lower port
        rows[p].set(q);
        rows[q].set(p);
      }
    }
    if (oracle::has_clique_rows(rows, s_ - 1)) api.reject();
  }

  std::uint32_t s_;
  BitVec outgoing_;
  std::uint64_t cursor_ = 0;
  std::vector<std::uint64_t> expected_bits_;
  std::vector<BitVec> received_;
};

}  // namespace

congest::ProgramFactory clique_detect_program(std::uint32_t s) {
  CSD_CHECK_MSG(s >= 2, "clique detection needs s >= 2");
  return [s](std::uint32_t) { return std::make_unique<CliqueDetectProgram>(s); };
}

std::uint64_t clique_detect_min_bandwidth(std::uint64_t n) {
  return wire::bits_for(n);
}

std::uint64_t clique_detect_round_budget(std::uint64_t n,
                                         std::uint64_t max_degree,
                                         std::uint64_t bandwidth) {
  const std::uint64_t stream_bits = max_degree * wire::bits_for(n);
  const std::uint64_t stream_rounds =
      bandwidth == 0 ? 1 : ceil_div(stream_bits, bandwidth);
  return stream_rounds + 4;
}

congest::RunOutcome detect_clique(const Graph& g, std::uint32_t s,
                                  std::uint64_t bandwidth, std::uint64_t seed) {
  congest::NetworkConfig cfg;
  cfg.bandwidth = bandwidth;
  cfg.seed = seed;
  cfg.max_rounds =
      clique_detect_round_budget(g.num_vertices(), g.max_degree(), bandwidth) +
      2;
  return congest::run_congest(g, cfg, clique_detect_program(s));
}

}  // namespace csd::detect
