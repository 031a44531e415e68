#include "congest/network.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "congest/run_batch.hpp"
#include "congest/shard.hpp"
#include "support/check.hpp"

namespace csd::congest {

// Port mapping: port p of node v leads to neighbors(v)[p]; for delivery we
// need the reverse port on the receiving side. Per-vertex port maps make
// the build O(sum deg) expected time (a std::find scan per neighbor would
// be O(sum deg^2)). The tables are flat arrays over the CSR's dense
// directed-edge index, so the delivery loop walks them linearly with no
// pointer chasing.
detail::EdgeTables detail::build_edge_tables(const GraphCsr& csr,
                                             const std::vector<NodeId>& ids) {
  const auto n = static_cast<Vertex>(ids.size());
  std::vector<std::unordered_map<Vertex, std::uint32_t>> port_of(n);
  for (Vertex v = 0; v < n; ++v) {
    const auto nbrs = csr.row(v);
    port_of[v].reserve(nbrs.size());
    for (std::uint32_t p = 0; p < nbrs.size(); ++p) port_of[v][nbrs[p]] = p;
  }
  const auto m2 = static_cast<std::size_t>(csr.num_directed_edges());
  EdgeTables tables;
  tables.rev_port.resize(m2);
  tables.rev_edge.resize(m2);
  tables.neighbor_ids.resize(m2);
  for (Vertex v = 0; v < n; ++v) {
    const auto nbrs = csr.row(v);
    const std::uint64_t base = csr.offsets[v];
    for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
      const Vertex w = nbrs[p];
      const auto it = port_of[w].find(v);
      CSD_CHECK(it != port_of[w].end());
      tables.rev_port[base + p] = it->second;
      tables.rev_edge[base + p] = csr.offsets[w] + it->second;
      tables.neighbor_ids[base + p] = ids[w];
    }
  }
  return tables;
}

Network::Network(Graph topology, NetworkConfig config)
    : topology_(std::move(topology)), config_(config) {
  ids_.resize(topology_.num_vertices());
  for (Vertex v = 0; v < topology_.num_vertices(); ++v) ids_[v] = v;
  csr_ = &topology_.csr();
  tables_ = detail::build_edge_tables(*csr_, ids_);
}

Network::Network(Graph topology, NetworkConfig config,
                 std::vector<NodeId> ids)
    : topology_(std::move(topology)), config_(config), ids_(std::move(ids)) {
  CSD_CHECK_MSG(ids_.size() == topology_.num_vertices(),
                "identifier assignment size mismatch");
  csr_ = &topology_.csr();
  tables_ = detail::build_edge_tables(*csr_, ids_);
}

// NetworkConfig::shard is deliberately NOT digested: the round kernel is
// bit-identical at every worker count, so a snapshot taken at one worker
// count must resume at any other (test_shard pins this).
std::uint64_t Network::config_digest() const {
  std::uint64_t h = kDigestSeed;
  h = digest_mix(h, config_.bandwidth);
  h = digest_mix(h, config_.max_rounds);
  h = digest_mix(h, config_.namespace_size);
  h = digest_mix(h, config_.broadcast_only ? 1 : 0);
  h = digest_mix(h, fault_plan_digest(config_.faults));
  return h;
}

RunOutcome Network::run(const ProgramFactory& factory) const {
  return run_impl(factory, config_.seed, nullptr);
}

RunOutcome Network::run(const ProgramFactory& factory,
                        std::uint64_t seed) const {
  return run_impl(factory, seed, nullptr);
}

RunOutcome Network::resume(const ProgramFactory& factory,
                           const Snapshot& snapshot) const {
  CSD_CHECK_MSG(snapshot.kind == Snapshot::Kind::Sync,
                "Network::resume needs a sync snapshot, got "
                    << to_string(snapshot.kind));
  return run_impl(factory, snapshot.sync.identity.seed, &snapshot.sync);
}

RunOutcome Network::run_impl(const ProgramFactory& factory,
                             std::uint64_t seed,
                             const SyncSnapshot* resume_from) const {
  return detail::run_rounds(*this, factory, seed, resume_from);
}

RunOutcome run_congest(const Graph& topology, const NetworkConfig& config,
                       const ProgramFactory& factory) {
  Network net(topology, config);
  return net.run(factory);
}

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
  combined.transcript.insert(combined.transcript.end(),
                             std::make_move_iterator(rep.transcript.begin()),
                             std::make_move_iterator(rep.transcript.end()));
  // Traces merge in repetition order — the deterministic task order the
  // batch guarantees — so the combined trace is jobs-count independent.
  combined.trace.append(rep.trace);
  combined.metrics.trace_bytes += rep.metrics.trace_bytes;
  combined.metrics.counters.merge(rep.metrics.counters);
  combined.metrics.timers.merge(rep.metrics.timers);
  if (combined.checkpoint == nullptr) combined.checkpoint = rep.checkpoint;
  combined.faults.merge(std::move(rep.faults));
}

RunOutcome run_amplified(const Graph& topology, const NetworkConfig& config,
                         const ProgramFactory& factory,
                         std::uint32_t repetitions,
                         const AmplifyOptions& options) {
  CSD_CHECK(repetitions >= 1);
  const Network net(topology, config);

  std::vector<std::uint64_t> seeds(repetitions);
  for (std::uint32_t rep = 0; rep < repetitions; ++rep)
    seeds[rep] = derive_seed(config.seed, 0x5eedULL + rep);
  std::vector<RunBatch::Task> tasks(repetitions);
  for (std::uint32_t rep = 0; rep < repetitions; ++rep)
    tasks[rep] = {&net, &factory, seeds[rep]};

  const RunBatch batch(options.jobs);
  RunBatch::Result result = batch.execute(tasks, options.early_exit);

  RunOutcome combined = make_amplified_accumulator(topology.num_vertices());
  for (auto& slot : result.outcomes) {
    if (!slot.has_value()) continue;  // skipped by early exit
    merge_amplified(combined, std::move(*slot));
  }
  combined.metrics.repetitions_executed = result.executed;
  combined.metrics.repetitions_skipped = result.skipped;
  return combined;
}

}  // namespace csd::congest
