#include "fastpass.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.hpp"

namespace edm {
namespace proto {

FastpassModel::FastpassModel(Simulation &sim, const ClusterConfig &cluster,
                             const FastpassConfig &cfg)
    : FabricModel(sim, cluster), fcfg_(cfg),
      src_slots_(cluster.num_nodes), dst_slots_(cluster.num_nodes),
      next_batch_(cluster.num_nodes, 0)
{
}

Picoseconds
FastpassModel::slotQuantum() const
{
    return transmissionDelay(fcfg_.slot_payload, cfg_.link_rate);
}

Picoseconds
FastpassModel::idealLatency(Bytes size, bool is_write) const
{
    // Control round trip to the arbiter + the data path.
    const Picoseconds ctrl = 2 * cfg_.propagation +
        2 * transmissionDelay(fcfg_.control_wire, fcfg_.server_rate);
    return ctrl + FabricModel::idealLatency(size, is_write);
}

std::int64_t
FastpassModel::allocateSlots(NodeId src, NodeId dst,
                             std::int64_t min_slot, int count)
{
    auto &su = src_slots_[src].used;
    auto &du = dst_slots_[dst].used;
    std::int64_t k = min_slot;
    int run = 0;
    std::int64_t run_start = k;
    // Bipartite backfill: scan for the first run free on both ports.
    while (run < count) {
        if (su.count(k) || du.count(k)) {
            ++k;
            run = 0;
            run_start = k;
        } else {
            ++k;
            ++run;
        }
    }
    for (std::int64_t i = run_start; i < run_start + count; ++i) {
        su.insert(i);
        du.insert(i);
    }
    return run_start;
}

void
FastpassModel::arrive(const Job &job)
{
    // Hosts aggregate their demands and send one request frame per
    // batching interval (as real Fastpass does per timeslot); without
    // batching the per-message control frames alone would need >100×
    // the arbiter's bandwidth.
    const NodeId hid = job.is_write ? job.src : job.dst;
    Host &h = hosts_[hid];
    h.pending.push_back(job);
    if (h.pending.size() == 1) {
        const Picoseconds fire = std::max(sim_.now(), next_batch_[hid]);
        next_batch_[hid] = fire + fcfg_.batch_interval;
        sim_.events().schedule(fire, [this, hid] { flushBatch(hid); });
    }
}

void
FastpassModel::flushBatch(NodeId hid)
{
    Host &h = hosts_[hid];
    if (h.pending.empty())
        return;
    std::vector<Job> batch;
    batch.swap(h.pending);

    const Picoseconds ctrl_tx =
        transmissionDelay(fcfg_.control_wire, fcfg_.server_rate);

    // One request frame serializes onto the arbiter's shared ingress.
    const Picoseconds req_start =
        std::max(server_in_free_, sim_.now() + cfg_.propagation);
    const Picoseconds processed = req_start + ctrl_tx;
    server_in_free_ = processed;

    // The allocation response carries one record per (src, dst) demand
    // in the batch (consecutive messages of a burst to the same peer
    // aggregate into one flow record, as in real Fastpass). It still
    // grows with offered load — the arbiter's egress is the second
    // bottleneck the paper's analysis points at.
    std::set<std::pair<NodeId, NodeId>> pairs;
    for (const Job &j : batch)
        pairs.emplace(j.src, j.dst);
    const Bytes resp_bytes = fcfg_.control_wire +
        fcfg_.alloc_record_bytes * pairs.size();
    const Picoseconds resp_tx =
        transmissionDelay(resp_bytes, fcfg_.server_rate);
    const Picoseconds resp_start = std::max(server_out_free_, processed);
    server_out_free_ = resp_start + resp_tx;
    const Picoseconds informed = resp_start + resp_tx + cfg_.propagation;

    const Picoseconds quantum = slotQuantum();
    for (const Job &job : batch) {
        // Idealized per-timeslot bipartite matching with backfill: the
        // transfer occupies consecutive slots free on both ports, no
        // earlier than when the sender learns its allocation.
        const auto min_slot = static_cast<std::int64_t>(
            (informed + quantum - 1) / quantum);
        const Picoseconds data_tx =
            txDelay(job.size + fcfg_.data_overhead);
        const int count = static_cast<int>(
            (data_tx + quantum - 1) / quantum);
        const std::int64_t slot =
            allocateSlots(job.src, job.dst, min_slot, count);

        const Picoseconds start = slot * quantum;
        const Picoseconds finish = start + data_tx +
            2 * cfg_.propagation + cfg_.fixed_overhead;
        sim_.events().schedule(finish, [this, job, finish] {
            complete(job, finish);
        });
    }
}

} // namespace proto
} // namespace edm
