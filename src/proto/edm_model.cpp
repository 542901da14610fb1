#include "edm_model.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "core/occupancy.hpp"
#include "trace/event_log.hpp"

namespace edm {
namespace proto {

EdmFlowModel::EdmFlowModel(Simulation &sim, const ClusterConfig &cluster,
                           const EdmModelConfig &cfg)
    : FabricModel(sim, cluster), mcfg_(cfg),
      outstanding_(cluster.num_nodes * cluster.num_nodes, 0),
      parked_(cluster.num_nodes * cluster.num_nodes),
      next_id_(cluster.num_nodes * cluster.num_nodes, 0)
{
    ecfg_.num_nodes = cluster.num_nodes;
    ecfg_.link_rate = cluster.link_rate;
    ecfg_.chunk_bytes = cfg.chunk_bytes;
    ecfg_.max_notifications = cfg.max_notifications;
    ecfg_.priority = cfg.priority;
    ecfg_.scheduler_ghz = cfg.scheduler_ghz;
    ecfg_.wire_charged_occupancy = cfg.wire_charged_occupancy;
    ecfg_.event_log = cfg.event_log;
    sched_ = std::make_unique<core::Scheduler>(
        ecfg_, sim.events(),
        [this](const core::GrantAction &a) { onGrant(a); });
}

void
EdmFlowModel::offer(const Job &job)
{
    sim_.events().schedule(job.arrival, [this, job] { admit(job); });
}

void
EdmFlowModel::admit(const Job &job)
{
    // Hosts rate-limit active requests to X per destination (§3.1.2).
    const std::size_t pair = pairIndex(job.src, job.dst);
    if (outstanding_[pair] >= mcfg_.max_notifications) {
        parked_[pair].push_back(job);
        return;
    }
    // 8-bit id-wrap guard (mirrors HostStack::admit): launching onto a
    // still-live message id would silently merge two jobs' delivery
    // accounting. Park until the conflicting id retires.
    if (nextIdLive(job.src, job.dst)) {
        ++id_stalls_;
        if (auto *log = mcfg_.event_log)
            log->log(trace::EventType::IdWrapStall, sim_.now(), job.src,
                     job.src, job.dst, next_id_[pair], false,
                     trace::Detail::None, parked_[pair].size());
        parked_[pair].push_back(job);
        return;
    }
    ++outstanding_[pair];
    launch(job);
}

bool
EdmFlowModel::nextIdLive(core::NodeId src, core::NodeId dst) const
{
    return active_.contains(msgKey(src, dst, next_id_[pairIndex(src, dst)]));
}

void
EdmFlowModel::launch(const Job &job)
{
    const core::MsgId id = next_id_[pairIndex(job.src, job.dst)]++;
    const bool inserted =
        active_.emplace(msgKey(job.src, job.dst, id), Active{job, 0})
            .second;
    EDM_ASSERT(inserted, "message id %u reused while live",
               static_cast<unsigned>(id));

    if (job.is_write) {
        // Explicit /N/ travels one hop to the switch (§3.1.4).
        core::ControlInfo n;
        n.dst = job.dst;
        n.src = job.src;
        n.id = id;
        n.size = job.size;
        sim_.events().scheduleAfter(cfg_.propagation, [this, n] {
            sched_->addWriteDemand(n);
        });
    } else {
        // The read request reaches the switch one hop after issue and is
        // buffered as the implicit demand for the response (§3.1.1).
        core::MemMessage req;
        req.type = core::MemMsgType::RREQ;
        req.src = job.dst; // requester
        req.dst = job.src; // memory node (data sender)
        req.id = id;
        req.len = static_cast<Bytes>(
            std::min<Bytes>(job.size, 0xFFFF));
        sim_.events().scheduleAfter(cfg_.propagation,
                                    [this, req, size = job.size] {
                                        sched_->addReadDemand(req, size);
                                    });
    }
}

void
EdmFlowModel::onGrant(const core::GrantAction &action)
{
    std::uint64_t key;
    bool response;
    const Bytes chunk = action.chunk;
    if (action.forward_request) {
        const auto &req = *action.forward_request;
        key = msgKey(req.dst, req.src, req.id);
        response = true; // forwarded request pays for an RRES chunk
    } else {
        const auto &g = *action.grant_block;
        key = msgKey(g.src, g.dst, g.id);
        response = g.response;
    }
    // Grant travels one hop to the sender; the chunk then serializes and
    // crosses two hops through its virtual circuit. Wire-charged mode
    // serializes the chunk's exact block line-time (matching the
    // occupancy the shared scheduler reserved for it); the payload
    // charge keeps the raw payload delay bit-exactly.
    const Picoseconds ser = mcfg_.wire_charged_occupancy
        ? core::chunkLineTime(response ? core::MemMsgType::RRES
                                       : core::MemMsgType::WREQ,
                              chunk, cfg_.link_rate)
        : txDelay(chunk);
    const Picoseconds at = sim_.now() + 3 * cfg_.propagation + ser;
    deliverChunk(key, chunk, at);
}

void
EdmFlowModel::deliverChunk(std::uint64_t key, Bytes chunk, Picoseconds at)
{
    auto it = active_.find(key);
    if (it == active_.end()) {
        // The job finished (or its id wrapped) before this grant landed
        // — the flow-level analogue of a grant for a retired demand.
        // Tolerate and count it, as the cycle-level ledger does, rather
        // than treating normal protocol slack as an invariant violation.
        ++stale_grants_;
        return;
    }
    Active &a = it->second;
    if (a.delivered >= a.job.size) {
        // Fully granted but the final chunk is still in flight: a late
        // over-grant for a message whose id is merely awaiting its
        // completion event. Stale, like the retired-id case above.
        ++stale_grants_;
        return;
    }
    a.delivered += chunk;
    EDM_ASSERT(a.delivered <= a.job.size, "over-delivery");
    if (a.delivered < a.job.size)
        return;

    const Job job = a.job;
    sim_.events().schedule(at, [this, key, job] {
        // The id stays live until the data lands — HostStack::admit's
        // wrap guard and this model must agree on when an id retires,
        // or the two stall at different wrap points (ROADMAP (c);
        // tests/test_proto.cpp IdLiveUntilCompletionMatchesHostStack).
        active_.erase(key);
        complete(job, sim_.now() + cfg_.fixed_overhead);
        // Completion frees one slot of the per-pair X budget.
        const std::size_t pair = pairIndex(job.src, job.dst);
        --outstanding_[pair];
        // Drain parked jobs while budget is free and the next id is not
        // live (id-wrap stall). Without a fault abort the id guard never
        // fires and at most one slot just freed, so this drains exactly
        // one job — bit-identical to the historical single relaunch.
        auto &parked = parked_[pair];
        while (!parked.empty() &&
               outstanding_[pair] < mcfg_.max_notifications &&
               !nextIdLive(job.src, job.dst)) {
            const Job next = parked.front();
            parked.pop_front();
            ++outstanding_[pair];
            launch(next);
        }
    });
}

} // namespace proto
} // namespace edm
