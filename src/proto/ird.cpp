#include "ird.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace edm {
namespace proto {

IrdModel::IrdModel(Simulation &sim, const ClusterConfig &cluster)
    : FabricModel(sim, cluster),
      receivers_(cluster.num_nodes), senders_(cluster.num_nodes)
{
}

void
IrdModel::arrive(const Job &job)
{
    // Zero-time notification: the receiver knows immediately (the
    // idealization the paper grants this baseline).
    jobs_[job.id] = JobState{job, 0};
    Receiver &r = receivers_[job.dst];
    const bool ok = r.demands.insert(-static_cast<std::int64_t>(job.size),
                                     Pending{job.id, job.size});
    EDM_ASSERT(ok, "IRD demand list overflow");
    scheduleReceiver(job.dst);
}

void
IrdModel::scheduleReceiver(NodeId rid)
{
    Receiver &r = receivers_[rid];
    if (r.demands.empty())
        return;
    if (sim_.now() < r.next_grant) {
        if (!r.wakeup_pending) {
            r.wakeup_pending = true;
            sim_.events().schedule(r.next_grant, [this, rid] {
                receivers_[rid].wakeup_pending = false;
                scheduleReceiver(rid);
            });
        }
        return;
    }

    // Grant a BDP-sized chunk of the SRPT head; large messages therefore
    // do not block small ones at the sender for their whole duration.
    auto entry = r.demands.popFront();
    Pending p = entry->value;
    const Bytes chunk = std::min<Bytes>(kGrantChunk, p.remaining);
    p.remaining -= chunk;
    if (p.remaining > 0) {
        r.demands.insert(-static_cast<std::int64_t>(p.remaining), p);
    }

    // Token pacing: leave exactly the chunk's drain time on the downlink.
    r.next_grant = sim_.now() + txDelay(chunk);
    scheduleReceiver(rid); // arms the wakeup for the next token

    const std::uint64_t jid = p.job_id;
    sim_.events().scheduleAfter(cfg_.propagation, [this, jid, chunk] {
        auto it = jobs_.find(jid);
        EDM_ASSERT(it != jobs_.end(), "grant for finished IRD job");
        const NodeId sid = it->second.job.src;
        Sender &s = senders_[sid];
        Grant g{jid, chunk, s.busy || !s.grant_q.empty()};
        if (g.conflicted)
            ++conflicts_; // the grant waits; the downlink token is wasted
        s.grant_q.push_back(g);
        senderService(sid);
    });
}

void
IrdModel::senderService(NodeId sid)
{
    Sender &s = senders_[sid];
    if (s.busy || s.grant_q.empty())
        return;
    s.busy = true;
    const Grant g = s.grant_q.front();
    s.grant_q.pop_front();

    const Picoseconds tx = txDelay(g.chunk);
    sim_.events().scheduleAfter(tx, [this, sid, g] {
        senders_[sid].busy = false;
        finishJob(g, sim_.now());
        senderService(sid);
    });
}

void
IrdModel::finishJob(const Grant &grant, Picoseconds tx_done)
{
    auto it = jobs_.find(grant.job_id);
    EDM_ASSERT(it != jobs_.end(), "chunk for finished IRD job");
    JobState &js = it->second;
    Receiver &r = receivers_[js.job.dst];
    const Picoseconds delivery = tx_done + 2 * cfg_.propagation;

    if (grant.conflicted && delivery > r.next_grant) {
        // The receiver's pull tokens are clocked by arriving data; a
        // conflicted grant delivers late, bubbles the downlink, and
        // pushes the next token out — the decentralized bandwidth loss
        // EDM's centralized matching avoids (§2.4, §4.3.1). Homa-style
        // overcommitment recovers most of the bubble (the idealized
        // baseline combines the best existing mitigations, §4.3).
        r.next_grant += (delivery - r.next_grant) / 2;
        const NodeId rid = js.job.dst;
        sim_.events().scheduleAfter(0, [this, rid] {
            scheduleReceiver(rid);
        });
    }

    js.delivered += grant.chunk;
    if (js.delivered < js.job.size)
        return;

    const Picoseconds start = std::max(delivery, r.downlink_free);
    r.downlink_free = start;
    const Picoseconds finish = start + cfg_.fixed_overhead +
        cfg_.propagation;
    const Job job = js.job;
    jobs_.erase(it);
    sim_.events().schedule(tx_done, [this, job, finish] {
        complete(job, finish);
    });
}

} // namespace proto
} // namespace edm
