#include "cxl.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace edm {
namespace proto {

CxlModel::CxlModel(Simulation &sim, const ClusterConfig &cluster,
                   const CxlConfig &cfg)
    : FabricModel(sim, cluster), ccfg_(cfg)
{
    // CXL's unloaded latency is lower than the Ethernet paths'.
    cfg_.fixed_overhead = ccfg_.fixed_overhead;

    PacketNetConfig net_cfg;
    net_cfg.discipline = Discipline::Fifo;
    net_cfg.credits = true;
    net_cfg.credit_bytes = ccfg_.credit_bytes;
    net_cfg.buffer_bytes = 0; // lossless by construction
    net_ = std::make_unique<PacketNet>(
        sim, cluster, net_cfg,
        [this](const Packet &p, Picoseconds t) { onDeliver(p, t); });
}

void
CxlModel::arrive(const Job &job)
{
    jobs_[job.id] = JobState{job, 0};
    // Inject every flit-group immediately; credits are the only brake.
    Bytes sent = 0;
    std::uint64_t seq = 0;
    while (sent < job.size) {
        const Bytes seg =
            std::min<Bytes>(ccfg_.flit_payload, job.size - sent);
        Packet p;
        p.job_id = job.id;
        p.src = job.src;
        p.dst = job.dst;
        p.seq = seq++;
        p.wire_bytes = seg + ccfg_.flit_overhead;
        net_->send(p);
        sent += seg;
    }
}

void
CxlModel::onDeliver(const Packet &p, Picoseconds now)
{
    auto it = jobs_.find(p.job_id);
    EDM_ASSERT(it != jobs_.end(), "CXL delivery for unknown job");
    JobState &js = it->second;
    js.delivered += p.wire_bytes - ccfg_.flit_overhead;
    if (js.delivered >= js.job.size) {
        complete(js.job, now + cfg_.fixed_overhead);
        jobs_.erase(it);
    }
}

} // namespace proto
} // namespace edm
