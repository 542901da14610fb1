#include "window_model.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace edm {
namespace proto {

WindowModel::WindowModel(Simulation &sim, const ClusterConfig &cluster,
                         const WindowConfig &cfg, std::string name)
    : FabricModel(sim, cluster), wcfg_(cfg), name_(std::move(name))
{
    net_ = std::make_unique<PacketNet>(
        sim, cluster, wcfg_.net,
        [this](const Packet &p, Picoseconds t) { onDeliver(p, t); },
        [this](const Packet &p, Picoseconds t) { onDrop(p, t); });
}

WindowModel::Connection &
WindowModel::conn(NodeId s, NodeId d)
{
    auto &c = conns_[{s, d}];
    if (c.cwnd == 0)
        c.cwnd = static_cast<double>(wcfg_.init_cwnd);
    return c;
}

std::int64_t
WindowModel::segmentPriority(const Job &, Bytes)
{
    return 0;
}

void
WindowModel::arrive(const Job &job)
{
    jobs_[job.id] = JobState{job, 0, 0};
    conn(job.src, job.dst).fifo.push_back(job.id);
    pump(job.src, job.dst);
}

void
WindowModel::pump(NodeId s, NodeId d)
{
    Connection &c = conn(s, d);
    while (!c.fifo.empty() &&
           static_cast<double>(c.inflight) < c.cwnd) {
        const std::uint64_t jid = c.fifo.front();
        auto it = jobs_.find(jid);
        EDM_ASSERT(it != jobs_.end(), "pump for finished job");
        JobState &js = it->second;

        const Bytes remaining = js.job.size - js.sent;
        const Bytes seg = std::min<Bytes>(wcfg_.mss, remaining);
        Packet p;
        p.job_id = jid;
        p.src = s;
        p.dst = d;
        p.seq = js.sent / wcfg_.mss;
        p.wire_bytes = std::max<Bytes>(wcfg_.min_wire,
                                       seg + wcfg_.header_bytes);
        p.prio = segmentPriority(js.job, remaining);
        js.sent += seg;
        c.inflight += seg;
        if (js.sent >= js.job.size)
            c.fifo.pop_front();
        net_->send(p);
    }
}

void
WindowModel::onDeliver(const Packet &p, Picoseconds now)
{
    if (p.is_ack) {
        onAck(p, now);
        return;
    }
    // Data segment arrived: emit the ACK (reverse direction, carrying the
    // ECN echo) and account delivered payload.
    Packet ack;
    ack.job_id = p.job_id;
    ack.src = p.dst;
    ack.dst = p.src;
    ack.wire_bytes = wcfg_.ack_wire;
    ack.is_ack = true;
    ack.ecn = p.ecn;
    ack.seq = p.seq;
    net_->send(ack);

    auto it = jobs_.find(p.job_id);
    if (it == jobs_.end())
        return; // duplicate after retransmit
    JobState &js = it->second;
    const Bytes seg = std::min<Bytes>(
        wcfg_.mss, js.job.size - p.seq * wcfg_.mss);
    js.delivered += seg;
    if (js.delivered >= js.job.size) {
        complete(js.job, now + cfg_.fixed_overhead);
        jobs_.erase(it);
    }
}

void
WindowModel::onAck(const Packet &ack, Picoseconds now)
{
    // ack.src is the data receiver; the connection is (ack.dst, ack.src).
    Connection &c = conn(ack.dst, ack.src);
    const Bytes seg = wcfg_.mss; // approximation: full-MSS accounting
    c.inflight = c.inflight > seg ? c.inflight - seg : 0;

    // DCTCP: EWMA of the marked fraction; multiplicative decrease at most
    // once per RTT, additive increase otherwise.
    c.alpha = (1.0 - wcfg_.dctcp_g) * c.alpha +
        wcfg_.dctcp_g * (ack.ecn ? 1.0 : 0.0);
    if (ack.ecn && now - c.last_cut > wcfg_.rtt_est) {
        c.cwnd = std::max<double>(static_cast<double>(wcfg_.min_cwnd),
                                  c.cwnd * (1.0 - c.alpha / 2.0));
        c.last_cut = now;
    } else if (!ack.ecn) {
        c.cwnd += static_cast<double>(wcfg_.mss) *
            static_cast<double>(wcfg_.mss) / c.cwnd;
    }
    pump(ack.dst, ack.src);
}

void
WindowModel::onDrop(const Packet &p, Picoseconds now)
{
    // Single-frame memory messages cannot trigger 3-dup-ACK recovery;
    // timeout is the only recourse (§2.4, Limitation 6).
    (void)now;
    if (p.is_ack)
        return;
    ++retx_;
    sim_.events().scheduleAfter(wcfg_.rto, [this, p] {
        if (jobs_.count(p.job_id))
            net_->send(p);
        // Inflight stays charged until the retransmitted copy is ACKed.
    });
}

namespace {

WindowConfig
dctcpConfig()
{
    WindowConfig cfg;
    cfg.net.discipline = Discipline::Fifo;
    cfg.net.ecn_threshold = 30 * kKiB;
    cfg.net.buffer_bytes = 200 * kKiB;
    return cfg;
}

WindowConfig
pfabricConfig()
{
    WindowConfig cfg = dctcpConfig();
    cfg.net.discipline = Discipline::Srpt;
    return cfg;
}

WindowConfig
pfcConfig()
{
    WindowConfig cfg;
    // RoCEv2 framing: Eth + IP + UDP + BTH + ICRC ≈ 62 B of overhead.
    cfg.header_bytes = 62;
    cfg.net.discipline = Discipline::Fifo;
    cfg.net.ecn_threshold = 30 * kKiB; // DCQCN marking
    cfg.net.buffer_bytes = 0;          // lossless
    cfg.net.pfc = true;
    return cfg;
}

} // namespace

DctcpModel::DctcpModel(Simulation &sim, const ClusterConfig &cluster)
    : WindowModel(sim, cluster, dctcpConfig(), "DCTCP")
{
}

PfabricModel::PfabricModel(Simulation &sim, const ClusterConfig &cluster)
    : WindowModel(sim, cluster, pfabricConfig(), "pFabric")
{
}

std::int64_t
PfabricModel::segmentPriority(const Job &job, Bytes remaining)
{
    (void)job;
    return static_cast<std::int64_t>(remaining);
}

PfcDcqcnModel::PfcDcqcnModel(Simulation &sim, const ClusterConfig &cluster)
    : WindowModel(sim, cluster, pfcConfig(), "PFC")
{
}

} // namespace proto
} // namespace edm
