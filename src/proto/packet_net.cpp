#include "packet_net.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace edm {
namespace proto {

PacketNet::PacketNet(Simulation &sim, const ClusterConfig &cluster,
                     const PacketNetConfig &cfg, DeliverFn on_deliver,
                     DropFn on_drop)
    : sim_(sim), cluster_(cluster), cfg_(cfg),
      on_deliver_(std::move(on_deliver)), on_drop_(std::move(on_drop)),
      uplinks_(cluster.num_nodes), egresses_(cluster.num_nodes)
{
    EDM_ASSERT(on_deliver_, "packet net needs a delivery callback");
    if (cfg_.credits) {
        for (auto &e : egresses_)
            e.credit_avail = cfg_.credit_bytes;
    }
}

void
PacketNet::send(const Packet &p)
{
    EDM_ASSERT(p.src < uplinks_.size() && p.dst < egresses_.size(),
               "packet endpoints out of range: %u -> %u", p.src, p.dst);
    uplinks_[p.src].q.push_back(p);
    serviceUplink(p.src);
}

void
PacketNet::serviceUplink(NodeId node)
{
    Uplink &up = uplinks_[node];
    if (up.busy || up.q.empty())
        return;

    const Packet &head = up.q.front();
    Egress &eg = egresses_[head.dst];

    // Head-of-line blocking points: PFC pause and CXL credit exhaustion
    // both stall the whole uplink behind the blocked head (§2.4, §4.3).
    if (cfg_.pfc && eg.paused_upstream) {
        up.waiting = true;
        return;
    }
    if (cfg_.credits && eg.credit_avail < head.wire_bytes) {
        up.waiting = true;
        return;
    }

    up.waiting = false;
    up.busy = true;
    Packet p = up.q.front();
    up.q.pop_front();

    if (cfg_.credits)
        eg.credit_avail -= p.wire_bytes;

    const Picoseconds tx = transmissionDelay(p.wire_bytes,
                                             cluster_.link_rate);
    sim_.events().scheduleAfter(tx + cluster_.propagation,
                                [this, p] { arriveAtSwitch(p); });
    sim_.events().scheduleAfter(tx, [this, node] {
        uplinks_[node].busy = false;
        serviceUplink(node);
    });
}

void
PacketNet::arriveAtSwitch(Packet p)
{
    Egress &eg = egresses_[p.dst];

    if (cfg_.buffer_bytes > 0 && eg.bytes + p.wire_bytes >
        cfg_.buffer_bytes && !p.is_ack) {
        // Tail drop; ACKs are never dropped (they are tiny and the
        // lossless fabrics do not drop at all).
        ++dropped_;
        if (on_drop_)
            on_drop_(p, sim_.now());
        if (cfg_.credits)
            eg.credit_avail += p.wire_bytes; // credits travel with drops
        return;
    }

    if (cfg_.ecn_threshold > 0 && eg.bytes > cfg_.ecn_threshold) {
        p.ecn = true;
        ++ecn_marked_;
    }

    eg.q.push_back(p);
    eg.bytes += p.wire_bytes;

    if (cfg_.pfc && !eg.paused_upstream && eg.bytes > cfg_.pfc_xoff) {
        eg.paused_upstream = true;
        ++pause_events_;
    }

    serviceEgress(p.dst);
}

void
PacketNet::serviceEgress(NodeId port)
{
    Egress &eg = egresses_[port];
    if (eg.busy || eg.q.empty())
        return;

    // Select per discipline: FIFO head, or the minimum-priority packet
    // (pFabric: fewest remaining bytes first).
    auto it = eg.q.begin();
    if (cfg_.discipline == Discipline::Srpt) {
        it = std::min_element(eg.q.begin(), eg.q.end(),
                              [](const Packet &a, const Packet &b) {
                                  return a.prio < b.prio;
                              });
    }
    Packet p = *it;
    eg.q.erase(it);
    eg.bytes -= p.wire_bytes;

    if (cfg_.credits) {
        // Credits return to the sender side one propagation later.
        sim_.events().scheduleAfter(cluster_.propagation,
                                    [this, port, w = p.wire_bytes] {
                                        egresses_[port].credit_avail += w;
                                        wakeBlockedUplinks();
                                    });
    }
    if (cfg_.pfc && eg.paused_upstream && eg.bytes < cfg_.pfc_xon) {
        eg.paused_upstream = false;
        wakeBlockedUplinks();
    }

    eg.busy = true;
    const Picoseconds tx = transmissionDelay(p.wire_bytes,
                                             cluster_.link_rate);
    sim_.events().scheduleAfter(tx + cluster_.propagation, [this, p] {
        ++delivered_;
        on_deliver_(p, sim_.now());
    });
    sim_.events().scheduleAfter(tx, [this, port] {
        egresses_[port].busy = false;
        serviceEgress(port);
    });
}

void
PacketNet::wakeBlockedUplinks()
{
    for (NodeId n = 0; n < uplinks_.size(); ++n) {
        if (uplinks_[n].waiting)
            serviceUplink(n);
    }
}

} // namespace proto
} // namespace edm
