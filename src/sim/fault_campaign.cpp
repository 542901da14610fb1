#include "sim/fault_campaign.hpp"

#include "common/logging.hpp"
#include "common/random.hpp"

namespace edm {

FaultCampaign::FaultCampaign(Simulation &sim, core::CycleFabric &fabric)
    : sim_(sim), fabric_(fabric), nodes_(fabric.config().num_nodes)
{
    fabric_.setLinkHealthHook(
        [this](core::NodeId node, core::CycleFabric::LinkEvent ev,
               std::uint64_t errors) { onLinkEvent(node, ev, errors); });
}

void
FaultCampaign::corruptAt(Picoseconds at, core::NodeId node, int blocks)
{
    EDM_ASSERT(node < nodes_.size(), "campaign node %u out of range",
               node);
    sim_.events().schedule(at, [this, node, blocks] {
        NodeState &st = nodes_[node];
        // A fresh burst restarts the phase clocks unless the link is
        // already down (extra corruption on a dead link is invisible —
        // its blocks are dropped before the corruption check).
        if (st.disabled_at < 0) {
            st.injected_at = sim_.now();
            st.detect_seen = false;
        }
        ++stats_.injections;
        fabric_.corruptUplink(node, blocks);
    });
}

void
FaultCampaign::stormAt(Picoseconds at,
                       const std::vector<core::NodeId> &nodes, int blocks,
                       Picoseconds jitter, std::uint64_t seed)
{
    Rng rng(seed);
    for (const core::NodeId node : nodes) {
        const Picoseconds offset =
            jitter > 0
                ? static_cast<Picoseconds>(rng.uniformInt(
                      static_cast<std::uint64_t>(jitter) + 1))
                : 0;
        corruptAt(at + offset, node, blocks);
    }
}

void
FaultCampaign::failSwitchAt(Picoseconds at, bool backup_network)
{
    EDM_ASSERT(rep_, "switch actions need attachReplicated()");
    sim_.events().schedule(at, [this, backup_network] {
        ++stats_.switch_failures;
        rep_->failNetwork(backup_network);
    });
}

void
FaultCampaign::failbackSwitchAt(Picoseconds at, bool backup_network)
{
    EDM_ASSERT(rep_, "switch actions need attachReplicated()");
    sim_.events().schedule(at, [this, backup_network] {
        ++stats_.switch_failbacks;
        rep_->recoverNetwork(backup_network);
    });
}

void
FaultCampaign::onLinkEvent(core::NodeId node,
                           core::CycleFabric::LinkEvent ev,
                           std::uint64_t /*errors*/)
{
    NodeState &st = nodes_[node];
    switch (ev) {
      case core::CycleFabric::LinkEvent::ErrorDetected:
        if (st.injected_at >= 0 && !st.detect_seen) {
            st.detect_seen = true;
            stats_.detect_ns.add(toNs(sim_.now() - st.injected_at));
        }
        break;
      case core::CycleFabric::LinkEvent::Disabled:
        ++stats_.links_disabled;
        st.disabled_at = sim_.now();
        if (st.injected_at >= 0)
            stats_.disable_ns.add(toNs(sim_.now() - st.injected_at));
        if (auto_repair_delay_ > 0) {
            // Hook rule: never re-enter the fabric synchronously — the
            // repair runs as its own event, even for a zero-ish delay.
            sim_.events().schedule(
                sim_.now() + auto_repair_delay_,
                [this, node] { fabric_.repairUplink(node); });
        }
        break;
      case core::CycleFabric::LinkEvent::Repaired:
        ++stats_.links_repaired;
        if (st.disabled_at >= 0)
            stats_.repair_ns.add(toNs(sim_.now() - st.disabled_at));
        st = NodeState{};
        break;
    }
}

FaultStats
FaultCampaign::stats() const
{
    FaultStats out = stats_;
    for (core::NodeId n = 0; n < nodes_.size(); ++n) {
        const core::HostStats &hs = fabric_.host(n).stats();
        out.ops_timed_out += hs.read_timeouts;
        out.ops_retried += hs.read_retries;
        out.ops_recovered += hs.reads_recovered;
        out.ops_abandoned += hs.reads_abandoned;
    }
    return out;
}

} // namespace edm
