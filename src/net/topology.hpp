/**
 * @file
 * First-class fabric topology: hosts, leaf switches, spine trunks and
 * link tiers (PR 9, docs/TOPOLOGY.md).
 *
 * A Topology is built once from EdmConfig::topology + num_nodes and
 * answers the wiring questions every layer used to hard-code as "one
 * switch": which leaf owns a host, which hosts a leaf serves, how many
 * trunk lanes join a leaf to the spine, and which lane a flow's ECMP
 * hash picks.
 *
 * The spine itself is contention-free transport with a fixed traversal
 * latency (mirroring the single switch's contention-free internal
 * crossbar); trunk *contention* is modeled where the grant decisions
 * are made — in the per-leaf scheduler shards' lane busy timers, with
 * per-tier occupancy charging from core/occupancy.hpp.
 */

#ifndef EDM_NET_TOPOLOGY_HPP
#define EDM_NET_TOPOLOGY_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/config.hpp"
#include "core/message.hpp"

namespace edm {
namespace net {

class Topology
{
  public:
    Topology(const core::TopologySpec &spec, std::size_t num_nodes);

    /** True for the legacy one-switch wiring (no leaf/spine tiers). */
    bool isSingle() const
    {
        return spec_.tiers == core::TopologySpec::Tiers::Single;
    }

    /** Leaf switches (1 when single). */
    std::size_t numLeaves() const { return num_leaves_; }

    /** Leaf switch terminating node @p n's uplink. */
    std::uint16_t
    leafOf(core::NodeId n) const
    {
        return isSingle()
            ? 0
            : static_cast<std::uint16_t>(n / spec_.hosts_per_leaf);
    }

    /** Host id range [lo, hi) attached to leaf @p l. */
    std::pair<core::NodeId, core::NodeId>
    hostsOfLeaf(std::uint16_t l) const
    {
        if (isSingle())
            return {0, static_cast<core::NodeId>(num_nodes_)};
        const std::size_t lo = static_cast<std::size_t>(l) *
            spec_.hosts_per_leaf;
        const std::size_t hi =
            std::min(lo + spec_.hosts_per_leaf, num_nodes_);
        return {static_cast<core::NodeId>(lo),
                static_cast<core::NodeId>(hi)};
    }

    /** ECMP trunk lanes per direction between a leaf and the spine. */
    std::size_t trunkWidth() const { return spec_.trunk_width; }

    std::uint64_t ecmpSeed() const { return spec_.ecmp_seed; }

    /**
     * Deterministic ECMP-ish lane choice for a flow: a splitmix64 mix
     * of the FlowKey fields and the configured seed, reduced modulo
     * trunk_width. Both directions of a flow (grant-coordination note
     * and data) hash to the same lane, and the choice is identical on
     * every shard that computes it.
     */
    std::size_t ecmpLane(core::NodeId src, core::NodeId dst,
                         core::MsgId id, bool response) const;

  private:
    core::TopologySpec spec_;
    std::size_t num_nodes_ = 0;
    std::size_t num_leaves_ = 1;
};

} // namespace net
} // namespace edm

#endif // EDM_NET_TOPOLOGY_HPP
