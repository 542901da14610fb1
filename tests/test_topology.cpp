/**
 * @file
 * Topology unit tests plus leaf-spine fabric integration: wiring math
 * (leaf assignment, ECMP lane hashing) and full
 * cross-leaf reads/writes/RMWs through the multi-tier engine with
 * sharded scheduler state (docs/TOPOLOGY.md).
 */

#include <gtest/gtest.h>

#include <set>

#include "core/fabric.hpp"
#include "net/topology.hpp"

namespace edm {
namespace net {
namespace {

core::TopologySpec
leafSpineSpec(std::size_t hosts_per_leaf, std::size_t trunk_width = 4)
{
    core::TopologySpec t;
    t.tiers = core::TopologySpec::Tiers::LeafSpine;
    t.hosts_per_leaf = hosts_per_leaf;
    t.trunk_width = trunk_width;
    return t;
}

TEST(Topology, SingleModeCollapsesToOneSwitch)
{
    Topology topo(core::TopologySpec{}, 8);
    EXPECT_TRUE(topo.isSingle());
    EXPECT_EQ(topo.numLeaves(), 1u);
    for (core::NodeId n = 0; n < 8; ++n)
        EXPECT_EQ(topo.leafOf(n), 0);
    const auto [lo, hi] = topo.hostsOfLeaf(0);
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 8);
}

TEST(Topology, LeafAssignmentAndRaggedLastLeaf)
{
    // 10 hosts at 4 per leaf: leaves {0..3}, {4..7}, {8,9}.
    Topology topo(leafSpineSpec(4), 10);
    EXPECT_FALSE(topo.isSingle());
    EXPECT_EQ(topo.numLeaves(), 3u);
    EXPECT_EQ(topo.leafOf(0), 0);
    EXPECT_EQ(topo.leafOf(3), 0);
    EXPECT_EQ(topo.leafOf(4), 1);
    EXPECT_EQ(topo.leafOf(9), 2);
    const auto [lo, hi] = topo.hostsOfLeaf(2);
    EXPECT_EQ(lo, 8);
    EXPECT_EQ(hi, 10); // clamped, not 12
}

TEST(Topology, EcmpLaneIsDeterministicSeededAndInRange)
{
    Topology topo(leafSpineSpec(4, 4), 16);
    std::set<std::size_t> lanes;
    for (core::NodeId src = 0; src < 16; ++src) {
        for (core::MsgId id = 0; id < 8; ++id) {
            const std::size_t lane = topo.ecmpLane(src, 1, id, false);
            EXPECT_LT(lane, 4u);
            EXPECT_EQ(lane, topo.ecmpLane(src, 1, id, false));
            lanes.insert(lane);
        }
    }
    // The hash must actually spread flows across the trunk.
    EXPECT_GT(lanes.size(), 1u);

    // A different seed re-deals the lanes for at least one flow.
    core::TopologySpec reseeded = leafSpineSpec(4, 4);
    reseeded.ecmp_seed = 0xfeedULL;
    Topology topo2(reseeded, 16);
    bool differs = false;
    for (core::NodeId src = 0; src < 16 && !differs; ++src)
        for (core::MsgId id = 0; id < 8 && !differs; ++id)
            differs = topo.ecmpLane(src, 1, id, false) !=
                topo2.ecmpLane(src, 1, id, false);
    EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------------
// Integration: a leaf-spine fabric end to end.
// ---------------------------------------------------------------------------

core::EdmConfig
leafSpineConfig(std::size_t nodes, std::size_t hosts_per_leaf)
{
    core::EdmConfig cfg;
    cfg.num_nodes = nodes;
    cfg.link_rate = Gbps{25.0};
    cfg.topology = leafSpineSpec(hosts_per_leaf);
    cfg.topology.ecmp_seed = 7;
    return cfg;
}

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed = 1)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i * 13);
    return v;
}

TEST(LeafSpineFabric, CrossLeafReadReturnsStoredData)
{
    Simulation sim;
    // 8 hosts, 4 per leaf: node 0 (leaf 0) reads from node 5 (leaf 1).
    core::CycleFabric fab(leafSpineConfig(8, 4), sim, {5});
    const auto data = pattern(256);
    fab.host(5).store()->write(0x1000, data);

    std::vector<std::uint8_t> got;
    fab.read(0, 5, 0x1000, 256,
             [&](std::vector<std::uint8_t> d, Picoseconds, bool to) {
                 EXPECT_FALSE(to);
                 got = std::move(d);
             });
    fab.run();
    EXPECT_EQ(got, data);
    EXPECT_EQ(fab.grantAccounting().wasted_grant_slots, 0u);
}

enum class Op
{
    Read,
    Write,
    Rmw,
};

/**
 * Latency of one @p op of @p len bytes from node 0 to memory node
 * @p to, alone on a fresh 8-host fabric with 4-host leaves (node 1
 * shares node 0's leaf, node 5 does not).
 */
Picoseconds
soloLatency(Op op, core::NodeId to, std::size_t len)
{
    Simulation sim;
    core::CycleFabric fab(leafSpineConfig(8, 4), sim, {1, 5});
    fab.host(to).store()->write(0x1000, pattern(len));
    Picoseconds lat = 0;
    switch (op) {
      case Op::Read:
        fab.read(0, to, 0x1000, len,
                 [&](std::vector<std::uint8_t>, Picoseconds l,
                     bool timed_out) {
                     EXPECT_FALSE(timed_out);
                     lat = l;
                 });
        break;
      case Op::Write:
        fab.write(0, to, 0x1000, pattern(len, 7),
                  [&](Picoseconds l) { lat = l; });
        break;
      case Op::Rmw:
        fab.rmw(0, to, 0x1000, mem::RmwOp::FetchAndAdd, 5, 0,
                [&](mem::RmwResult, Picoseconds l) { lat = l; });
        break;
    }
    fab.run();
    EXPECT_GT(lat, 0);
    return lat;
}

TEST(LeafSpineFabric, CrossLeafReadIsOneTrunkTraversalSlower)
{
    // The same op intra-leaf vs cross-leaf: every leaf-to-leaf crossing
    // costs exactly one trunkLatency(). A read or RMW crosses twice (the
    // forwarded request, the response data); a write three times (its
    // /N/, the grant back, the data).
    Simulation sim;
    const Picoseconds trunk =
        core::CycleFabric(leafSpineConfig(8, 4), sim).trunkLatency();
    ASSERT_GT(trunk, 0);
    for (const std::size_t len : {64u, 1024u}) {
        EXPECT_EQ(soloLatency(Op::Read, 5, len),
                  soloLatency(Op::Read, 1, len) + 2 * trunk)
            << len << " B read";
        EXPECT_EQ(soloLatency(Op::Write, 5, len),
                  soloLatency(Op::Write, 1, len) + 3 * trunk)
            << len << " B write";
    }
    EXPECT_EQ(soloLatency(Op::Rmw, 5, 8),
              soloLatency(Op::Rmw, 1, 8) + 2 * trunk);
}

TEST(LeafSpineFabric, CrossLeafWriteAndRmwComplete)
{
    Simulation sim;
    core::CycleFabric fab(leafSpineConfig(12, 4), sim, {9});
    const auto data = pattern(512, 3);
    bool wrote = false;
    fab.write(2, 9, 0x2000, data, [&](Picoseconds lat) {
        EXPECT_GT(lat, 0);
        wrote = true;
    });
    fab.run();
    EXPECT_TRUE(wrote);
    EXPECT_EQ(fab.host(9).store()->read(0x2000, data.size()), data);

    bool swapped = false;
    fab.rmw(7, 9, 0x3000, mem::RmwOp::FetchAndAdd, 5, 0,
            [&](mem::RmwResult, Picoseconds) { swapped = true; });
    fab.run();
    EXPECT_TRUE(swapped);
    EXPECT_EQ(fab.grantAccounting().wasted_grant_slots, 0u);
}

TEST(LeafSpineFabric, ManyToOneAcrossLeavesStaysStrict)
{
    // Incast onto node 0 from every other leaf: grants from the dst
    // shard must respect remote-source busy views — the ledger sees
    // zero wasted slots.
    Simulation sim;
    core::CycleFabric fab(leafSpineConfig(16, 4), sim, {0});
    int done = 0;
    const auto payload = pattern(1024, 9);
    for (core::NodeId src = 1; src < 16; ++src)
        fab.write(src, 0, 0x1000 + 0x1000 * src, payload,
                  [&](Picoseconds) { ++done; });
    fab.run();
    EXPECT_EQ(done, 15);
    const auto acc = fab.grantAccounting();
    EXPECT_EQ(acc.wasted_grant_slots, 0u);
    EXPECT_EQ(fab.totalPendingLedgerEntries(), 0u);
    EXPECT_GT(fab.totalGrantsIssued(), 0u);

    // Per-tier charging actually ran: trunk + spine picoseconds accrue
    // on cross-leaf grants.
    std::uint64_t trunk_ps = 0;
    for (std::uint16_t l = 0; l < fab.topology().numLeaves(); ++l)
        trunk_ps += fab.switchAt(l)
                        .scheduler()
                        .tierChargedPs()[static_cast<std::size_t>(
                            core::LinkTier::Trunk)];
    EXPECT_GT(trunk_ps, 0u);
}

TEST(LeafSpineFabric, CrossLeafFloodReachesEveryOtherHostOnce)
{
    // 10 hosts at 4 per leaf (the last leaf ragged): a frame flooded
    // from host 5 reaches its leaf-mates after the L2 pipeline and
    // every host on another leaf exactly one trunk traversal later.
    Simulation sim;
    core::CycleFabric fab(leafSpineConfig(10, 4), sim, {0});
    std::vector<std::vector<Picoseconds>> got(10);
    for (core::NodeId n = 0; n < 10; ++n)
        fab.host(n).setFrameHandler(
            [&got, &sim, n](std::vector<phy::PhyBlock>) {
                got[n].push_back(sim.now());
            });
    fab.injectFrame(5, pattern(64));
    fab.run();

    EXPECT_TRUE(got[5].empty());
    ASSERT_EQ(got[4].size(), 1u);
    const Picoseconds t0 = got[4][0];
    for (core::NodeId n = 0; n < 10; ++n) {
        if (n == 5)
            continue;
        ASSERT_EQ(got[n].size(), 1u) << "host " << n;
        const bool mate = fab.topology().leafOf(n) == 1;
        EXPECT_EQ(got[n][0], mate ? t0 : t0 + fab.trunkLatency())
            << "host " << n;
    }
}

} // namespace
} // namespace net
} // namespace edm
