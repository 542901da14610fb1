/**
 * @file
 * Unit and property tests for EDM's central priority-PIM scheduler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/occupancy.hpp"
#include "core/scheduler.hpp"
#include "sim/simulation.hpp"

namespace edm {
namespace core {
namespace {

struct GrantLog
{
    std::vector<std::pair<Picoseconds, GrantAction>> grants;

    Scheduler::GrantSink
    sink(Simulation &sim)
    {
        return [this, &sim](const GrantAction &a) {
            grants.emplace_back(sim.now(), a);
        };
    }
};

EdmConfig
makeConfig(std::size_t nodes, Bytes chunk = 256,
           Priority prio = Priority::Srpt)
{
    EdmConfig cfg;
    cfg.num_nodes = nodes;
    cfg.link_rate = Gbps{100.0};
    cfg.chunk_bytes = chunk;
    cfg.priority = prio;
    return cfg;
}

ControlInfo
notify(NodeId src, NodeId dst, MsgId id, Bytes size)
{
    ControlInfo n;
    n.src = src;
    n.dst = dst;
    n.id = id;
    n.size = size;
    return n;
}

TEST(Scheduler, WriteDemandProducesGrant)
{
    Simulation sim;
    GrantLog log;
    Scheduler sched(makeConfig(4), sim.events(), log.sink(sim));
    EXPECT_TRUE(sched.addWriteDemand(notify(0, 1, 7, 64)));
    sim.run();
    ASSERT_EQ(log.grants.size(), 1u);
    const auto &a = log.grants[0].second;
    EXPECT_EQ(a.target, 0);
    EXPECT_EQ(a.chunk, 64u);
    ASSERT_TRUE(a.grant_block.has_value());
    EXPECT_EQ(a.grant_block->id, 7);
    EXPECT_EQ(sched.grantsIssued(), 1u);
}

TEST(Scheduler, ReadDemandForwardsBufferedRequest)
{
    Simulation sim;
    GrantLog log;
    Scheduler sched(makeConfig(4), sim.events(), log.sink(sim));
    MemMessage req;
    req.type = MemMsgType::RREQ;
    req.src = 2; // requester
    req.dst = 3; // memory node
    req.id = 9;
    req.len = 64;
    EXPECT_TRUE(sched.addReadDemand(req, 64));
    sim.run();
    ASSERT_EQ(log.grants.size(), 1u);
    const auto &a = log.grants[0].second;
    // First grant = the buffered request, delivered to the memory node.
    EXPECT_EQ(a.target, 3);
    ASSERT_TRUE(a.forward_request.has_value());
    EXPECT_EQ(a.forward_request->id, 9);
    EXPECT_FALSE(a.grant_block.has_value());
}

TEST(Scheduler, LargeMessageIsChunked)
{
    Simulation sim;
    GrantLog log;
    Scheduler sched(makeConfig(4, 256), sim.events(), log.sink(sim));
    sched.addWriteDemand(notify(0, 1, 1, 1000));
    sim.run();
    // 1000 B at 256 B chunks: 256 + 256 + 256 + 232.
    ASSERT_EQ(log.grants.size(), 4u);
    Bytes total = 0;
    for (const auto &[t, a] : log.grants) {
        EXPECT_LE(a.chunk, 256u);
        total += a.chunk;
    }
    EXPECT_EQ(total, 1000u);
}

TEST(Scheduler, ChunksSpacedByLinkOccupancy)
{
    Simulation sim;
    GrantLog log;
    Scheduler sched(makeConfig(4, 256), sim.events(), log.sink(sim));
    sched.addWriteDemand(notify(0, 1, 1, 512));
    sim.run();
    ASSERT_EQ(log.grants.size(), 2u);
    // §3.1.1 step 7: the next grant issues l/B after the previous one.
    const Picoseconds gap = log.grants[1].first - log.grants[0].first;
    EXPECT_GE(gap, transmissionDelay(256, Gbps{100.0}));
}

TEST(Scheduler, BusyPortsExcludeConflictingDemands)
{
    Simulation sim;
    GrantLog log;
    Scheduler sched(makeConfig(4, 256), sim.events(), log.sink(sim));
    // Two senders to the same destination: must serialize.
    sched.addWriteDemand(notify(0, 2, 1, 256));
    sched.addWriteDemand(notify(1, 2, 1, 256));
    sim.run();
    ASSERT_EQ(log.grants.size(), 2u);
    const Picoseconds gap = log.grants[1].first - log.grants[0].first;
    EXPECT_GE(gap, transmissionDelay(256, Gbps{100.0}));
}

TEST(Scheduler, DisjointPairsGrantInParallel)
{
    Simulation sim;
    GrantLog log;
    Scheduler sched(makeConfig(4, 256), sim.events(), log.sink(sim));
    sched.addWriteDemand(notify(0, 1, 1, 256));
    sched.addWriteDemand(notify(2, 3, 1, 256));
    sim.run();
    ASSERT_EQ(log.grants.size(), 2u);
    // Disjoint port pairs form one matching: same grant instant.
    EXPECT_EQ(log.grants[0].first, log.grants[1].first);
}

TEST(Scheduler, SrptPrefersShorterMessage)
{
    Simulation sim;
    GrantLog log;
    EdmConfig cfg = makeConfig(4, 64, Priority::Srpt);
    Scheduler sched(cfg, sim.events(), log.sink(sim));
    // Same destination; the short message must win the first grant.
    sched.addWriteDemand(notify(0, 2, 1, 4096));
    sched.addWriteDemand(notify(1, 2, 1, 64));
    sim.run();
    ASSERT_GE(log.grants.size(), 2u);
    EXPECT_EQ(log.grants[0].second.target, 1); // short first
}

TEST(Scheduler, FcfsPrefersEarlierNotification)
{
    Simulation sim;
    GrantLog log;
    EdmConfig cfg = makeConfig(4, 64, Priority::Fcfs);
    Scheduler sched(cfg, sim.events(), log.sink(sim));
    sched.addWriteDemand(notify(0, 2, 1, 4096)); // earlier, longer
    sim.events().scheduleAfter(1000, [&] {
        sched.addWriteDemand(notify(1, 2, 1, 64));
    });
    sim.run();
    ASSERT_GE(log.grants.size(), 2u);
    EXPECT_EQ(log.grants[0].second.target, 0); // earlier first
}

TEST(Scheduler, InOrderWithinPairDespiteSrpt)
{
    // §3.1.1 property 5: SRPT applies only across pairs; messages of one
    // pair are served in notification order.
    Simulation sim;
    GrantLog log;
    Scheduler sched(makeConfig(4, 4096, Priority::Srpt), sim.events(),
                    log.sink(sim));
    sched.addWriteDemand(notify(0, 1, 1, 4096)); // long, first
    sched.addWriteDemand(notify(0, 1, 2, 64));   // short, second
    sim.run();
    ASSERT_EQ(log.grants.size(), 2u);
    EXPECT_EQ(log.grants[0].second.grant_block->id, 1);
    EXPECT_EQ(log.grants[1].second.grant_block->id, 2);
}

TEST(Scheduler, QueueBoundRespectsXTimesN)
{
    EdmConfig cfg = makeConfig(2);
    cfg.max_notifications = 1;
    Simulation sim;
    GrantLog log;
    Scheduler sched(cfg, sim.events(), log.sink(sim));
    // Capacity per destination queue is X*N = 2.
    EXPECT_TRUE(sched.addWriteDemand(notify(0, 1, 1, 1 << 15)));
    EXPECT_TRUE(sched.addWriteDemand(notify(0, 1, 2, 1 << 15)));
    EXPECT_FALSE(sched.addWriteDemand(notify(0, 1, 3, 1 << 15)));
}

class SchedulerMatchingProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(SchedulerMatchingProperty, GrantsNeverOverlapPorts)
{
    // Property: at any instant, at most one in-flight chunk uses a given
    // source or destination port — the matching invariant behind EDM's
    // zero-queuing claim (§3.1.1 property 1).
    Simulation sim(static_cast<std::uint64_t>(GetParam()));
    const std::size_t n = 8;
    const EdmConfig cfg = makeConfig(n, 256);
    GrantLog log;
    Scheduler sched(cfg, sim.events(), log.sink(sim));

    Rng &rng = sim.rng();
    std::map<std::pair<NodeId, NodeId>, MsgId> ids;
    for (int i = 0; i < 60; ++i) {
        const auto src = static_cast<NodeId>(rng.uniformInt(
            std::uint64_t{n}));
        auto dst = static_cast<NodeId>(rng.uniformInt(
            std::uint64_t{n - 1}));
        if (dst >= src)
            ++dst;
        const auto size = static_cast<Bytes>(
            64 + rng.uniformInt(std::uint64_t{2048}));
        const Picoseconds when = static_cast<Picoseconds>(
            rng.uniformInt(std::uint64_t{50000}));
        const MsgId id = ids[{src, dst}]++;
        sim.events().schedule(when, [&sched, src, dst, id, size] {
            ControlInfo ci;
            ci.src = src;
            ci.dst = dst;
            ci.id = id;
            ci.size = size;
            sched.addWriteDemand(ci);
        });
    }
    sim.run();

    // Replay grant log: intervals [t, t + chunk/B) must not overlap on
    // either port.
    std::map<NodeId, Picoseconds> src_busy_until;
    std::map<NodeId, Picoseconds> dst_busy_until;
    Bytes total = 0;
    for (const auto &[t, a] : log.grants) {
        const auto &g = *a.grant_block;
        const Picoseconds occ = transmissionDelay(a.chunk,
                                                  Gbps{100.0});
        EXPECT_GE(t, src_busy_until[g.src]) << "src port overlap";
        EXPECT_GE(t, dst_busy_until[g.dst]) << "dst port overlap";
        src_busy_until[g.src] = t + occ;
        dst_busy_until[g.dst] = t + occ;
        total += a.chunk;
    }
    EXPECT_GT(total, 0u);
    EXPECT_EQ(sched.pendingDemands(), 0u); // everything drained
}

/** A demand as the maximality driver tracks it from the grant log. */
struct TrackedDemand
{
    NodeId src = 0; ///< data sender (memory node for a read)
    NodeId dst = 0; ///< data receiver
    MsgId id = 0;
    bool response = false;  ///< read: the data is an RRES
    bool forwarded = false; ///< read: the buffered request went out
    Bytes remaining = 0;
};

/**
 * Black-box maximality check: offers a seeded mix of write and read
 * demands to a bare Scheduler, drains each simulated instant with
 * events().step(now), and then asserts from the grant log alone that
 * no pair-head demand has its source uplink and destination downlink
 * free — plus, for a read whose request is not yet forwarded, the
 * memory node's downlink. With @p abort_mid_run port 0's uplink is
 * aborted halfway through the arrivals, exercising the reclaim path.
 */
void
expectMaximalAtEveryInstant(int seed, std::size_t n, Priority prio,
                            bool abort_mid_run)
{
    Simulation sim(static_cast<std::uint64_t>(seed));
    EdmConfig cfg = makeConfig(n, 256, prio);
    // PIM iterations cost no time here, so every grant of a pass
    // reaches the sink in the instant the pass ran: at the end of each
    // instant the grant log holds every reservation the scheduler made.
    cfg.scheduler_ghz = 1e9;
    GrantLog log;
    Scheduler sched(cfg, sim.events(), log.sink(sim));

    using Pair = std::pair<NodeId, NodeId>;
    std::map<Pair, std::deque<TrackedDemand>> live; // notification order
    std::map<Pair, MsgId> next_id;
    const NodeId victim = 0;
    bool aborted = false;

    Rng &rng = sim.rng();
    const std::uint64_t window = 1000000; // 1 us of arrivals
    for (std::size_t i = 0; i < 6 * n; ++i) {
        const auto src = static_cast<NodeId>(rng.uniformInt(
            std::uint64_t{n}));
        auto dst = static_cast<NodeId>(rng.uniformInt(
            std::uint64_t{n - 1}));
        if (dst >= src)
            ++dst;
        const auto size = static_cast<Bytes>(
            64 + rng.uniformInt(std::uint64_t{2048}));
        const bool read = rng.chance(0.5);
        const auto when = static_cast<Picoseconds>(
            rng.uniformInt(window));
        const MsgId id = next_id[{src, dst}]++;
        sim.events().schedule(when, [&, src, dst, size, read, id] {
            if (aborted && src == victim)
                return;
            bool ok;
            if (read) {
                MemMessage req;
                req.type = MemMsgType::RREQ;
                req.src = dst; // requester receives the data
                req.dst = src; // memory node sends it
                req.id = id;
                req.len = size;
                ok = sched.addReadDemand(req, size);
            } else {
                ok = sched.addWriteDemand(notify(src, dst, id, size));
            }
            if (ok)
                live[{src, dst}].push_back(
                    TrackedDemand{src, dst, id, read, false, size});
        });
    }
    if (abort_mid_run) {
        sim.events().schedule(static_cast<Picoseconds>(window / 2), [&] {
            sched.abortPort(victim);
            aborted = true;
            std::erase_if(live, [&](const auto &kv) {
                return kv.first.first == victim;
            });
        });
    }

    // Busy-until per port, replayed from the grant log.
    std::vector<Picoseconds> up_until(n, 0);
    std::vector<Picoseconds> down_until(n, 0);
    std::size_t replayed = 0;
    std::uint64_t violations = 0;
    std::string first_violation;
    auto &events = sim.events();
    while (events.step()) {
        const Picoseconds t = sim.now();
        while (events.step(t)) {
        }
        for (; replayed < log.grants.size(); ++replayed) {
            const auto &[at, a] = log.grants[replayed];
            NodeId src;
            NodeId dst;
            MsgId id;
            bool response;
            if (a.forward_request) {
                const MemMessage &req = *a.forward_request;
                src = req.dst;
                dst = req.src;
                id = req.id;
                response = true;
                down_until[src] = std::max(
                    down_until[src],
                    at + requestForwardOccupancy(cfg, req));
            } else {
                src = a.grant_block->src;
                dst = a.grant_block->dst;
                id = a.grant_block->id;
                response = a.grant_block->response;
            }
            const Picoseconds occ = grantOccupancy(cfg, response, a.chunk);
            up_until[src] = std::max(up_until[src], at + occ);
            down_until[dst] = std::max(down_until[dst], at + occ);
            // In-order service: every grant debits its pair's head.
            auto it = live.find({src, dst});
            ASSERT_NE(it, live.end()) << "grant for an unknown pair";
            TrackedDemand &head = it->second.front();
            ASSERT_EQ(std::tie(head.id, head.response),
                      std::tie(id, response))
                << "grant skipped its pair's head";
            head.forwarded = true;
            head.remaining -= a.chunk;
            if (head.remaining == 0)
                it->second.pop_front();
            if (it->second.empty())
                live.erase(it);
        }
        for (const auto &[pair, demands] : live) {
            const TrackedDemand &h = demands.front();
            const bool blocked = up_until[h.src] > t ||
                down_until[h.dst] > t ||
                (h.response && !h.forwarded && down_until[h.src] > t);
            if (!blocked && violations++ == 0)
                first_violation = "t=" + std::to_string(t) + " " +
                    std::to_string(h.src) + "->" + std::to_string(h.dst) +
                    " id " + std::to_string(h.id);
        }
    }
    EXPECT_EQ(violations, 0u) << "first: " << first_violation;
    EXPECT_TRUE(live.empty());
    EXPECT_EQ(sched.pendingDemands(), 0u);
    if (abort_mid_run) {
        EXPECT_GT(sched.ledgerStats().retired_by_abort, 0u);
    }
}

TEST_P(SchedulerMatchingProperty, MatchingIsMaximalAtEveryInstant)
{
    // Property: PIM runs to a maximal matching — once an instant's
    // events drain, no pair-head demand waits with all its ports free
    // (§3.1.3). This is what makes a scheduler that rescans only the
    // ports whose state changed equivalent to one that scans them all.
    for (const std::size_t n : {std::size_t{16}, std::size_t{144}}) {
        for (const Priority prio : {Priority::Srpt, Priority::Fcfs}) {
            SCOPED_TRACE("n=" + std::to_string(n) + " prio=" +
                         (prio == Priority::Srpt ? "srpt" : "fcfs"));
            expectMaximalAtEveryInstant(GetParam(), n, prio, false);
        }
    }
}

TEST_P(SchedulerMatchingProperty, MatchingStaysMaximalAcrossStrictAbort)
{
    expectMaximalAtEveryInstant(GetParam(), 16, Priority::Srpt, true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerMatchingProperty,
                         ::testing::Range(1, 11));

TEST(Scheduler, AbortPortSweepsFlowsInFlowKeyOrder)
{
    // The ledger is a hash table, yet abortPort must retire and report
    // a port's flows in ascending (dst, id, direction) order so fault
    // runs stay deterministic whatever the table's layout.
    Simulation sim;
    GrantLog log;
    EdmConfig cfg = makeConfig(8);
    Scheduler sched(cfg, sim.events(), log.sink(sim));
    std::vector<FlowKey> seen;
    sched.setAbortSink([&](const FlowKey &k) { seen.push_back(k); });

    // Port 3's writes, inserted in unsorted (dst, id) order...
    sched.addWriteDemand(notify(3, 6, 2, 512));
    sched.addWriteDemand(notify(3, 1, 9, 512));
    sched.addWriteDemand(notify(3, 6, 0, 512));
    sched.addWriteDemand(notify(3, 4, 5, 512));
    sched.addWriteDemand(notify(3, 1, 4, 512));
    // ...a read it serves under a write's (src, dst, id), which only
    // the direction bit tells apart...
    MemMessage req;
    req.type = MemMsgType::RREQ;
    req.src = 4;
    req.dst = 3;
    req.id = 5;
    req.len = 64;
    sched.addReadDemand(req, 64);
    // ...and another port's flow, which must survive the abort.
    sched.addWriteDemand(notify(2, 3, 1, 512));

    sched.abortPort(3);
    const std::vector<FlowKey> want = {
        {3, 1, 4, false}, {3, 1, 9, false}, {3, 4, 5, false},
        {3, 4, 5, true},  {3, 6, 0, false}, {3, 6, 2, false}};
    const auto fields = [](const FlowKey &k) {
        return std::make_tuple(k.src, k.dst, k.id, k.response);
    };
    ASSERT_EQ(seen.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(fields(seen[i]), fields(want[i])) << "position " << i;
    EXPECT_EQ(sched.ledgerStats().retired_by_abort, want.size());
    EXPECT_EQ(sched.pendingLedgerEntries(), 1u);
    EXPECT_EQ(sched.pendingDemands(), 1u); // the abort reclaimed the rest
}

// ---------------------------------------------------------------------------
// One event per granted chunk: a port release runs the pass in place, and
// the pass hands its due grants to the sink, only when the event either
// would have been is the next to fire.
// ---------------------------------------------------------------------------

TEST(Scheduler, TiedReleasesMatchOnceBothPortsAreFree)
{
    // Grants 0->1 and 2->3 free their ports at the same instant t, the
    // 0->1 release first. Queued meanwhile: 2->1, which needs a port
    // from each release, and the longer 4->1, which needs only port 1.
    // The pass runs after both releases, so SRPT gives port 1 to 2->1
    // at t. A pass run in place at the first release would see port 2
    // still busy and give port 1 to 4->1 instead.
    Simulation sim;
    GrantLog log;
    const EdmConfig cfg = makeConfig(6, 256);
    Scheduler sched(cfg, sim.events(), log.sink(sim));
    sched.addWriteDemand(notify(0, 1, 1, 256));
    sched.addWriteDemand(notify(2, 3, 1, 256));
    sim.events().schedule(1000, [&] {
        sched.addWriteDemand(notify(2, 1, 2, 64));
        sched.addWriteDemand(notify(4, 1, 3, 1024));
    });
    sim.run();
    const Picoseconds t = grantOccupancy(cfg, false, 256);
    ASSERT_EQ(log.grants.size(), 7u); // 1 + 1 + 1 + 4 chunks
    EXPECT_EQ(log.grants[0].first, 0);
    EXPECT_EQ(log.grants[1].first, 0);
    EXPECT_EQ(log.grants[2].first, t);
    EXPECT_EQ(log.grants[2].second.target, 2);
    EXPECT_EQ(log.grants[2].second.grant_block->id, 2);
    EXPECT_EQ(log.grants[3].second.target, 4);
    EXPECT_GT(log.grants[3].first, t);
}

TEST(Scheduler, EventFiledAfterThePassRunsBeforeItsDueGrant)
{
    // The pass is filed at 0 by the demand, then another rank-0 event at
    // 0. The grant's delivery event would run after that event, so the
    // sink must see the grant after it, not at the end of the pass.
    Simulation sim;
    std::vector<std::string> order;
    Scheduler sched(makeConfig(4), sim.events(),
                    [&](const GrantAction &) { order.push_back("grant"); });
    sched.addWriteDemand(notify(0, 1, 7, 64));
    sim.events().schedule(0, [&] { order.push_back("event"); });
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{"event", "grant"}));
}

TEST(Scheduler, LoneFlowCostsOneEventPerChunk)
{
    // Nothing else is due when a release ends or a pass ends, so each
    // chunk costs only its ports' release; the demand files the one
    // pass that grants the first chunk.
    Simulation sim;
    GrantLog log;
    Scheduler sched(makeConfig(4, 256), sim.events(), log.sink(sim));
    sched.addWriteDemand(notify(0, 1, 1, 1000));
    sim.run();
    ASSERT_EQ(log.grants.size(), 4u);
    EXPECT_EQ(sim.events().executed(), 1u + 4u);
    const Picoseconds occ = grantOccupancy(makeConfig(4, 256), false, 256);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(log.grants[i].first, static_cast<Picoseconds>(i) * occ);
}

TEST(Scheduler, AverageIterationsReasonable)
{
    // ~log2(N) iterations per maximal matching on average (§3.1.3).
    Simulation sim(5);
    GrantLog log;
    const std::size_t n = 16;
    Scheduler sched(makeConfig(n, 64), sim.events(), log.sink(sim));
    for (NodeId s = 0; s < 8; ++s) {
        for (NodeId d = 8; d < 16; ++d) {
            ControlInfo ci;
            ci.src = s;
            ci.dst = d;
            ci.id = static_cast<MsgId>(d);
            ci.size = 64;
            sched.addWriteDemand(ci);
        }
    }
    sim.run();
    EXPECT_EQ(log.grants.size(), 64u);
    EXPECT_GE(sched.avgIterations(), 1.0);
    EXPECT_LE(sched.avgIterations(), 9.0);
}

} // namespace
} // namespace core
} // namespace edm
