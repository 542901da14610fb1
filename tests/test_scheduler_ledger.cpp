/**
 * @file
 * Demand-lifecycle ledger tests.
 *
 * Under incast contention a /G/ can outrun its flow's forwarded RREQ
 * through a backlogged egress and reach the memory node before any
 * response state exists. The scheduler's ledger retires each demand on
 * its observed final /MT/ (or a fault abort) and never grants a retired
 * demand again; hosts park early grants until their request arrives.
 * The incast regime therefore runs warning-clean with zero wasted slots
 * under either port charge.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/logging.hpp"
#include "core/fabric.hpp"
#include "core/host_stack.hpp"
#include "core/scheduler.hpp"
#include "core/wire.hpp"
#include "sim/simulation.hpp"

namespace edm {
namespace core {
namespace {

constexpr std::size_t kIncastNodes = 9; ///< 8 senders -> 1 memory node
constexpr int kChainsPerNode = 6;
constexpr int kRounds = 20; ///< operations per chain

/** Everything a sweep needs to compare runs for bit-exactness. */
struct IncastResult
{
    int completed = 0;
    int offered = 0;
    Picoseconds end_time = 0;
    std::uint64_t grants = 0;
    CycleFabric::GrantAccounting acc;
    std::size_t ledger_left = 0;
    std::size_t peak_staging = 0;
    std::vector<double> read_lat;
    std::vector<double> write_lat;
};

/**
 * Closed-loop N-to-1 mixed incast: every sender keeps kChainsPerNode
 * chains of back-to-back ops against node 0, every third a 700 B write
 * and the rest 900 B reads, so RREQ forwards contend with WREQ data.
 */
IncastResult
runIncast(std::size_t train_cap, bool wire_charged = false)
{
    EdmConfig cfg;
    cfg.num_nodes = kIncastNodes;
    cfg.max_train_blocks = train_cap;
    cfg.max_frame_train_blocks = train_cap;
    cfg.wire_charged_occupancy = wire_charged;
    Simulation sim(42);
    CycleFabric fab(cfg, sim);

    IncastResult r;
    std::function<void(NodeId, int)> issue = [&](NodeId from, int left) {
        if (left <= 0)
            return;
        if (left % 3 == 0) {
            fab.write(from, 0, 0x1000u * from,
                      std::vector<std::uint8_t>(700, 1),
                      [&, from, left](Picoseconds) {
                          ++r.completed;
                          issue(from, left - 1);
                      });
        } else {
            fab.read(from, 0, 0x1000u * from, 900,
                     [&, from, left](std::vector<std::uint8_t>,
                                     Picoseconds, bool) {
                         ++r.completed;
                         issue(from, left - 1);
                     });
        }
    };
    for (NodeId i = 1; i < kIncastNodes; ++i)
        for (int k = 0; k < kChainsPerNode; ++k)
            issue(i, kRounds);
    r.offered =
        static_cast<int>(kIncastNodes - 1) * kChainsPerNode * kRounds;
    sim.run();

    r.end_time = sim.now();
    r.grants = fab.switchStack().scheduler().grantsIssued();
    r.acc = fab.grantAccounting();
    r.ledger_left = fab.switchStack().scheduler().pendingLedgerEntries();
    r.peak_staging = fab.peakEgressStaging();
    r.read_lat = fab.readLatency().raw();
    r.write_lat = fab.writeLatency().raw();
    return r;
}

TEST(SchedulerLedger, IncastIsWarningCleanAndWastesNothing)
{
    // Mixed incast makes /G/s overtake their forwarded RREQ; the memory
    // node parks them instead of dropping them — zero warnings, zero
    // wasted slots, every operation completes, and the ledger drains.
    const std::uint64_t warns_before = warnCount();
    const IncastResult r = runIncast(64);
    EXPECT_EQ(warnCount(), warns_before); // no scheduler/host warnings
    EXPECT_EQ(r.acc.unknown_grants, 0u);
    EXPECT_EQ(r.acc.stale_response_grants, 0u);
    EXPECT_EQ(r.acc.wasted_grant_slots, 0u);
    EXPECT_EQ(r.completed, r.offered);
    EXPECT_EQ(r.ledger_left, 0u);
    // The regime was actually exercised: grants did outrun requests —
    // and every parked grant found its request well inside the expiry
    // window (the timeout only reaps true orphans).
    EXPECT_GT(r.acc.grants_parked, 0u);
    EXPECT_EQ(r.acc.parked_grants_dropped, 0u);
    EXPECT_EQ(r.acc.ledger.retired_by_completion,
              static_cast<std::uint64_t>(r.offered));
}

TEST(SchedulerLedger, TrainEnginesMatchPerBlockUnderIncast)
{
    // Regression for the egress-staging corruption the incast regime
    // exposed: drainStaged used to pop across a stream boundary when
    // the earlier stream's /MT/ was still in the forwarding pipeline,
    // nesting /MS/ sequences on the wire (a panic in the train engine).
    // Per-block and train engines must agree bit-exactly, under both
    // port charges.
    for (const bool wire : {false, true}) {
        const IncastResult per_block = runIncast(1, wire);
        const IncastResult trains = runIncast(64, wire);
        EXPECT_EQ(trains.end_time, per_block.end_time);
        EXPECT_EQ(trains.grants, per_block.grants);
        EXPECT_EQ(trains.completed, per_block.completed);
        EXPECT_EQ(trains.acc.unknown_grants, per_block.acc.unknown_grants);
        EXPECT_EQ(trains.read_lat, per_block.read_lat);
        EXPECT_EQ(trains.write_lat, per_block.write_lat);
    }
}

TEST(SchedulerLedger, RetiresOnObservedCompletion)
{
    // A clean read + write pair: every demand's ledger entry must
    // retire on its observed final /MT/, leaving nothing behind.
    EdmConfig cfg;
    cfg.num_nodes = 4;
    Simulation sim;
    CycleFabric fab(cfg, sim, {3});
    fab.host(3).store()->write(0x100, std::vector<std::uint8_t>(600, 7));

    int done = 0;
    fab.read(0, 3, 0x100, 600,
             [&](std::vector<std::uint8_t> d, Picoseconds, bool) {
                 EXPECT_EQ(d.size(), 600u);
                 ++done;
             });
    fab.write(1, 3, 0x800, std::vector<std::uint8_t>(500, 9),
              [&](Picoseconds) { ++done; });
    sim.run();

    EXPECT_EQ(done, 2);
    const Scheduler &sched = fab.switchStack().scheduler();
    EXPECT_EQ(sched.pendingLedgerEntries(), 0u);
    EXPECT_EQ(sched.pendingDemands(), 0u);
    const LedgerStats &ls = sched.ledgerStats();
    EXPECT_EQ(ls.retired_by_completion, 2u);
    EXPECT_GT(ls.chunks_observed, 0u);
    EXPECT_EQ(ls.grants_suppressed, 0u);
}

TEST(SchedulerLedger, RetiresOnFaultAbort)
{
    // A sender whose uplink is disabled mid-flow can never answer its
    // grants; the abort hook must retire its lifecycles instead of
    // leaving the scheduler granting dead flows.
    EdmConfig cfg;
    cfg.num_nodes = 3;
    cfg.read_timeout = 2 * kMicrosecond;
    Simulation sim;
    CycleFabric fab(cfg, sim, {1});
    fab.host(1).store()->write(0x100, std::vector<std::uint8_t>(256, 3));

    // Trip the damage threshold on node 2's uplink while it has writes
    // in flight toward the memory node: the corruption is injected
    // after the /N/ and the first grant went through, so it lands on
    // the granted data stream itself.
    fab.write(2, 1, 0x900, std::vector<std::uint8_t>(900, 1),
              [](Picoseconds) { ADD_FAILURE() << "dead write completed"; });
    sim.events().scheduleAfter(200 * kNanosecond, [&] {
        fab.corruptUplink(
            2, static_cast<int>(CycleFabric::kLinkErrorThreshold));
    });
    bool read_ok = false;
    fab.read(0, 1, 0x100, 256,
             [&](std::vector<std::uint8_t> d, Picoseconds, bool to) {
                 read_ok = !to && d.size() == 256;
             });
    sim.run();

    EXPECT_TRUE(fab.linkDisabled(2));
    EXPECT_TRUE(read_ok); // healthy flows unaffected
    const Scheduler &sched = fab.switchStack().scheduler();
    EXPECT_GT(sched.ledgerStats().retired_by_abort, 0u);
    EXPECT_EQ(sched.pendingLedgerEntries(), 0u);
    EXPECT_EQ(sched.pendingDemands(), 0u);
}

TEST(SchedulerLedger, RetirementStopsFurtherGrants)
{
    // Scheduler-level unit test: once the datapath reports a demand's
    // final chunk, the scheduler must never grant it again — the
    // residual queued demand is reclaimed and its ports stay free.
    EdmConfig cfg;
    cfg.num_nodes = 4;
    cfg.link_rate = Gbps{100.0};
    cfg.chunk_bytes = 256;
    Simulation sim;
    std::vector<GrantAction> grants;
    Scheduler sched(cfg, sim.events(),
                    [&](const GrantAction &a) { grants.push_back(a); });

    ControlInfo n;
    n.src = 0;
    n.dst = 1;
    n.id = 9;
    n.size = 1000; // would take four 256 B grants to drain by arithmetic
    ASSERT_TRUE(sched.addWriteDemand(n));
    ASSERT_EQ(sched.pendingLedgerEntries(), 1u);

    // Let exactly the first grant fire, then report the message done
    // (e.g. the host sent everything in one short chunk, or the flow
    // completed early): the remaining 744 bytes must never be granted.
    sim.run(/*horizon=*/1);
    ASSERT_EQ(grants.size(), 1u);
    // Mid-flight byte lifecycle: demand registered, one chunk debited,
    // nothing observed through the datapath yet.
    const auto bytes = sched.flowBytes(FlowKey{0, 1, 9});
    ASSERT_TRUE(bytes.has_value());
    EXPECT_EQ(bytes->demanded, 1000u);
    EXPECT_EQ(bytes->granted, 256u);
    EXPECT_EQ(bytes->observed, 0u);
    sched.onChunkForwarded(0, 1, 9, /*response=*/false, 256,
                           /*last_chunk=*/true);
    EXPECT_FALSE(sched.flowBytes(FlowKey{0, 1, 9}).has_value());
    EXPECT_EQ(sched.pendingLedgerEntries(), 0u);
    EXPECT_EQ(sched.pendingDemands(), 0u); // residual demand reclaimed
    sim.run();
    EXPECT_EQ(grants.size(), 1u);
    EXPECT_GT(sched.ledgerStats().stale_bytes_reclaimed, 0u);
    EXPECT_EQ(sched.ledgerStats().retired_by_completion, 1u);
}

TEST(SchedulerLedger, DirectionBitKeysLedgerEntriesSeparately)
{
    // Hosts number messages per destination, so host 0 writing to host
    // 1 while serving host 1's read can hold a WREQ demand and an RRES
    // demand under the same (src=0, dst=1, id). Only FlowKey's
    // direction bit keeps the two ledger entries apart; without it the
    // second registration evicts the first and the first completion
    // retires (and reclaims) the other, still-live flow.
    EdmConfig cfg;
    cfg.num_nodes = 4;
    Simulation sim;
    Scheduler sched(cfg, sim.events(), [](const GrantAction &) {});

    ControlInfo n;
    n.src = 0;
    n.dst = 1;
    n.id = 9;
    n.size = 1000;
    ASSERT_TRUE(sched.addWriteDemand(n));
    MemMessage req; // host 1 reads node 0's memory under the same id
    req.type = MemMsgType::RREQ;
    req.src = 1;
    req.dst = 0;
    req.id = 9;
    req.len = 800;
    ASSERT_TRUE(sched.addReadDemand(req, 800));

    EXPECT_EQ(sched.pendingLedgerEntries(), 2u);
    EXPECT_EQ(sched.ledgerStats().entries_evicted, 0u);

    // The write's final chunk retires only the write-direction entry
    // and reclaims only the write's queued demand.
    sched.onChunkForwarded(0, 1, 9, /*response=*/false, 1000,
                           /*last_chunk=*/true);
    EXPECT_FALSE(sched.flowBytes(FlowKey{0, 1, 9, false}).has_value());
    const auto read_bytes = sched.flowBytes(FlowKey{0, 1, 9, true});
    ASSERT_TRUE(read_bytes.has_value());
    EXPECT_EQ(read_bytes->demanded, 800u);
    EXPECT_EQ(sched.pendingLedgerEntries(), 1u);
    EXPECT_EQ(sched.pendingDemands(), 1u);
}

TEST(SchedulerLedger, CollidingReadServeAndWriteBothComplete)
{
    // End-to-end regression for the ledger collision: both hosts start
    // their per-destination id counters at zero, so the write 0→1 and
    // the response to 1's read from 0 are live as {0→1, id 0}
    // simultaneously, serialized on node 0's uplink. Both must finish.
    const std::uint64_t warns_before = warnCount();
    EdmConfig cfg;
    cfg.num_nodes = 2;
    Simulation sim;
    CycleFabric fab(cfg, sim);
    fab.host(0).store()->write(0x100, std::vector<std::uint8_t>(2000, 5));

    bool read_done = false;
    bool write_done = false;
    fab.read(1, 0, 0x100, 2000,
             [&](std::vector<std::uint8_t> d, Picoseconds, bool to) {
                 read_done = !to && d.size() == 2000;
             });
    fab.write(0, 1, 0x800, std::vector<std::uint8_t>(2000, 6),
              [&](Picoseconds) { write_done = true; });
    sim.run();

    EXPECT_TRUE(read_done);
    EXPECT_TRUE(write_done);
    const Scheduler &sched = fab.switchStack().scheduler();
    EXPECT_EQ(sched.pendingLedgerEntries(), 0u);
    EXPECT_EQ(sched.pendingDemands(), 0u);
    EXPECT_EQ(sched.ledgerStats().entries_evicted, 0u);
    EXPECT_EQ(fab.grantAccounting().wasted_grant_slots, 0u);
    EXPECT_EQ(warnCount(), warns_before);
}

TEST(SchedulerLedger, FullQueueInsertLeavesPredecessorTracked)
{
    // A demand dropped on a full queue must not disturb the ledger
    // entry of a live predecessor sharing its key: insertDemand used to
    // open (evict-and-overwrite) the entry first and erase it on insert
    // failure, untracking the queued flow — which issueGrant then
    // dropped as stale.
    EdmConfig cfg;
    cfg.num_nodes = 2;
    cfg.max_notifications = 1; // per-port queue capacity = 1 * 2 = 2
    Simulation sim;
    Scheduler sched(cfg, sim.events(), [](const GrantAction &) {});

    ControlInfo n;
    n.src = 0;
    n.dst = 1;
    n.id = 7;
    n.size = 600;
    ASSERT_TRUE(sched.addWriteDemand(n));
    n.id = 8;
    ASSERT_TRUE(sched.addWriteDemand(n)); // queue for dst 1 now full
    n.id = 7;                             // id reuse against a full queue
    n.size = 999;
    EXPECT_FALSE(sched.addWriteDemand(n));

    EXPECT_EQ(sched.pendingLedgerEntries(), 2u);
    EXPECT_EQ(sched.ledgerStats().entries_evicted, 0u);
    const auto bytes = sched.flowBytes(FlowKey{0, 1, 7});
    ASSERT_TRUE(bytes.has_value());
    EXPECT_EQ(bytes->demanded, 600u); // untouched by the failed insert
    EXPECT_EQ(sched.pendingDemands(), 2u);
}

TEST(SchedulerLedger, WireChargedOccupancyShrinksIncastStaging)
{
    // Acceptance criterion for EdmConfig::wire_charged_occupancy: with
    // port timers charging the chunk's exact 66-bit block line-time
    // (instead of the ~9%-short payload charge l/B), grants pace at the
    // true wire drain rate, so the mixed-incast regime peaks at a much
    // shallower egress staging depth and grants stop outrunning their
    // forwarded request in the first place. Both charges run the same
    // ledger: nothing is wasted and every operation completes.
    const IncastResult payload = runIncast(64);
    const IncastResult wire = runIncast(64, /*wire_charged=*/true);
    ASSERT_GT(payload.acc.grants_parked, 0u); // the regime is real
    for (const IncastResult *r : {&payload, &wire}) {
        EXPECT_EQ(r->completed, r->offered);
        EXPECT_EQ(r->acc.wasted_grant_slots, 0u);
        EXPECT_EQ(r->ledger_left, 0u);
    }
    EXPECT_LT(wire.acc.grants_parked, payload.acc.grants_parked);
    EXPECT_LT(wire.peak_staging, payload.peak_staging);
}

TEST(SchedulerLedger, IdWrapStallsInsteadOfPanicking)
{
    // Incast follow-up (ROADMAP, PR 4): 8-bit message ids wrap
    // at 256 sends per destination, and a long-enough run with one
    // stranded flow eventually wrapped onto its still-live id — an
    // EDM_PANIC in HostStack::launch. The host must stall the new send
    // until the id frees instead.
    EdmConfig cfg;
    Simulation sim;
    HostStack host(0, cfg, sim.events(), /*has_memory=*/false, [] {});

    int completed = 0;
    auto post = [&] {
        host.postRead(1, 0x100, 4,
                      [&](std::vector<std::uint8_t>, Picoseconds, bool) {
                          ++completed;
                      });
    };
    // Answer an outstanding read by feeding its RRES into the RX path.
    auto answer = [&](MsgId id) {
        MemMessage m;
        m.type = MemMsgType::RRES;
        m.src = 1; // the memory node
        m.dst = 0;
        m.id = id;
        m.len = 4;
        m.payload.assign(4, 7);
        for (const auto &b : serialize(m))
            host.rxBlock(b);
        sim.run();
    };

    // Strand id 0 (its response never arrives), then drive 255 more
    // launches so ids 1..255 are assigned and freed around it.
    post();
    sim.run();
    for (int i = 1; i <= 255; ++i) {
        post();
        sim.run();
        answer(static_cast<MsgId>(i));
    }
    ASSERT_EQ(completed, 255);
    EXPECT_EQ(host.stats().id_stalls, 0u);

    // The 257th send wraps next_id_ back to the live id 0: the old code
    // panicked here ("message id wrap with >256 outstanding"); now the
    // send parks until the id frees.
    post();
    sim.run();
    EXPECT_EQ(host.stats().id_stalls, 1u);
    EXPECT_EQ(completed, 255); // stalled, not launched

    // The stranded read finally completes: its id frees, the stalled
    // send launches under it, and the chain finishes cleanly.
    answer(0);
    EXPECT_EQ(completed, 256);
    answer(0);
    EXPECT_EQ(completed, 257);
}

TEST(SchedulerLedger, OrphanedParkedGrantsExpire)
{
    // A parked grant whose request never arrives (lost to a fault, or
    // issued against an evicted ledger id) must age out instead of
    // persisting until a later message reuses its (dst, id) and drains
    // chunks that were never granted to it.
    EdmConfig cfg;
    Simulation sim;
    HostStack host(0, cfg, sim.events(), /*has_memory=*/true, [] {});

    ControlInfo g; // response grant with no request behind it
    g.dst = 1;
    g.src = 0;
    g.id = 5;
    g.size = 256;
    g.response = true;
    host.rxBlock(makeGrant(g));
    // The grant parks a few cycles after arrival, so at the timeout
    // measured from arrival it has not expired yet.
    sim.run(/*horizon=*/kParkedGrantTimeout);
    EXPECT_EQ(host.stats().grants_parked, 1u);
    EXPECT_EQ(host.stats().parked_grants_dropped, 0u);

    const std::uint64_t warns_before = warnCount();
    sim.run(); // the expiry sweep fires at parked_at + kParkedGrantTimeout
    EXPECT_EQ(host.stats().parked_grants_dropped, 1u);
    EXPECT_EQ(host.stats().unknown_grants, 0u);
    EXPECT_GT(warnCount(), warns_before);
}

TEST(SchedulerLedger, UplinkDisableDropsParkedGrants)
{
    // Before the expiry sweep can fire, the fault hook alone must reap
    // parked grants on a node whose uplink died — it can never answer
    // them.
    EdmConfig cfg;
    Simulation sim;
    HostStack host(0, cfg, sim.events(), /*has_memory=*/true, [] {});

    ControlInfo g;
    g.dst = 1;
    g.src = 0;
    g.id = 5;
    g.size = 256;
    g.response = true;
    host.rxBlock(makeGrant(g));
    sim.run(/*horizon=*/kParkedGrantTimeout / 2);
    EXPECT_EQ(host.stats().grants_parked, 1u);
    EXPECT_EQ(host.stats().parked_grants_dropped, 0u);
    host.onUplinkDisabled();
    EXPECT_EQ(host.stats().parked_grants_dropped, 1u);

    // A grant that slips in over the still-working downlink after the
    // disable is dropped outright, never parked.
    g.id = 6;
    host.rxBlock(makeGrant(g));
    sim.run();
    EXPECT_EQ(host.stats().grants_parked, 1u);
    EXPECT_EQ(host.stats().parked_grants_dropped, 2u);
}

TEST(SchedulerLedger, RepairReopensLedgerAndRegrants)
{
    // Disable -> abort retires every ledger entry on the port; repair
    // must fully reopen the path: latch cleared, error counter and any
    // residual corruption budget zeroed, and a fresh read granted,
    // ledgered and retired exactly like on a never-failed link.
    EdmConfig cfg;
    cfg.num_nodes = 2;
    cfg.link_error_threshold = 4;
    cfg.read_timeout = 2 * kMicrosecond;
    Simulation sim;
    CycleFabric fab(cfg, sim, {1});
    fab.host(1).store()->write64(0x100, 42);

    fab.corruptUplink(0, 1000); // far more than the damage threshold
    int timeouts = 0;
    for (int i = 0; i < 3; ++i) {
        fab.host(0).postRead(1, 0x100, 8,
                             [&](std::vector<std::uint8_t>, Picoseconds,
                                 bool to) { timeouts += to; });
        sim.run();
    }
    ASSERT_TRUE(fab.linkDisabled(0));
    ASSERT_EQ(timeouts, 3);
    EXPECT_EQ(fab.switchStack().scheduler().pendingLedgerEntries(), 0u);
    const std::uint64_t grants_before =
        fab.switchStack().scheduler().grantsIssued();

    fab.repairUplink(0);
    EXPECT_FALSE(fab.linkDisabled(0));
    EXPECT_EQ(fab.linkErrors(0), 0u);

    // The repaired link serves a read end to end: the RREQ transmits
    // uncorrupted (repair zeroed the residual budget), the scheduler
    // re-grants on the reopened port, and the entry retires clean.
    std::uint64_t got = 0;
    bool timed_out = true;
    fab.host(0).postRead(1, 0x100, 8,
                         [&](std::vector<std::uint8_t> d, Picoseconds,
                             bool to) {
                             timed_out = to;
                             if (d.size() == 8)
                                 for (int b = 7; b >= 0; --b)
                                     got = (got << 8) | d[b];
                         });
    sim.run();
    EXPECT_FALSE(timed_out);
    EXPECT_EQ(got, 42u);
    EXPECT_GT(fab.switchStack().scheduler().grantsIssued(),
              grants_before);
    EXPECT_EQ(fab.switchStack().scheduler().pendingLedgerEntries(), 0u);
}

} // namespace
} // namespace core
} // namespace edm
