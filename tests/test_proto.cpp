/**
 * @file
 * Tests for the flow-level fabric models and the packet engine.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "proto/cxl.hpp"
#include "proto/edm_model.hpp"
#include "proto/fastpass.hpp"
#include "proto/ird.hpp"
#include "proto/packet_net.hpp"
#include "proto/window_model.hpp"
#include "workload/synthetic.hpp"

namespace edm {
namespace proto {
namespace {

ClusterConfig
smallCluster(std::size_t nodes = 16)
{
    ClusterConfig c;
    c.num_nodes = nodes;
    return c;
}

Job
makeJob(std::uint64_t id, NodeId src, NodeId dst, Bytes size,
        Picoseconds arrival, bool is_write = true)
{
    Job j;
    j.id = id;
    j.src = src;
    j.dst = dst;
    j.size = size;
    j.arrival = arrival;
    j.is_write = is_write;
    return j;
}

// ---- packet engine ----

TEST(PacketNet, DeliversThroughSwitch)
{
    Simulation sim;
    const ClusterConfig cluster = smallCluster();
    PacketNetConfig cfg;
    int delivered = 0;
    Picoseconds at = 0;
    PacketNet net(sim, cluster, cfg,
                  [&](const Packet &, Picoseconds t) {
                      ++delivered;
                      at = t;
                  });
    Packet p;
    p.src = 0;
    p.dst = 1;
    p.wire_bytes = 100;
    net.send(p);
    sim.run();
    EXPECT_EQ(delivered, 1);
    // Two serializations (store-and-forward) + two propagations.
    const Picoseconds expect =
        2 * transmissionDelay(100, cluster.link_rate) +
        2 * cluster.propagation;
    EXPECT_EQ(at, expect);
}

TEST(PacketNet, EcnMarksAboveThreshold)
{
    Simulation sim;
    PacketNetConfig cfg;
    cfg.ecn_threshold = 500;
    bool saw_mark = false;
    PacketNet net(sim, smallCluster(), cfg,
                  [&](const Packet &p, Picoseconds) {
                      saw_mark = saw_mark || p.ecn;
                  });
    // Incast: many sources to one destination builds the egress queue.
    for (NodeId s = 0; s < 10; ++s) {
        Packet p;
        p.src = s;
        p.dst = 15;
        p.wire_bytes = 200;
        net.send(p);
    }
    sim.run();
    EXPECT_TRUE(saw_mark);
    EXPECT_GT(net.ecnMarked(), 0u);
}

TEST(PacketNet, DropsAtBufferLimit)
{
    Simulation sim;
    PacketNetConfig cfg;
    cfg.buffer_bytes = 400;
    int drops = 0;
    PacketNet net(sim, smallCluster(), cfg,
                  [](const Packet &, Picoseconds) {},
                  [&](const Packet &, Picoseconds) { ++drops; });
    for (NodeId s = 0; s < 12; ++s) {
        Packet p;
        p.src = s;
        p.dst = 15;
        p.wire_bytes = 200;
        net.send(p);
    }
    sim.run();
    EXPECT_GT(drops, 0);
    EXPECT_EQ(net.dropped(), static_cast<std::uint64_t>(drops));
}

TEST(PacketNet, PfcPausesAndResumes)
{
    Simulation sim;
    PacketNetConfig cfg;
    cfg.pfc = true;
    cfg.pfc_xoff = 500;
    cfg.pfc_xon = 200;
    int delivered = 0;
    PacketNet net(sim, smallCluster(), cfg,
                  [&](const Packet &, Picoseconds) { ++delivered; });
    for (int i = 0; i < 20; ++i) {
        Packet p;
        p.src = static_cast<NodeId>(i % 8);
        p.dst = 15;
        p.wire_bytes = 200;
        net.send(p);
    }
    sim.run();
    // Lossless: everything eventually delivered despite pausing.
    EXPECT_EQ(delivered, 20);
    EXPECT_GT(net.pauseEvents(), 0u);
}

TEST(PacketNet, CreditsBlockAndRecover)
{
    Simulation sim;
    PacketNetConfig cfg;
    cfg.credits = true;
    cfg.credit_bytes = 400;
    int delivered = 0;
    PacketNet net(sim, smallCluster(), cfg,
                  [&](const Packet &, Picoseconds) { ++delivered; });
    for (int i = 0; i < 10; ++i) {
        Packet p;
        p.src = 0;
        p.dst = 1;
        p.wire_bytes = 150;
        p.seq = static_cast<std::uint64_t>(i);
        net.send(p);
    }
    sim.run();
    EXPECT_EQ(delivered, 10); // lossless, just slower
}

TEST(PacketNet, SrptServesShortFirst)
{
    Simulation sim;
    PacketNetConfig cfg;
    cfg.discipline = Discipline::Srpt;
    std::vector<std::uint64_t> order;
    PacketNet net(sim, smallCluster(), cfg,
                  [&](const Packet &p, Picoseconds) {
                      order.push_back(p.job_id);
                  });
    // Three packets from distinct sources to one destination arrive
    // nearly together; the egress must serve by priority.
    for (int i = 0; i < 3; ++i) {
        Packet p;
        p.job_id = static_cast<std::uint64_t>(i);
        p.src = static_cast<NodeId>(i);
        p.dst = 9;
        p.wire_bytes = 300;
        p.prio = (i == 2) ? 1 : 1000; // job 2 is "shortest"
        net.send(p);
    }
    sim.run();
    ASSERT_EQ(order.size(), 3u);
    // The first to arrive is already in service; among the queued two,
    // the high-priority one goes next.
    EXPECT_EQ(order[1], 2u);
}

// ---- model-level behaviour ----

template <typename Model, typename... Args>
double
unloadedNormalized(Bytes size, bool is_write, Args &&...args)
{
    Simulation sim;
    Model model(sim, smallCluster(), std::forward<Args>(args)...);
    model.offer(makeJob(1, 2, 3, size, 1000, is_write));
    sim.run();
    EXPECT_EQ(model.completed(), 1u);
    return model.normalized().mean();
}

TEST(Models, UnloadedNormalizedNearOne)
{
    EXPECT_NEAR((unloadedNormalized<EdmFlowModel>(64, true)), 1.0, 0.05);
    EXPECT_NEAR((unloadedNormalized<EdmFlowModel>(64, false)), 1.0, 0.05);
    EXPECT_NEAR((unloadedNormalized<IrdModel>(64, true)), 1.0, 0.05);
    EXPECT_NEAR((unloadedNormalized<DctcpModel>(64, true)), 1.0, 0.15);
    EXPECT_NEAR((unloadedNormalized<PfabricModel>(64, true)), 1.0, 0.15);
    EXPECT_NEAR((unloadedNormalized<PfcDcqcnModel>(64, true)), 1.0, 0.15);
    EXPECT_NEAR((unloadedNormalized<CxlModel>(64, true)), 1.0, 0.15);
    // Fastpass pays its batching interval even unloaded.
    EXPECT_LT((unloadedNormalized<FastpassModel>(64, true)), 5.0);
}

TEST(Models, LargeTransferNormalizedNearOne)
{
    EXPECT_NEAR((unloadedNormalized<EdmFlowModel>(64 * 1024, true)), 1.0,
                0.1);
    EXPECT_NEAR((unloadedNormalized<DctcpModel>(64 * 1024, true)), 1.0,
                0.35);
    EXPECT_NEAR((unloadedNormalized<CxlModel>(64 * 1024, true)), 1.0,
                0.35);
}

TEST(EdmFlow, CompletesEveryJobUnderLoad)
{
    Simulation sim;
    const ClusterConfig cluster = smallCluster(16);
    EdmFlowModel model(sim, cluster);
    workload::SyntheticConfig cfg;
    cfg.num_nodes = 16;
    cfg.load = 0.7;
    cfg.messages = 5000;
    Rng rng(1);
    const auto jobs = workload::generateSynthetic(rng, cfg,
                                                  workload::wire::edm);
    for (const auto &j : jobs)
        model.offer(j);
    sim.run();
    EXPECT_EQ(model.completed(), jobs.size());
    EXPECT_GE(model.normalized().mean(), 1.0);
}

TEST(EdmFlow, StaysNearIdealAtHighLoad)
{
    // The headline §4.3.1 claim: within ~1.3-1.4x of unloaded at 0.9.
    Simulation sim;
    const ClusterConfig cluster = smallCluster(32);
    EdmFlowModel model(sim, cluster);
    workload::SyntheticConfig cfg;
    cfg.num_nodes = 32;
    cfg.load = 0.9;
    cfg.messages = 30000;
    Rng rng(2);
    const auto jobs = workload::generateSynthetic(rng, cfg,
                                                  workload::wire::edm);
    for (const auto &j : jobs)
        model.offer(j);
    sim.run();
    EXPECT_EQ(model.completed(), jobs.size());
    EXPECT_LT(model.normalized().mean(), 1.8);
}

TEST(EdmFlow, SrptBeatsFcfsOnHeavyTails)
{
    auto run = [&](core::Priority prio) {
        Simulation sim;
        EdmModelConfig mc;
        mc.priority = prio;
        EdmFlowModel model(sim, smallCluster(16), mc);
        workload::SyntheticConfig cfg;
        cfg.num_nodes = 16;
        cfg.load = 0.8;
        cfg.messages = 8000;
        cfg.size_cdf = Cdf{{64, 0.6}, {4096, 0.9}, {262144, 1.0}};
        Rng rng(3);
        const auto jobs = workload::generateSynthetic(
            rng, cfg, workload::wire::edm);
        for (const auto &j : jobs)
            model.offer(j);
        sim.run();
        return model.normalized().mean();
    };
    EXPECT_LT(run(core::Priority::Srpt), run(core::Priority::Fcfs));
}

TEST(EdmFlow, IdWrapStallsInsteadOfMergingOntoLiveId)
{
    // Mirror of HostStack's id-wrap stall (PR 5): strand message id 0
    // on the pair (0, 1) mid-transfer, churn 255 more writes through
    // ids 1..255, then offer one more. Its id wraps onto the live id 0
    // — the old code asserted on the duplicate live id (and before
    // that silently merged the two jobs' delivery accounting); the fix
    // parks the job and counts a stall. Pair-FIFO granting means a
    // message can only strand through a fault-path abort: kill the
    // port's ledger between the first and second chunk grant, so the
    // half-delivered message never retires from the live table.
    Simulation sim;
    EdmFlowModel model(sim, smallCluster(2));

    model.offer(makeJob(0, 0, 1, 512, 0)); // two 256 B chunks
    // The demand registers at 10 ns (one propagation) and chunk 1 is
    // granted immediately; chunk 2 waits out the port occupancy
    // (~20 ns at 100G). Aborting at 15 ns reclaims the queued demand —
    // and retires its pair-FIFO slot so later demands still flow — and
    // leaves id 0 live forever at 256 of 512 bytes.
    sim.events().schedule(15 * kNanosecond,
                          [&] { model.scheduler().abortPort(0); });

    // Closed-loop churn, spaced far beyond one small job's completion
    // time so the X cap never parks anything: ids 1..255 launch and
    // retire around the stranded id 0.
    for (int i = 1; i <= 255; ++i)
        model.offer(makeJob(static_cast<std::uint64_t>(i), 0, 1, 256,
                            i * 5 * kMicrosecond));
    sim.run();
    EXPECT_EQ(model.completed(), 255u);
    EXPECT_EQ(model.idStalls(), 0u);

    // next_id_ has wrapped back to 0, which is still live (stranded).
    model.offer(makeJob(256, 0, 1, 256, sim.now() + kMicrosecond));
    sim.run();
    EXPECT_EQ(model.idStalls(), 1u);
    EXPECT_EQ(model.completed(), 255u); // parked, not merged
    EXPECT_EQ(model.staleGrants(), 0u);
}

TEST(EdmFlow, IdLiveUntilCompletionMatchesHostStack)
{
    // HostStack holds a message id until its data lands; before PR 10
    // (CHANGES.md) the flow model freed the id at final-grant time, so a
    // wrapped id could relaunch onto a message whose last chunk was
    // still in flight. Stretch propagation so the granted-to-landed
    // window is enormous, push all 256 ids through the grant stage
    // back-to-back (X lifted above 256 so admission never parks on
    // budget), then offer one more job inside the window: its id wraps
    // onto id 0, which is fully granted but not yet complete — the
    // admit guard must stall it until id 0's completion event retires
    // the live entry.
    Simulation sim;
    ClusterConfig cluster = smallCluster(2);
    cluster.propagation = 100 * kMicrosecond;
    EdmModelConfig mc;
    mc.max_notifications = 300; // the id wrap, not the X cap, parks
    EdmFlowModel model(sim, cluster, mc);
    for (int i = 0; i < 256; ++i)
        model.offer(makeJob(static_cast<std::uint64_t>(i), 0, 1, 256, 0));
    // Demands register at t = 100 us (one hop) and the single-chunk
    // grants pace out occupancy-limited within ~tens of us; no chunk
    // lands before grant + 3 hops ~ 400 us. Probe in between.
    model.offer(makeJob(256, 0, 1, 256, 200 * kMicrosecond));
    sim.run();
    EXPECT_EQ(model.idStalls(), 1u);
    EXPECT_EQ(model.completed(), 257u); // stalled job drains and lands
    EXPECT_EQ(model.staleGrants(), 0u);
}

TEST(EdmFlow, LedgerRetiresEveryFlowAtDeliveryAcrossIdWraps)
{
    // The shared scheduler's demand ledger holds live flows only: each
    // flow retires in its completion event, so ids that wrap reopen a
    // fresh entry instead of evicting a stale one, and no grant follows
    // a retirement. Four nodes and 6000 mixed reads and writes put
    // about 500 messages on each pair, wrapping its 8-bit id about
    // twice.
    Simulation sim;
    EdmFlowModel model(sim, smallCluster(4));
    workload::SyntheticConfig cfg;
    cfg.num_nodes = 4;
    cfg.load = 0.7;
    cfg.write_fraction = 0.5;
    cfg.messages = 6000;
    cfg.size_cdf = Cdf{{64, 0.5}, {1024, 0.9}, {8192, 1.0}};
    Rng rng(5);
    const auto jobs = workload::generateSynthetic(rng, cfg,
                                                  workload::wire::edm);
    std::size_t reads = 0;
    for (const auto &j : jobs) {
        reads += j.is_write ? 0 : 1;
        model.offer(j);
    }
    ASSERT_GT(reads, jobs.size() / 4);
    ASSERT_LT(reads, jobs.size() * 3 / 4);
    sim.run();

    ASSERT_EQ(model.completed(), jobs.size());
    const core::Scheduler &sched = model.scheduler();
    const core::LedgerStats &stats = sched.ledgerStats();
    EXPECT_EQ(sched.pendingLedgerEntries(), 0u);
    EXPECT_EQ(stats.retired_by_completion, model.completed());
    EXPECT_EQ(stats.grants_suppressed, 0u);
    EXPECT_EQ(stats.entries_evicted, 0u);
    EXPECT_EQ(sched.bufferedRequests(), 0u);
    EXPECT_EQ(model.staleGrants(), 0u);
}

TEST(Ird, ConflictsAppearUnderLoad)
{
    Simulation sim;
    IrdModel model(sim, smallCluster(8));
    // One sender, two receivers grant simultaneously: a conflict.
    model.offer(makeJob(1, 0, 1, 4096, 100));
    model.offer(makeJob(2, 0, 2, 4096, 100));
    sim.run();
    EXPECT_EQ(model.completed(), 2u);
    EXPECT_GE(model.conflicts(), 1u);
}

TEST(Window, RetransmitsAfterDrop)
{
    Simulation sim;
    DctcpModel model(sim, smallCluster(16));
    // Deep incast overflows the 200 KiB egress buffer.
    for (NodeId s = 0; s < 15; ++s) {
        for (int k = 0; k < 20; ++k) {
            model.offer(makeJob(
                static_cast<std::uint64_t>(s) * 100 + k, s, 15, 1460,
                100 + k));
        }
    }
    sim.run();
    EXPECT_EQ(model.completed(), 300u);
    EXPECT_GT(model.retransmissions(), 0u);
    EXPECT_GT(model.net().dropped(), 0u);
}

TEST(Cxl, HeadOfLineBlockingHurtsVictims)
{
    // Messages from src 0 to an uncongested destination get stuck behind
    // a congested one — the §4.3.1 CXL failure mode.
    Simulation sim;
    CxlModel model(sim, smallCluster(16));
    // Congest destination 15 from many sources.
    std::uint64_t id = 0;
    for (NodeId s = 1; s < 12; ++s)
        model.offer(makeJob(id++, s, 15, 32 * 1024, 0));
    // src 0: first a message into the congested port, then a victim to
    // an idle port.
    model.offer(makeJob(id++, 0, 15, 32 * 1024, 0));
    const std::uint64_t victim = id;
    model.offer(makeJob(id++, 0, 14, 64, 1000));
    sim.run();
    EXPECT_EQ(model.completed(), id);
    // The victim's normalized latency is far above 1 despite its idle
    // destination.
    double worst = 0;
    for (double v : model.normalized().raw())
        worst = std::max(worst, v);
    (void)victim;
    EXPECT_GT(worst, 5.0);
}

TEST(Fastpass, ControlChannelDominates)
{
    Simulation sim;
    FastpassModel model(sim, smallCluster(16));
    for (std::uint64_t i = 0; i < 2000; ++i) {
        model.offer(makeJob(i, static_cast<NodeId>(i % 15), 15, 64,
                            static_cast<Picoseconds>(i * 50)));
    }
    sim.run();
    EXPECT_EQ(model.completed(), 2000u);
    // Batching + arbiter serialization put it far above the others.
    EXPECT_GT(model.normalized().mean(), 2.0);
}

// ---- the arrival stream ----

/** Records each arrival's time and job id. */
class ArrivalLog : public FabricModel
{
  public:
    using FabricModel::FabricModel;

    std::string name() const override { return "log"; }

    std::vector<std::pair<Picoseconds, std::uint64_t>> arrivals;

  protected:
    void
    arrive(const Job &job) override
    {
        EXPECT_EQ(sim_.now(), job.arrival);
        arrivals.emplace_back(sim_.now(), job.id);
    }
};

TEST(ArrivalStream, AnyOfferOrderArrivesByTimeThenOffer)
{
    // Offers out of time order, ties at one time, an offer that becomes
    // the new head, and an event scheduled between two tied offers,
    // which fires between them.
    Simulation sim;
    ArrivalLog model(sim, smallCluster());
    model.offer(makeJob(1, 0, 1, 64, 500));
    model.offer(makeJob(2, 0, 1, 64, 300));
    model.offer(makeJob(3, 0, 1, 64, 500));
    model.offer(makeJob(4, 0, 1, 64, 300));
    sim.events().schedule(300, [&] { model.arrivals.push_back({-1, 99}); });
    model.offer(makeJob(5, 0, 1, 64, 300));
    model.offer(makeJob(6, 0, 1, 64, 100));
    model.offer(makeJob(7, 0, 1, 64, 900));
    EXPECT_EQ(sim.events().pending(), 2u);
    sim.run(400);
    // Between runs, offers at the current time and later.
    model.offer(makeJob(8, 0, 1, 64, 700));
    model.offer(makeJob(9, 0, 1, 64, sim.now()));
    sim.run();
    using Log = std::vector<std::pair<Picoseconds, std::uint64_t>>;
    EXPECT_EQ(model.arrivals, (Log{{100, 6},
                                   {300, 2},
                                   {300, 4},
                                   {-1, 99},
                                   {300, 5},
                                   {300, 9},
                                   {500, 1},
                                   {500, 3},
                                   {700, 8},
                                   {900, 7}}));
    EXPECT_TRUE(sim.events().empty());
}

TEST(ArrivalStreamDeathTest, OfferInThePastFailsAtTheOffer)
{
    // The stream's head lies far ahead, yet an arrival before now()
    // fails when it is offered, not when it would reach the head.
    Simulation sim;
    ArrivalLog model(sim, smallCluster());
    model.offer(makeJob(1, 0, 1, 64, 10 * kMicrosecond));
    sim.events().schedule(kMicrosecond, [] {});
    sim.run(2 * kMicrosecond);
    EXPECT_DEATH(model.offer(makeJob(2, 0, 1, 64, kMicrosecond / 2)),
                 "offering job 2 in the past");
}

/** A 16-node synthetic job list at load 0.7. */
std::vector<Job>
streamJobs(std::uint64_t messages)
{
    workload::SyntheticConfig cfg;
    cfg.num_nodes = 16;
    cfg.load = 0.7;
    cfg.write_fraction = 0.5;
    cfg.messages = messages;
    cfg.size_cdf = Cdf{{64, 0.5}, {1024, 0.9}, {8192, 1.0}};
    Rng rng(11);
    return workload::generateSynthetic(rng, cfg, workload::wire::edm);
}

template <typename Model>
void
holdsOneArrivalEvent()
{
    Simulation sim;
    Model model(sim, smallCluster(16));
    SCOPED_TRACE(model.name());
    const auto jobs = streamJobs(400);
    for (const Job &j : jobs)
        model.offer(j);
    EXPECT_EQ(sim.events().pending(), 1u);
    sim.run();
    EXPECT_EQ(model.completed(), jobs.size());
}

TEST(ArrivalStream, EveryModelHoldsOneArrivalEvent)
{
    holdsOneArrivalEvent<EdmFlowModel>();
    holdsOneArrivalEvent<IrdModel>();
    holdsOneArrivalEvent<DctcpModel>();
    holdsOneArrivalEvent<PfabricModel>();
    holdsOneArrivalEvent<PfcDcqcnModel>();
    holdsOneArrivalEvent<CxlModel>();
    holdsOneArrivalEvent<FastpassModel>();
}

/** Latency samples of @p jobs offered at once, or in @p slices slices. */
template <typename Model>
std::vector<double>
streamedLatencies(const std::vector<Job> &jobs, std::size_t slices)
{
    Simulation sim;
    Model model(sim, smallCluster(16));
    const Picoseconds span = jobs.back().arrival + 1;
    std::size_t next = 0;
    for (std::size_t k = 1; k <= slices; ++k) {
        // Offer the slice's jobs, then run up to its end.
        const Picoseconds end =
            span * static_cast<Picoseconds>(k) /
            static_cast<Picoseconds>(slices);
        for (; next < jobs.size() && jobs[next].arrival < end; ++next)
            model.offer(jobs[next]);
        sim.run(end - 1);
    }
    sim.run();
    EXPECT_EQ(model.completed(), jobs.size());
    return model.latency().raw();
}

template <typename Model>
void
slicedOffersMatchOneBatch()
{
    Simulation sim;
    SCOPED_TRACE(Model(sim, smallCluster()).name());
    const auto jobs = streamJobs(2000);
    const auto batch = streamedLatencies<Model>(jobs, 1);
    ASSERT_EQ(batch.size(), jobs.size());
    EXPECT_EQ(streamedLatencies<Model>(jobs, 7), batch);
    EXPECT_EQ(streamedLatencies<Model>(jobs, 40), batch);
}

TEST(ArrivalStream, SlicedOffersMatchOneBatch)
{
    slicedOffersMatchOneBatch<EdmFlowModel>();
    slicedOffersMatchOneBatch<IrdModel>();
    slicedOffersMatchOneBatch<DctcpModel>();
    slicedOffersMatchOneBatch<PfabricModel>();
    slicedOffersMatchOneBatch<PfcDcqcnModel>();
    slicedOffersMatchOneBatch<CxlModel>();
    slicedOffersMatchOneBatch<FastpassModel>();
}

TEST(Models, NamesAreStable)
{
    Simulation sim;
    const ClusterConfig c = smallCluster();
    EXPECT_EQ(EdmFlowModel(sim, c).name(), "EDM");
    EXPECT_EQ(IrdModel(sim, c).name(), "IRD");
    EXPECT_EQ(DctcpModel(sim, c).name(), "DCTCP");
    EXPECT_EQ(PfabricModel(sim, c).name(), "pFabric");
    EXPECT_EQ(PfcDcqcnModel(sim, c).name(), "PFC");
    EXPECT_EQ(CxlModel(sim, c).name(), "CXL");
    EXPECT_EQ(FastpassModel(sim, c).name(), "Fastpass");
}

} // namespace
} // namespace proto
} // namespace edm
