/**
 * @file
 * Frame-train equivalence tests: batching L2 frame blocks into trains
 * (EdmConfig::max_frame_train_blocks > 1) must be *observably
 * identical* to per-block frame emission (max_frame_train_blocks = 1)
 * — every completion latency, every flood counter, every fault outcome
 * — while executing far fewer events. The scenarios lean on the
 * intra-frame preemption experiments (§3.2.3): latency-critical reads
 * puncturing jumbo-frame streams exercise the memory-preempts-frame
 * trim path that frame trains must get exactly right.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fabric.hpp"
#include "mac/frame.hpp"

namespace edm {
namespace core {
namespace {

/** @p hosts_per_leaf > 0 builds a leaf-spine with two trunk lanes. */
EdmConfig
config(std::size_t nodes, std::size_t max_frame_train,
       std::size_t max_mem_train = 64, std::size_t hosts_per_leaf = 0)
{
    EdmConfig cfg;
    cfg.num_nodes = nodes;
    cfg.link_rate = Gbps{25.0};
    cfg.max_train_blocks = max_mem_train;
    cfg.max_frame_train_blocks = max_frame_train;
    if (hosts_per_leaf > 0) {
        cfg.topology.tiers = TopologySpec::Tiers::LeafSpine;
        cfg.topology.hosts_per_leaf = hosts_per_leaf;
        cfg.topology.trunk_width = 2;
    }
    return cfg;
}

/** Everything observable about one fabric run. */
struct Outcome
{
    std::vector<double> read_lat;
    std::vector<double> write_lat;
    std::vector<double> rmw_lat;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t frames_flooded = 0;
    std::uint64_t grants_sent = 0;
    std::uint64_t blocks_forwarded = 0;
    std::uint64_t link_errors = 0;
    bool link_disabled = false;
    std::uint64_t events = 0;
    Picoseconds end_time = 0;
};

void
expectIdentical(const Outcome &per_block, const Outcome &trains,
                const std::string &label)
{
    EXPECT_EQ(per_block.read_lat, trains.read_lat) << label;
    EXPECT_EQ(per_block.write_lat, trains.write_lat) << label;
    EXPECT_EQ(per_block.rmw_lat, trains.rmw_lat) << label;
    EXPECT_EQ(per_block.reads, trains.reads) << label;
    EXPECT_EQ(per_block.writes, trains.writes) << label;
    EXPECT_EQ(per_block.timeouts, trains.timeouts) << label;
    EXPECT_EQ(per_block.frames_received, trains.frames_received) << label;
    EXPECT_EQ(per_block.frames_flooded, trains.frames_flooded) << label;
    EXPECT_EQ(per_block.grants_sent, trains.grants_sent) << label;
    EXPECT_EQ(per_block.blocks_forwarded, trains.blocks_forwarded)
        << label;
    EXPECT_EQ(per_block.link_errors, trains.link_errors) << label;
    EXPECT_EQ(per_block.link_disabled, trains.link_disabled) << label;
    EXPECT_EQ(per_block.end_time, trains.end_time) << label;
}

template <typename Scenario>
Outcome
runScenario(const EdmConfig &cfg, Scenario scenario)
{
    Simulation sim;
    CycleFabric fab(cfg, sim,
                    {static_cast<NodeId>(cfg.num_nodes - 1)});
    scenario(sim, fab);
    sim.run();

    Outcome o;
    o.read_lat = fab.readLatency().raw();
    o.write_lat = fab.writeLatency().raw();
    o.rmw_lat = fab.rmwLatency().raw();
    for (NodeId n = 0; n < cfg.num_nodes; ++n) {
        o.reads += fab.host(n).stats().reads_completed;
        o.writes += fab.host(n).stats().writes_completed;
        o.timeouts += fab.host(n).stats().read_timeouts;
        o.frames_received += fab.host(n).stats().frames_received;
        o.link_errors += fab.linkErrors(n);
        o.link_disabled = o.link_disabled || fab.linkDisabled(n);
    }
    for (std::uint16_t l = 0; l < fab.topology().numLeaves(); ++l) {
        const SwitchStats &st = fab.switchAt(l).stats();
        o.frames_flooded += st.frames_flooded;
        o.grants_sent += st.grants_sent;
        o.blocks_forwarded += st.blocks_forwarded;
    }
    o.events = sim.events().executed();
    o.end_time = sim.now();
    return o;
}

TEST(FrameTrain, PureFrameFloodBitIdenticalAndFewerEvents)
{
    // Frames only: every uplink and every flooded downlink is a clean
    // frame stream, the best case for trains.
    auto scenario = [](Simulation &, CycleFabric &fab) {
        mac::Frame f;
        f.payload.assign(1400, 0x7B);
        const auto frame = mac::serialize(f);
        for (int i = 0; i < 12; ++i)
            fab.injectFrame(static_cast<NodeId>(i % 2), frame);
    };
    const Outcome per_block = runScenario(config(3, 1), scenario);
    const Outcome trains = runScenario(config(3, 64), scenario);
    expectIdentical(per_block, trains, "pure-frame");
    EXPECT_EQ(trains.frames_flooded, 12u);
    // The point of the exercise: identical timing from far fewer events.
    EXPECT_LT(trains.events, per_block.events / 2)
        << "frame-train path did not engage";
}

TEST(FrameTrain, PreemptionInterferenceBitIdentical)
{
    // The §3.2.3 experiment shape (scenarios/interference.edm):
    // a 64 B read posted while 0..6 queued jumbo frames serialize on
    // the same uplink. The read's memory blocks must preempt an
    // in-flight frame train at exactly the per-block instants, so the
    // measured read latency is the sharpest possible equivalence probe.
    for (int frames = 0; frames <= 6; ++frames) {
        auto scenario = [frames](Simulation &sim, CycleFabric &fab) {
            fab.host(1).store()->write(
                0x1000, std::vector<std::uint8_t>(64, 0x77));
            mac::Frame jumbo;
            jumbo.payload.assign(8900, 0xEE);
            const auto bytes = mac::serialize(jumbo);
            for (int i = 0; i < frames; ++i)
                fab.injectFrame(0, bytes);
            // Post the read a little into the frame burst, from a
            // deliberately slot-unaligned instant.
            sim.events().schedule(3 * kNanosecond + 7, [&fab] {
                fab.read(0, 1, 0x1000, 64, {});
            });
        };
        const Outcome per_block = runScenario(config(2, 1), scenario);
        const Outcome trains = runScenario(config(2, 64), scenario);
        expectIdentical(per_block, trains,
                        "jumbo x" + std::to_string(frames));
        ASSERT_EQ(trains.read_lat.size(), 1u);
        if (frames >= 2) {
            EXPECT_LT(trains.events, per_block.events * 3 / 4)
                << "frame-train path did not engage at " << frames;
        }
    }
}

TEST(FrameTrain, SlotAlignedMemoryTiesBitIdentical)
{
    // Memory enqueue events that land *exactly* on a frame train's slot
    // grid exercise the trim tie rule (memory wins a contested slot,
    // including the train's last one). Frames injected at t=0 anchor
    // the uplink slot grid at multiples of the block slot; a read
    // posted at a grid-aligned instant keeps every derived enqueue
    // grid-aligned too. Sweep the phase one cycle at a time so the
    // enqueue walks across mid-train and train-boundary slots.
    for (int phase = 0; phase < 30; ++phase) {
        const Picoseconds post_at =
            (40 + static_cast<Picoseconds>(phase)) * kPcsBlockSlot;
        auto scenario = [post_at](Simulation &sim, CycleFabric &fab) {
            fab.host(1).store()->write(
                0x1000, std::vector<std::uint8_t>(128, 0x77));
            mac::Frame jumbo;
            jumbo.payload.assign(8900, 0xEE);
            const auto bytes = mac::serialize(jumbo);
            for (int i = 0; i < 3; ++i)
                fab.injectFrame(0, bytes);
            sim.events().schedule(post_at, [&fab] {
                fab.read(0, 1, 0x1000, 128, {});
            });
        };
        const Outcome per_block = runScenario(config(2, 1), scenario);
        const Outcome trains = runScenario(config(2, 64), scenario);
        expectIdentical(per_block, trains,
                        "phase " + std::to_string(phase));
        ASSERT_EQ(trains.read_lat.size(), 1u);
    }
}

TEST(FrameTrain, ContendedMixedTrafficBitIdentical)
{
    // Reads, writes and RMWs from three nodes against one memory node
    // with MTU frames flooding both ways: frame trains, memory trains,
    // grant overtakes and memory-preempts-frame trims all active at
    // once. Compare all four knob combinations to the fully per-block
    // engine.
    auto scenario = [](Simulation &, CycleFabric &fab) {
        for (int i = 0; i < 64; ++i)
            fab.host(3).store()->write64(
                0x1000 + static_cast<std::uint64_t>(i) * 8,
                static_cast<std::uint64_t>(i) * 3 + 1);
        mac::Frame f;
        f.payload.assign(1400, 0x7B);
        const auto frame = mac::serialize(f);
        for (int i = 0; i < 24; ++i) {
            fab.injectFrame(static_cast<NodeId>(i % 3), frame);
            fab.read(static_cast<NodeId>(i % 3), 3,
                     0x1000 + static_cast<std::uint64_t>(i % 64) * 8, 256,
                     {});
            fab.write(static_cast<NodeId>((i + 1) % 3), 3,
                      0x8000 + static_cast<std::uint64_t>(i) * 512,
                      std::vector<std::uint8_t>(
                          512, static_cast<std::uint8_t>(i)),
                      {});
            fab.rmw(static_cast<NodeId>((i + 2) % 3), 3, 0x1000,
                    mem::RmwOp::FetchAndAdd, 1, 0, {});
        }
    };
    const Outcome baseline = runScenario(config(4, 1, 1), scenario);
    const Outcome frames_only = runScenario(config(4, 64, 1), scenario);
    const Outcome mem_only = runScenario(config(4, 1, 64), scenario);
    const Outcome both = runScenario(config(4, 64, 64), scenario);
    expectIdentical(baseline, frames_only, "frame trains only");
    expectIdentical(baseline, mem_only, "memory trains only");
    expectIdentical(baseline, both, "both train kinds");
    ASSERT_EQ(both.read_lat.size(), 24u);
    ASSERT_EQ(both.write_lat.size(), 24u);
    EXPECT_EQ(both.frames_flooded, 24u);
    EXPECT_LT(both.events, baseline.events / 2)
        << "train paths did not engage";
    // Frame trains must add savings beyond what memory trains provide.
    EXPECT_LT(both.events, mem_only.events)
        << "frame-train path added no event savings";
}

TEST(FrameTrain, LeafSpineFloodsBitIdentical)
{
    // MTU frames flood across the spine beside reads, writes and RMWs
    // onto the last node, on 2-lane leaf-spines whose last leaf may be
    // ragged. Every combination of the two train caps must reproduce
    // the fully per-block engine. On 8 hosts with 4 per leaf, memory
    // trains once moved two reads by a slot: a /G/ tied a cut-through
    // block's stamp on an egress mux and left in whichever order the
    // two enqueues happened to run.
    struct Shape
    {
        std::size_t nodes;
        std::size_t hosts_per_leaf;
    };
    for (const Shape shape :
         {Shape{6, 2}, Shape{8, 4}, Shape{9, 3}, Shape{10, 4}}) {
        const std::size_t nodes = shape.nodes;
        auto scenario = [nodes](Simulation &, CycleFabric &fab) {
            const auto server = static_cast<NodeId>(nodes - 1);
            const auto client = [server](int i) {
                return static_cast<NodeId>(i % server);
            };
            for (int i = 0; i < 64; ++i)
                fab.host(server).store()->write64(
                    0x1000 + static_cast<std::uint64_t>(i) * 8,
                    static_cast<std::uint64_t>(i) * 3 + 1);
            mac::Frame f;
            f.payload.assign(1400, 0x7B);
            const auto frame = mac::serialize(f);
            for (int i = 0; i < 32; ++i) {
                fab.injectFrame(client(i), frame);
                fab.read(client(i), server,
                         0x1000 + static_cast<std::uint64_t>(i % 64) * 8,
                         900, {});
                fab.write(client(i + 3), server,
                          0x8000 + static_cast<std::uint64_t>(i) * 2048,
                          std::vector<std::uint8_t>(
                              2048, static_cast<std::uint8_t>(i)),
                          {});
                fab.rmw(client(i + 5), server, 0x1000,
                        mem::RmwOp::FetchAndAdd, 1, 0, {});
            }
        };
        const std::string shape_label = std::to_string(nodes) + " nodes, " +
            std::to_string(shape.hosts_per_leaf) + " hosts per leaf";
        const Outcome per_block = runScenario(
            config(nodes, 1, 1, shape.hosts_per_leaf), scenario);
        EXPECT_EQ(per_block.reads, 32u) << shape_label;
        EXPECT_EQ(per_block.writes, 32u) << shape_label;
        EXPECT_EQ(per_block.rmw_lat.size(), 32u) << shape_label;
        EXPECT_EQ(per_block.frames_flooded, 32u) << shape_label;
        for (const auto &[frame_cap, mem_cap] :
             {std::pair<std::size_t, std::size_t>{64, 1}, {1, 64},
              {64, 64}}) {
            const std::string label = shape_label + ", frame cap " +
                std::to_string(frame_cap) + ", memory cap " +
                std::to_string(mem_cap);
            const Outcome trains = runScenario(
                config(nodes, frame_cap, mem_cap, shape.hosts_per_leaf),
                scenario);
            expectIdentical(per_block, trains, label);
            // Memory trains alone save less on this frame-heavy load.
            EXPECT_LT(trains.events, frame_cap > 1
                          ? per_block.events * 2 / 3
                          : per_block.events * 3 / 4)
                << label << ": train path did not engage";
        }
    }
}

/** Closed-loop loads that keep MTU frames flooding to every port. */
enum class FrameLoad
{
    /** 2 KiB ops alternating read and write, an MTU frame every 4th. */
    MixedFrames,
    /** Two MTU frames per 64 B read: the line is frame-dominated. */
    FramesHeavy,
};

/**
 * One closed loop per client against the last node, which serves
 * memory: a client posts its next op when the previous one completes,
 * so every completion instant feeds back into the schedule while each
 * injected frame floods to all other ports.
 */
Outcome
runClosedLoop(const EdmConfig &cfg, FrameLoad load,
              std::uint64_t ops_per_node)
{
    const auto mem = static_cast<NodeId>(cfg.num_nodes - 1);
    mac::Frame f;
    f.payload.assign(1400, 0x7B);
    const auto mtu = mac::serialize(f);
    std::vector<std::uint64_t> remaining(mem, ops_per_node);
    // Declared out here so it outlives sim.run() inside runScenario;
    // completion callbacks refer to it and never own a copy.
    std::function<void(NodeId)> issue;
    return runScenario(cfg, [&](Simulation &, CycleFabric &fab) {
        fab.host(mem).store()->write(
            0x10000, std::vector<std::uint8_t>(2048, 0x5A));
        issue = [&](NodeId n) {
            if (remaining[n] == 0)
                return;
            const std::uint64_t left = --remaining[n];
            auto on_read = [&issue, n](std::vector<std::uint8_t>,
                                       Picoseconds, bool) { issue(n); };
            if (load == FrameLoad::FramesHeavy) {
                fab.injectFrame(n, mtu);
                fab.injectFrame(n, mtu);
                fab.read(n, mem, 0x10000, 64, on_read);
                return;
            }
            if (left & 1)
                fab.write(n, mem,
                          0x20000 + static_cast<std::uint64_t>(n) * 0x10000,
                          std::vector<std::uint8_t>(
                              2048, static_cast<std::uint8_t>(n)),
                          [&issue, n](Picoseconds) { issue(n); });
            else
                fab.read(n, mem, 0x10000, 2048, on_read);
            if (left % 4 == 0)
                fab.injectFrame(n, mtu);
        };
        for (NodeId n = 0; n < mem; ++n)
            issue(n);
    });
}

TEST(FrameTrain, ClosedLoopFrameFloodsBitIdentical)
{
    // Seven clients and one memory node under closed-loop feedback,
    // with MTU frames flooding to every port: memory trains, frame
    // trains and both together must each reproduce the fully per-block
    // engine.
    constexpr std::size_t kNodes = 8;
    const struct
    {
        FrameLoad load;
        const char *name;
        std::uint64_t ops;
        std::uint64_t frames_per_node;
    } loads[] = {{FrameLoad::MixedFrames, "mixed+frames", 8, 2},
                 {FrameLoad::FramesHeavy, "frames-heavy", 4, 8}};
    for (const auto &l : loads) {
        const Outcome baseline =
            runClosedLoop(config(kNodes, 1, 1), l.load, l.ops);
        const Outcome mem_only =
            runClosedLoop(config(kNodes, 1, 64), l.load, l.ops);
        const Outcome frames_only =
            runClosedLoop(config(kNodes, 64, 1), l.load, l.ops);
        const Outcome both =
            runClosedLoop(config(kNodes, 64, 64), l.load, l.ops);
        const std::string name = l.name;
        expectIdentical(baseline, mem_only, name + ": memory trains only");
        expectIdentical(baseline, frames_only,
                        name + ": frame trains only");
        expectIdentical(baseline, both, name + ": both train kinds");
        EXPECT_EQ(both.reads + both.writes, (kNodes - 1) * l.ops) << name;
        EXPECT_EQ(both.frames_flooded, (kNodes - 1) * l.frames_per_node)
            << name;
        EXPECT_EQ(both.frames_received,
                  (kNodes - 1) * l.frames_per_node * (kNodes - 1))
            << name;
        EXPECT_LT(both.events, baseline.events / 2)
            << name << ": train paths did not engage";
    }
}

TEST(FrameTrain, MidStreamFaultInjectionBitIdentical)
{
    // Corrupt the frame sender's uplink at a sweep of instants — many
    // landing inside an in-flight frame train, forcing the abort path
    // to pull not-yet-emitted frame blocks back into the staging
    // buffer. Which blocks got corrupted, when the link trips, and
    // every flood/receive count must match per-block emission exactly.
    for (int step = 0; step < 8; ++step) {
        const Picoseconds corrupt_at = 40 * kNanosecond +
            step * (kPcsBlockSlot * 5 + 230); // deliberately unaligned
        auto scenario = [corrupt_at](Simulation &sim, CycleFabric &fab) {
            fab.host(1).store()->write(
                0x1000, std::vector<std::uint8_t>(256, 0x5A));
            mac::Frame f;
            f.payload.assign(1400, 0x7B);
            const auto frame = mac::serialize(f);
            for (int i = 0; i < 6; ++i)
                fab.injectFrame(0, frame);
            fab.read(0, 1, 0x1000, 256, {});
            sim.events().schedule(corrupt_at, [&fab] {
                fab.corruptUplink(0, 20); // trips the damage threshold
            });
        };
        const Outcome per_block = runScenario(config(2, 1), scenario);
        const Outcome trains = runScenario(config(2, 64), scenario);
        expectIdentical(per_block, trains,
                        "corrupt_at step " + std::to_string(step));
        EXPECT_GT(trains.link_errors, 0u) << "fault never engaged";
    }
}

TEST(FrameTrain, FrameAfterALostMemoryTerminateBitIdentical)
{
    // The corrupted block is a write's /MT/: the host mux has finished
    // the message, so the next frame forms a frame train, but the switch
    // ingress still classifies data as the write's stream. The train
    // must reach the port as per-block emission would (this once
    // panicked with "frame train inside a memory stream").
    auto scenario = [](Simulation &sim, CycleFabric &fab) {
        fab.write(0, 2, 0x8000, std::vector<std::uint8_t>(256, 0x5A), {});
        mac::Frame f;
        f.payload.assign(1400, 0x7B);
        sim.events().schedule(200 * kNanosecond,
                              [&fab, frame = mac::serialize(f)] {
                                  fab.injectFrame(0, frame);
                              });
        sim.events().schedule(253440, [&fab] { fab.corruptUplink(0, 1); });
    };
    const Outcome per_block = runScenario(config(3, 1, 1), scenario);
    EXPECT_EQ(per_block.link_errors, 1u);
    EXPECT_EQ(per_block.writes, 0u) << "the /MT/ was not the lost block";
    for (const auto &[frame_cap, mem_cap] :
         {std::pair<std::size_t, std::size_t>{64, 1}, {1, 64}, {64, 64}}) {
        const Outcome trains =
            runScenario(config(3, frame_cap, mem_cap), scenario);
        expectIdentical(per_block, trains,
                        "frame cap " + std::to_string(frame_cap) +
                            ", memory cap " + std::to_string(mem_cap));
    }
}

TEST(FrameTrain, FrameTrainCapRespectsConfig)
{
    // max_frame_train_blocks = 1 must behave exactly like the
    // pre-frame-train engine, and intermediate caps must land between
    // the two on event count while keeping identical outputs.
    auto scenario = [](Simulation &, CycleFabric &fab) {
        mac::Frame f;
        f.payload.assign(8900, 0xEE);
        const auto frame = mac::serialize(f);
        for (int i = 0; i < 4; ++i)
            fab.injectFrame(0, frame);
    };
    const Outcome cap1 = runScenario(config(2, 1), scenario);
    const Outcome cap4 = runScenario(config(2, 4), scenario);
    const Outcome cap64 = runScenario(config(2, 64), scenario);
    expectIdentical(cap1, cap4, "cap 4");
    expectIdentical(cap1, cap64, "cap 64");
    EXPECT_EQ(cap64.frames_received, 4u);
    EXPECT_LT(cap4.events, cap1.events);
    EXPECT_LT(cap64.events, cap4.events);
}

TEST(FrameTrain, HostFrameHandlerSeesIdenticalFrames)
{
    // The delivered frame *contents* (not just counts) must survive the
    // train path: reassemble at the receiving hosts under memory
    // interference and compare the raw block sequences.
    auto run = [](std::size_t max_frame_train) {
        Simulation sim;
        CycleFabric fab(config(3, max_frame_train), sim, {2});
        std::vector<std::vector<phy::PhyBlock>> frames[3];
        for (NodeId n = 0; n < 3; ++n) {
            fab.host(n).setFrameHandler(
                [&frames, n](std::vector<phy::PhyBlock> blocks) {
                    frames[n].push_back(std::move(blocks));
                });
        }
        fab.host(2).store()->write(0x1000,
                                   std::vector<std::uint8_t>(512, 0x42));
        mac::Frame f;
        f.payload.assign(2000, 0x33);
        const auto frame = mac::serialize(f);
        for (int i = 0; i < 6; ++i) {
            fab.injectFrame(static_cast<NodeId>(i % 2), frame);
            fab.read(static_cast<NodeId>(i % 2), 2, 0x1000, 512, {});
        }
        sim.run();
        std::vector<std::vector<phy::PhyBlock>> all;
        for (auto &per_host : frames)
            for (auto &blocks : per_host)
                all.push_back(std::move(blocks));
        return all;
    };
    const auto per_block = run(1);
    const auto trains = run(64);
    ASSERT_EQ(per_block.size(), trains.size());
    ASSERT_GT(per_block.size(), 0u);
    for (std::size_t i = 0; i < per_block.size(); ++i)
        EXPECT_EQ(per_block[i], trains[i]) << "frame " << i;
}

} // namespace
} // namespace core
} // namespace edm
