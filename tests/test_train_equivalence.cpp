/**
 * @file
 * Seeded differential test of train equivalence. A generator draws
 * fabric shapes (a single switch, or leaf-spines of 2-4 hosts per leaf
 * with 1-3 trunk lanes) with two memory nodes, and a workload of L2
 * frames, reads, writes and FetchAndAdds posted at random instants,
 * many of them on the 66-bit block-slot grid so that same-instant ties
 * are common; about a third of the shapes also corrupt a burst of
 * blocks on one uplink. Every combination of the memory- and frame-
 * train caps (1 or 64) must reproduce the fully per-block engine's
 * read, write and RMW latency vectors and end time.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "core/fabric.hpp"
#include "mac/frame.hpp"

namespace edm {
namespace core {
namespace {

struct Op
{
    enum class Kind
    {
        Frame,
        Read,
        Write,
        Rmw,
        Corrupt,
    };

    Kind kind = Kind::Read;
    Picoseconds at = 0;
    NodeId src = 0;
    NodeId dst = 0;
    std::uint64_t addr = 0;
    Bytes len = 0; ///< read/write bytes; corrupted blocks for Corrupt
};

/** One generated shape and its workload. */
struct Plan
{
    std::size_t nodes = 0;
    std::size_t hosts_per_leaf = 0; ///< 0 = single switch
    std::size_t trunk_width = 1;
    std::vector<NodeId> memory;
    std::vector<Op> ops;

    std::string
    describe() const
    {
        std::string s = std::to_string(nodes) + " nodes";
        if (hosts_per_leaf > 0)
            s += ", " + std::to_string(hosts_per_leaf) + " per leaf, " +
                std::to_string(trunk_width) + " trunk lanes";
        return s + ", " + std::to_string(ops.size()) + " ops";
    }
};

Plan
generate(std::uint64_t seed)
{
    Rng rng(seed);
    Plan p;
    if (rng.chance(1.0 / 3.0)) {
        p.nodes = static_cast<std::size_t>(rng.uniformInt(3, 8));
    } else {
        p.hosts_per_leaf = static_cast<std::size_t>(rng.uniformInt(2, 4));
        p.trunk_width = static_cast<std::size_t>(rng.uniformInt(1, 3));
        const auto leaves = static_cast<std::size_t>(rng.uniformInt(2, 3));
        // The last leaf may be ragged, but never empty.
        p.nodes = leaves * p.hosts_per_leaf -
            static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(
                                      p.hosts_per_leaf - 1)));
    }
    const auto pick = [&rng, &p] {
        return static_cast<NodeId>(rng.uniformInt(p.nodes));
    };
    const NodeId m0 = pick();
    NodeId m1 = pick();
    while (m1 == m0)
        m1 = pick();
    p.memory = {m0, m1};

    // Instants within ~4 us; two in three on the block-slot grid.
    const auto instant = [&rng] {
        Picoseconds t = kPcsBlockSlot *
            static_cast<Picoseconds>(rng.uniformInt(0, 1600));
        if (rng.chance(1.0 / 3.0))
            t += static_cast<Picoseconds>(rng.uniformInt(kPcsBlockSlot));
        return t;
    };
    const auto count = static_cast<std::size_t>(rng.uniformInt(32, 64));
    for (std::size_t i = 0; i < count; ++i) {
        Op op;
        op.at = instant();
        const double roll = rng.uniform();
        op.kind = roll < 0.25 ? Op::Kind::Frame
            : roll < 0.55     ? Op::Kind::Read
            : roll < 0.85     ? Op::Kind::Write
                              : Op::Kind::Rmw;
        op.dst = p.memory[rng.uniformInt(2)];
        op.src = pick();
        while (op.src == op.dst)
            op.src = pick();
        op.len = static_cast<Bytes>(rng.uniformInt(8, 3072));
        op.addr = op.kind == Op::Kind::Write
            ? 0x10000 + static_cast<std::uint64_t>(i) * 0x1000
            : 8 * rng.uniformInt(64);
        p.ops.push_back(op);
    }
    if (rng.chance(1.0 / 3.0)) {
        Op op;
        op.kind = Op::Kind::Corrupt;
        op.at = instant();
        op.src = pick();
        op.len = static_cast<Bytes>(rng.uniformInt(1, 4));
        p.ops.push_back(op);
    }
    return p;
}

/** What must not depend on the train caps. */
struct Outcome
{
    std::vector<double> read_lat;
    std::vector<double> write_lat;
    std::vector<double> rmw_lat;
    Picoseconds end_time = 0;
};

Outcome
run(const Plan &p, std::size_t mem_cap, std::size_t frame_cap)
{
    EdmConfig cfg;
    cfg.num_nodes = p.nodes;
    cfg.link_rate = Gbps{25.0};
    cfg.max_train_blocks = mem_cap;
    cfg.max_frame_train_blocks = frame_cap;
    if (p.hosts_per_leaf > 0) {
        cfg.topology.tiers = TopologySpec::Tiers::LeafSpine;
        cfg.topology.hosts_per_leaf = p.hosts_per_leaf;
        cfg.topology.trunk_width = p.trunk_width;
    }
    Simulation sim;
    CycleFabric fab(cfg, sim, p.memory);
    for (const NodeId m : p.memory)
        fab.host(m).store()->write(0, std::vector<std::uint8_t>(4096, 0x3C));
    mac::Frame f;
    f.payload.assign(1400, 0x7B);
    const auto frame = mac::serialize(f);
    for (const Op &op : p.ops) {
        sim.events().schedule(op.at, [&fab, &frame, op] {
            switch (op.kind) {
              case Op::Kind::Frame:
                fab.injectFrame(op.src, frame);
                break;
              case Op::Kind::Read:
                fab.read(op.src, op.dst, op.addr, op.len, {});
                break;
              case Op::Kind::Write:
                fab.write(op.src, op.dst, op.addr,
                          std::vector<std::uint8_t>(
                              op.len, static_cast<std::uint8_t>(op.src)),
                          {});
                break;
              case Op::Kind::Rmw:
                fab.rmw(op.src, op.dst, op.addr, mem::RmwOp::FetchAndAdd, 1,
                        0, {});
                break;
              case Op::Kind::Corrupt:
                fab.corruptUplink(op.src, static_cast<int>(op.len));
                break;
            }
        });
    }
    sim.run();
    return Outcome{fab.readLatency().raw(), fab.writeLatency().raw(),
                   fab.rmwLatency().raw(), sim.now()};
}

TEST(TrainEquivalence, GeneratedShapesMatchPerBlockAtEveryCap)
{
    constexpr std::uint64_t kShapes = 64;
    std::size_t ops = 0;
    std::size_t completed = 0;
    for (std::uint64_t seed = 1; seed <= kShapes; ++seed) {
        const Plan plan = generate(seed);
        const Outcome per_block = run(plan, 1, 1);
        ops += plan.ops.size();
        completed += per_block.read_lat.size() + per_block.write_lat.size() +
            per_block.rmw_lat.size();
        for (const auto &[mem_cap, frame_cap] :
             {std::pair<std::size_t, std::size_t>{64, 1}, {1, 64},
              {64, 64}}) {
            const Outcome trains = run(plan, mem_cap, frame_cap);
            const std::string label = "seed " + std::to_string(seed) + " (" +
                plan.describe() + "), memory cap " +
                std::to_string(mem_cap) + ", frame cap " +
                std::to_string(frame_cap);
            EXPECT_EQ(per_block.read_lat, trains.read_lat) << label;
            EXPECT_EQ(per_block.write_lat, trains.write_lat) << label;
            EXPECT_EQ(per_block.rmw_lat, trains.rmw_lat) << label;
            EXPECT_EQ(per_block.end_time, trains.end_time) << label;
        }
    }
    // The workloads must actually run: most memory ops complete.
    EXPECT_GT(completed, ops / 2);
}

} // namespace
} // namespace core
} // namespace edm
