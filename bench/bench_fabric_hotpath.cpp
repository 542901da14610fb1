/**
 * @file
 * Fabric hot-path microbenchmark: end-to-end blocks/second through the
 * cycle-level fabric across three engine generations:
 *
 *   pr1  one event per block per hop, heap-only event queue
 *   pr2  memory block trains + timing-wheel queue (frames per-block)
 *   pr3  payload-agnostic trains: frame bursts train too, and the
 *        egress path runs on pooled allocation-free storage
 *
 * Four closed-loop workloads on an 8-node fabric (7 compute + 1
 * memory): bulk 2 KB reads, streaming 2 KB writes, a mixed read/write
 * load with MTU-frame interference, and a frames-heavy load where L2
 * floods dominate the line. Every configuration produces bit-identical
 * simulations — test_block_train / test_frame_train prove it, the
 * cross-check here re-asserts it each run — so the blocks/sec ratios
 * are pure simulator speedup.
 *
 * The chunk-sweep section measures the PR 5 follow-up — grant chunk
 * size under wire-charged occupancy (scenarios/chunk_sweep_wire.edm
 * carries the declarative form, kGoldenChunkSweepWire the baseline).
 *
 * The fair-share section measures the PR 10 multi-tenant arbitration —
 * the tenant_isolation pool layout on a 17-node incast with the
 * hierarchical pool tree off vs on, so the blocks/sec ratio is the
 * whole per-grant cost of isolation (docs/FAIR_SHARE.md).
 *
 * Run:   ./build/bench_fabric_hotpath [ops-per-node] [--json <path>]
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/fabric.hpp"
#include "mac/frame.hpp"

namespace {

using namespace edm;
using namespace edm::core;

constexpr std::size_t kNodes = 8;
constexpr Bytes kOpBytes = 2048;

struct RunStats
{
    double wall_s = 0;
    std::uint64_t blocks = 0; ///< mem + frame blocks handled (all hops)
    std::uint64_t events = 0;
    std::uint64_t completions = 0;
    std::uint64_t frames = 0;
    edm::Picoseconds end_time = 0;
    double read_p99_ns = 0; ///< chunk-sweep rows only
};

enum class Load
{
    BulkRead,
    WriteStream,
    MixedFrames,
    FramesHeavy,
    /**
     * Grants overtake their forwarded requests through the contested
     * egress, so the row doubles as a ledger hot-path measurement. Its
     * "incast-strict" name predates the ledger being the only
     * accounting and stays for BENCH_fabric_hotpath.json continuity.
     */
    Incast,
};

const char *
loadName(Load l)
{
    switch (l) {
      case Load::BulkRead: return "bulk-read";
      case Load::WriteStream: return "write-stream";
      case Load::MixedFrames: return "mixed+frames";
      case Load::FramesHeavy: return "frames-heavy";
      case Load::Incast: return "incast-strict";
    }
    return "?";
}

/** One engine generation = (memory trains, frame trains, wheel). */
struct Engine
{
    const char *name;
    std::size_t max_train;
    std::size_t max_frame_train;
    bool wheel;
};

constexpr Engine kEngines[] = {
    {"pr1-baseline", 1, 1, false},
    {"pr2-trains+wheel", 64, 1, true},
    {"pr3-frame-trains", 64, 64, true},
};

RunStats
run(Load load, const Engine &eng, std::uint64_t ops_per_node)
{
    Simulation sim;
    if (!eng.wheel)
        sim.events().disableWheelForBenchmarking();
    EdmConfig cfg;
    cfg.num_nodes = kNodes;
    cfg.link_rate = Gbps{25.0};
    cfg.max_train_blocks = eng.max_train;
    cfg.max_frame_train_blocks = eng.max_frame_train;
    const NodeId mem = kNodes - 1;
    CycleFabric fab(cfg, sim, {mem});
    fab.host(mem).store()->write(0x10000,
                                 std::vector<std::uint8_t>(kOpBytes, 0x5A));

    mac::Frame mtu;
    mtu.payload.assign(1400, 0x7B);
    const auto mtu_bytes = mac::serialize(mtu);

    RunStats rs;
    // One closed loop per compute node: the next op posts when the
    // previous completes, keeping every uplink saturated.
    std::vector<std::uint64_t> remaining(kNodes - 1, ops_per_node);
    std::function<void(NodeId)> issue = [&](NodeId n) {
        if (remaining[n] == 0)
            return;
        --remaining[n];
        if (load == Load::FramesHeavy) {
            // Two MTU frames per 64 B read: the line is frame-dominated
            // (flooding multiplies every frame by the other 7 ports)
            // while the read keeps a closed completion loop alive.
            fab.injectFrame(n, mtu_bytes);
            fab.injectFrame(n, mtu_bytes);
            fab.read(n, mem, 0x10000, 64,
                     [&issue, n](std::vector<std::uint8_t>, Picoseconds,
                                 bool) { issue(n); });
            return;
        }
        if (load == Load::Incast) {
            // Short mixed ops maximize grant churn per byte: 7 senders'
            // RREQ forwards fight write data for the memory node's
            // downlink, so /G/s routinely outrun their requests.
            if ((remaining[n] % 3) == 0) {
                fab.write(n, mem,
                          0x20000 +
                              static_cast<std::uint64_t>(n) * 0x10000,
                          std::vector<std::uint8_t>(
                              700, static_cast<std::uint8_t>(n)),
                          [&issue, n](Picoseconds) { issue(n); });
            } else {
                fab.read(n, mem, 0x10000, 900,
                         [&issue, n](std::vector<std::uint8_t>,
                                     Picoseconds, bool) { issue(n); });
            }
            return;
        }
        const bool write_op = load == Load::WriteStream ||
            (load == Load::MixedFrames && (remaining[n] & 1));
        if (write_op) {
            fab.write(n, mem,
                      0x20000 + static_cast<std::uint64_t>(n) * 0x10000,
                      std::vector<std::uint8_t>(kOpBytes,
                                                static_cast<std::uint8_t>(n)),
                      [&issue, n](Picoseconds) { issue(n); });
        } else {
            fab.read(n, mem, 0x10000, kOpBytes,
                     [&issue, n](std::vector<std::uint8_t>, Picoseconds,
                                 bool) { issue(n); });
        }
        if (load == Load::MixedFrames && (remaining[n] % 4) == 0)
            fab.injectFrame(n, mtu_bytes);
    };

    const auto t0 = std::chrono::steady_clock::now();
    for (NodeId n = 0; n < kNodes - 1; ++n)
        issue(n);
    sim.run();
    rs.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    for (NodeId n = 0; n < kNodes; ++n) {
        const auto &st = fab.host(n).stats();
        rs.blocks += st.mem_blocks_sent + st.mem_blocks_received;
        rs.completions += st.reads_completed + st.writes_completed;
        rs.frames += st.frames_received;
        // Frame blocks cross the line too: count emitted frame slots on
        // both hops (uplink host mux + downlink egress mux).
        rs.blocks += fab.host(n).mux().frameSlots();
        rs.blocks += fab.switchStack().egressMux(n).frameSlots();
    }
    rs.events = sim.events().executed();
    rs.end_time = sim.now();
    return rs;
}

/**
 * Grant-chunk size under wire-charged occupancy (the PR 5 follow-up):
 * the 7-to-1 incast regime where the chunk size decides how coarsely
 * the scheduler meters the contested memory downlink.
 */
RunStats
runChunkSweep(Bytes chunk, std::uint64_t ops_per_node)
{
    Simulation sim;
    EdmConfig cfg;
    cfg.num_nodes = kNodes;
    cfg.link_rate = Gbps{25.0};
    cfg.wire_charged_occupancy = true;
    cfg.chunk_bytes = chunk;
    const NodeId mem = kNodes - 1;
    CycleFabric fab(cfg, sim, {mem});
    fab.host(mem).store()->write(0x10000,
                                 std::vector<std::uint8_t>(1024, 0x5A));

    RunStats rs;
    std::vector<std::uint64_t> remaining(kNodes - 1, ops_per_node);
    std::function<void(NodeId)> issue = [&](NodeId n) {
        if (remaining[n] == 0)
            return;
        --remaining[n];
        if ((remaining[n] % 3) == 0) {
            fab.write(n, mem,
                      0x20000 + static_cast<std::uint64_t>(n) * 0x10000,
                      std::vector<std::uint8_t>(
                          700, static_cast<std::uint8_t>(n)),
                      [&issue, n](Picoseconds) { issue(n); });
        } else {
            fab.read(n, mem, 0x10000, 900,
                     [&issue, n](std::vector<std::uint8_t>, Picoseconds,
                                 bool) { issue(n); });
        }
    };

    const auto t0 = std::chrono::steady_clock::now();
    for (NodeId n = 0; n < kNodes - 1; ++n)
        issue(n);
    sim.run();
    rs.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    for (NodeId n = 0; n < kNodes; ++n) {
        const auto &st = fab.host(n).stats();
        rs.blocks += st.mem_blocks_sent + st.mem_blocks_received;
        rs.completions += st.reads_completed + st.writes_completed;
    }
    rs.events = sim.events().executed();
    rs.end_time = sim.now();
    const Samples &reads = fab.readLatency();
    rs.read_p99_ns = reads.count() ? reads.percentile(99) : 0.0;
    return rs;
}

/**
 * Fair-share arbitration overhead (PR 10): the tenant_isolation pool
 * layout (weighted bulk, rate-limited bulk, latency-sensitive) on a
 * 17-node incast, with the hierarchical pool tree off vs on. The off
 * row is the legacy FCFS hot path with the tenants parsed but unused;
 * the on row pays the vtime scan per grant, so the blocks/sec ratio is
 * the whole cost of multi-tenant isolation.
 */
RunStats
runFairShare(bool fair, std::uint64_t ops_per_node)
{
    constexpr std::size_t kFsNodes = 17;
    Simulation sim;
    EdmConfig cfg;
    cfg.num_nodes = kFsNodes;
    cfg.link_rate = Gbps{25.0};
    cfg.fair_share = fair;
    cfg.tenants.pools = {{"bulk0", 1, 6, 3.0, 0.0, 1.0, false},
                         {"bulk1", 7, 12, 1.0, 0.0, 0.4, false},
                         {"ls", 13, 16, 1.0, 0.2, 1.0, true}};
    CycleFabric fab(cfg, sim);
    fab.host(0).store()->write(0x10000,
                               std::vector<std::uint8_t>(1024, 0x5A));

    RunStats rs;
    std::vector<std::uint64_t> remaining(kFsNodes, ops_per_node);
    remaining[0] = 0;
    std::function<void(NodeId)> issue = [&](NodeId n) {
        if (remaining[n] == 0)
            return;
        --remaining[n];
        if ((remaining[n] % 3) == 0) {
            fab.write(n, 0,
                      0x20000 + static_cast<std::uint64_t>(n) * 0x10000,
                      std::vector<std::uint8_t>(
                          700, static_cast<std::uint8_t>(n)),
                      [&issue, n](Picoseconds) { issue(n); });
        } else {
            fab.read(n, 0, 0x10000, 900,
                     [&issue, n](std::vector<std::uint8_t>, Picoseconds,
                                 bool) { issue(n); });
        }
    };

    const auto t0 = std::chrono::steady_clock::now();
    for (NodeId n = 1; n < kFsNodes; ++n)
        issue(n);
    fab.run();
    rs.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    for (NodeId n = 0; n < kFsNodes; ++n) {
        const auto &st = fab.host(n).stats();
        rs.blocks += st.mem_blocks_sent + st.mem_blocks_received;
        rs.completions += st.reads_completed + st.writes_completed;
    }
    rs.events = fab.eventsExecuted();
    rs.end_time = fab.endTime();
    const Samples &reads = fab.readLatency();
    rs.read_p99_ns = reads.count() ? reads.percentile(99) : 0.0;
    return rs;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t ops = 300;
    if (argc > 1 && argv[1][0] != '-') {
        ops = std::strtoull(argv[1], nullptr, 10);
        if (ops == 0) {
            std::fprintf(stderr,
                         "usage: %s [ops-per-node>0] [--json <path>]\n",
                         argv[0]);
            return 2;
        }
    }
    ops = static_cast<std::uint64_t>(
        static_cast<double>(ops) * bench::benchScale());
    if (ops == 0)
        ops = 1;

    std::printf("=== fabric hot path: per-block events vs block trains, "
                "%zu nodes, %llu x %llu B ops/node ===\n\n",
                kNodes, static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(kOpBytes));

    bench::BenchJson json("fabric_hotpath",
                          bench::BenchJson::pathFromArgs(argc, argv));

    std::printf("  %-13s %12s %12s %12s %9s %9s %13s\n", "workload",
                "pr1 Mbl/s", "pr2 Mbl/s", "pr3 Mbl/s", "pr3/pr1",
                "pr3/pr2", "events saved");
    double geo_pr1 = 1, geo_pr2 = 1;
    int rows = 0;
    for (Load load : {Load::BulkRead, Load::WriteStream,
                      Load::MixedFrames, Load::FramesHeavy,
                      Load::Incast}) {
        // Frames-heavy runs fewer (much bigger) ops per node.
        const std::uint64_t row_ops =
            load == Load::FramesHeavy ? ops / 4 + 1 : ops;
        // Warm-up, then one measured run per engine generation. Same
        // seedless deterministic workload -> identical simulations.
        run(load, kEngines[2], row_ops / 4 + 1);
        RunStats r[3];
        for (int e = 0; e < 3; ++e)
            r[e] = run(load, kEngines[e], row_ops);
        for (int e = 1; e < 3; ++e) {
            if (r[0].blocks != r[e].blocks ||
                r[0].end_time != r[e].end_time ||
                r[0].frames != r[e].frames ||
                r[0].completions != r[e].completions ||
                r[0].completions == 0) {
                std::fprintf(
                    stderr,
                    "FATAL: %s diverged between %s and %s "
                    "(%llu vs %llu blocks)\n",
                    loadName(load), kEngines[0].name, kEngines[e].name,
                    static_cast<unsigned long long>(r[0].blocks),
                    static_cast<unsigned long long>(r[e].blocks));
                return 1;
            }
        }
        double rate[3];
        for (int e = 0; e < 3; ++e)
            rate[e] = static_cast<double>(r[e].blocks) / r[e].wall_s / 1e6;
        const double vs_pr1 = r[0].wall_s / r[2].wall_s;
        const double vs_pr2 = r[1].wall_s / r[2].wall_s;
        const double saved = 1.0 -
            static_cast<double>(r[2].events) /
                static_cast<double>(r[0].events);
        std::printf("  %-13s %12.2f %12.2f %12.2f %8.2fx %8.2fx %12.1f%%\n",
                    loadName(load), rate[0], rate[1], rate[2], vs_pr1,
                    vs_pr2, saved * 100.0);
        for (int e = 0; e < 3; ++e) {
            json.record(loadName(load), kEngines[e].name,
                        {{"blocks_per_sec", rate[e] * 1e6},
                         {"ns_per_block", 1e3 / rate[e]},
                         {"events", static_cast<double>(r[e].events)},
                         {"speedup_vs_pr1", r[0].wall_s / r[e].wall_s}});
        }
        geo_pr1 *= vs_pr1;
        geo_pr2 *= vs_pr2;
        ++rows;
    }
    std::printf("\n  geometric-mean speedup: %.2fx vs pr1, %.2fx vs pr2 "
                "(target >= 1.5x on mixed+frames vs pr2)\n",
                std::pow(geo_pr1, 1.0 / rows),
                std::pow(geo_pr2, 1.0 / rows));

    // ---- PR 5 follow-up: chunk size under wire-charged occupancy ----
    std::printf("\n=== chunk-bytes sweep, wire-charged occupancy, "
                "7-to-1 incast ===\n\n");
    std::printf("  %-12s %12s %12s %12s\n", "chunk", "Mblocks/s",
                "read p99 ns", "end us");
    for (Bytes chunk : {Bytes{128}, Bytes{256}, Bytes{512}, Bytes{1024}}) {
        const RunStats r = runChunkSweep(chunk, ops);
        std::printf("  %-12llu %12.2f %12.1f %12.1f\n",
                    static_cast<unsigned long long>(chunk),
                    static_cast<double>(r.blocks) / r.wall_s / 1e6,
                    r.read_p99_ns,
                    static_cast<double>(r.end_time) / 1e6);
        json.record("chunk-sweep-wire",
                    "chunk-" + std::to_string(chunk) + "B",
                    {{"blocks_per_sec",
                      static_cast<double>(r.blocks) / r.wall_s},
                     {"read_p99_ns", r.read_p99_ns},
                     {"end_time_us",
                      static_cast<double>(r.end_time) / 1e6},
                     {"events", static_cast<double>(r.events)}});
    }

    // ---- PR 10: multi-tenant fair-share arbitration -----------------
    std::printf("\n=== fair-share arbitration: 17-node tenanted incast, "
                "pool tree off vs on ===\n\n");
    std::printf("  %-16s %12s %12s %10s\n", "config", "Mblocks/s",
                "read p99 ns", "vs off");
    const RunStats fs_off = runFairShare(false, ops);
    std::printf("  %-16s %12.2f %12.1f %9s\n", "fairshare-off",
                static_cast<double>(fs_off.blocks) / fs_off.wall_s / 1e6,
                fs_off.read_p99_ns, "1.00x");
    json.record("fairshare-17node", "fairshare-off",
                {{"blocks_per_sec",
                  static_cast<double>(fs_off.blocks) / fs_off.wall_s},
                 {"read_p99_ns", fs_off.read_p99_ns},
                 {"events", static_cast<double>(fs_off.events)},
                 {"cost_vs_off", 1.0}});
    {
        const RunStats r = runFairShare(true, ops);
        // Isolation reshuffles the schedule but must not lose work.
        if (r.completions != fs_off.completions || r.completions == 0) {
            std::fprintf(stderr,
                         "FATAL: fairshare-on lost completions "
                         "(%llu vs %llu)\n",
                         static_cast<unsigned long long>(r.completions),
                         static_cast<unsigned long long>(
                             fs_off.completions));
            return 1;
        }
        const double cost = fs_off.wall_s / r.wall_s;
        std::printf("  %-16s %12.2f %12.1f %9.2fx\n", "fairshare-on",
                    static_cast<double>(r.blocks) / r.wall_s / 1e6,
                    r.read_p99_ns, cost);
        json.record("fairshare-17node", "fairshare-on",
                    {{"blocks_per_sec",
                      static_cast<double>(r.blocks) / r.wall_s},
                     {"read_p99_ns", r.read_p99_ns},
                     {"events", static_cast<double>(r.events)},
                     {"cost_vs_off", cost}});
    }
    return 0;
}
