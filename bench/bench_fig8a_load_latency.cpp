/**
 * @file
 * Reproduces **Figure 8a**: normalized average latency of random 64 B
 * remote reads and writes on a 144-node, 100 Gbps cluster as network
 * load varies (0.2–0.9), for all seven fabrics, plus the mixed
 * write:read sweep at load 0.8.
 *
 * Each fabric is normalized by its *own* unloaded latency (the paper's
 * methodology). Expected shape: EDM stays within ~1.3–1.4× at 0.9; IRD
 * tracks EDM at low load but degrades from decentralized conflicts;
 * pFabric/PFC/DCTCP/CXL land near 1.5–2.2×; Fastpass is an order of
 * magnitude off due to its control-channel bottleneck.
 *
 * Also includes the DESIGN.md ablations: grant chunk size and the
 * per-pair notification cap X (paper: X = 3 works best).
 *
 * Every sweep section dispatches its points through runFlowPoints
 * (src/sim/scenario_exec.hpp), so the figure's 100+ simulations use all
 * cores; per-point seeds are fixed, so the numbers match a serial run
 * exactly. EDM_BENCH_SCALE (e.g. 0.2) shrinks every point's message
 * count for quick runs.
 */

#include <cstdio>
#include <utility>
#include <vector>

#include "sim/scenario_exec.hpp"

using namespace edm;

namespace {

constexpr std::uint64_t kMessages = 50000;

void
loadSweep(bool writes, double scale)
{
    std::printf("--- random 64 B %s, normalized avg latency vs load ---\n",
                writes ? "writes (WREQ)" : "reads (RREQ->RRES)");
    std::printf("  %-5s", "load");
    for (auto f : kFlowFabrics)
        std::printf(" %9s", flowFabricName(f));
    std::printf("\n");

    const std::vector<double> loads = {0.2, 0.4, 0.6, 0.8, 0.9};
    std::vector<FlowPoint> points;
    for (double load : loads)
        for (auto f : kFlowFabrics) {
            FlowPoint p;
            p.fabric = f;
            p.load = load;
            p.write_fraction = writes ? 1.0 : 0.0;
            p.messages = kMessages;
            points.push_back(p);
        }
    const auto results = runFlowPoints(points, scale);

    std::size_t i = 0;
    for (double load : loads) {
        std::printf("  %-5.1f", load);
        for (auto f : kFlowFabrics) {
            (void)f;
            std::printf(" %9.3f", results[i++].norm_mean);
        }
        std::printf("\n");
    }
    std::printf("\n");
}

void
mixSweep(double scale)
{
    std::printf("--- mixed write:read at load 0.8, normalized avg latency"
                " ---\n");
    std::printf("  %-7s", "W:R");
    for (auto f : kFlowFabrics)
        std::printf(" %9s", flowFabricName(f));
    std::printf("\n");
    const std::pair<int, int> mixes[] = {
        {100, 0}, {80, 20}, {50, 50}, {20, 80}, {0, 100}};

    std::vector<FlowPoint> points;
    for (const auto &[w, r] : mixes) {
        (void)r;
        for (auto f : kFlowFabrics) {
            FlowPoint p;
            p.fabric = f;
            p.load = 0.8;
            p.write_fraction = w / 100.0;
            p.messages = kMessages;
            points.push_back(p);
        }
    }
    const auto results = runFlowPoints(points, scale);

    std::size_t i = 0;
    for (const auto &[w, r] : mixes) {
        std::printf("  %3d:%-3d", w, r);
        for (auto f : kFlowFabrics) {
            (void)f;
            std::printf(" %9.3f", results[i++].norm_mean);
        }
        std::printf("\n");
    }
    std::printf("\n");
}

void
ablations(double scale)
{
    std::printf("--- EDM ablations at load 0.8 (writes) ---\n");
    // Chunking only engages on multi-chunk messages, so the sweep uses a
    // heavy-tailed size mix rather than fixed 64 B.
    const Cdf mixed_sizes{{64, 0.5}, {1024, 0.8}, {65536, 1.0}};
    const std::vector<Bytes> chunks = {64, 128, 256, 512, 1024, 4096};
    const std::vector<int> xs = {1, 2, 3, 6, 12};

    std::vector<FlowPoint> points;
    for (Bytes chunk : chunks) {
        FlowPoint p;
        p.load = 0.8;
        p.messages = kMessages;
        p.size_cdf = mixed_sizes;
        p.edm.chunk_bytes = chunk;
        points.push_back(p);
    }
    for (int x : xs) {
        FlowPoint p;
        p.load = 0.8;
        p.messages = kMessages;
        p.edm.max_notifications = x;
        points.push_back(p);
    }
    const auto results = runFlowPoints(points, scale);

    std::size_t i = 0;
    std::printf("  chunk size sweep (paper setup: 256 B; heavy-tailed "
                "sizes):\n");
    for (Bytes chunk : chunks)
        std::printf("    chunk %5llu B: %.3f\n",
                    static_cast<unsigned long long>(chunk),
                    results[i++].norm_mean);
    std::printf("  per-pair notification cap X (paper: X = 3 works"
                " best):\n");
    for (int x : xs)
        std::printf("    X = %2d: %.3f\n", x, results[i++].norm_mean);
    std::printf("\n");
}

} // namespace

int
main()
{
    std::printf("=== Figure 8a: 144 nodes, 100 Gbps, random 64 B "
                "messages (normalized by each fabric's unloaded latency)"
                " ===\n");
    std::printf("(paper at load 0.9: EDM ~1.2-1.4, IRD ~1.4-1.6, "
                "pFabric/PFC/DCTCP/CXL ~1.5-2.1, Fastpass 25-38)\n\n");
    const double scale = benchScaleEnv(1.0);
    loadSweep(false, scale); // reads
    loadSweep(true, scale);  // writes
    mixSweep(scale);
    ablations(scale);
    return 0;
}
