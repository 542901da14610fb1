/**
 * @file
 * Reproduces **Figure 8b**: average message completion time (MCT),
 * normalized by the ideal (alone-in-the-network) completion time, for
 * traces modelled after five disaggregated applications — Hadoop sort,
 * Spark sort, Spark SQL, GraphLab filtering and Memcached — across all
 * seven fabrics at load 0.8 with a 50/50 read/write mix.
 *
 * Expected shape: EDM within ~1.2–1.4× ideal and the best of the seven;
 * IRD and pFabric close behind (SRPT helps heavy tails); PFC/DCTCP/CXL
 * several times worse (FIFO + pause/credit head-of-line blocking);
 * Fastpass the worst. Includes the SRPT-vs-FCFS priority ablation.
 *
 * All (trace, fabric) points execute in parallel via runFlowPoints
 * (src/sim/scenario_exec.hpp); per-point seeds are fixed, so numbers
 * match a serial run exactly. EDM_BENCH_SCALE (e.g. 0.2) shrinks every
 * point's message count for quick runs.
 */

#include <cstdio>
#include <vector>

#include "sim/scenario_exec.hpp"
#include "workload/traces.hpp"

using namespace edm;

namespace {

constexpr std::uint64_t kMessages = 40000;
constexpr double kLoad = 0.8;

} // namespace

int
main()
{
    std::printf("=== Figure 8b: normalized avg MCT on disaggregated "
                "application traces (load %.1f, 50/50 R/W) ===\n",
                kLoad);
    std::printf("(paper: EDM 1.2-1.4x ideal; CXL up to 8x worse than "
                "EDM; Fastpass worst)\n\n");
    const double scale = benchScaleEnv(1.0);

    // Main grid: every (trace, fabric) point, trace-major.
    std::vector<FlowPoint> points;
    for (auto trace : workload::allTraces()) {
        const Cdf cdf = workload::traceSizeCdf(trace);
        for (auto f : kFlowFabrics) {
            FlowPoint p;
            p.fabric = f;
            p.load = kLoad;
            p.write_fraction = 0.5;
            p.messages = kMessages;
            p.size_cdf = cdf;
            points.push_back(p);
        }
    }
    const auto results = runFlowPoints(points, scale);

    std::printf("  %-22s", "trace");
    for (auto f : kFlowFabrics)
        std::printf(" %9s", flowFabricName(f));
    std::printf("\n");
    std::size_t i = 0;
    for (auto trace : workload::allTraces()) {
        std::printf("  %-22s", workload::traceName(trace).c_str());
        for (auto f : kFlowFabrics) {
            (void)f;
            std::printf(" %9.3f", results[i++].norm_mean);
        }
        std::printf("\n");
    }

    // The paper also reports 99th-percentile MCT (its PCT99 panel).
    std::printf("\n--- normalized p99 MCT ---\n");
    std::printf("  %-22s", "trace");
    for (auto f : kFlowFabrics)
        std::printf(" %9s", flowFabricName(f));
    std::printf("\n");
    i = 0;
    for (auto trace : workload::allTraces()) {
        std::printf("  %-22s", workload::traceName(trace).c_str());
        for (auto f : kFlowFabrics) {
            (void)f;
            std::printf(" %9.1f", results[i++].norm_p99);
        }
        std::printf("\n");
    }

    std::printf("\n--- EDM priority-policy ablation (heavy-tailed traces"
                " are where SRPT matters) ---\n");
    std::vector<FlowPoint> abl;
    for (auto trace : workload::allTraces()) {
        for (auto prio : {core::Priority::Srpt, core::Priority::Fcfs}) {
            FlowPoint p;
            p.load = kLoad;
            p.write_fraction = 0.5;
            p.messages = kMessages;
            p.size_cdf = workload::traceSizeCdf(trace);
            p.edm.priority = prio;
            abl.push_back(p);
        }
    }
    const auto abl_results = runFlowPoints(abl, scale);

    std::printf("  %-22s %9s %9s\n", "trace", "SRPT", "FCFS");
    i = 0;
    for (auto trace : workload::allTraces()) {
        const double srpt = abl_results[i++].norm_mean;
        const double fcfs = abl_results[i++].norm_mean;
        std::printf("  %-22s %9.3f %9.3f\n",
                    workload::traceName(trace).c_str(), srpt, fcfs);
    }
    return 0;
}
