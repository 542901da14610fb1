/**
 * @file
 * Reproduces **Figure 6**: YCSB requests-per-second throughput of EDM vs
 * RDMA (RoCEv2) for workloads A, B and F — the PHY-framing bandwidth
 * advantage (paper: EDM ≈ 2.7× RDMA on average).
 *
 * Each request is 8 B RREQ → 1 KB RRES for reads and 100 B WREQ for
 * writes (§4.2.2). EDM saturates the link with 66-bit block framing and
 * repurposed IFG; RDMA pays MAC minimum frames, RoCE headers, ACKs, and
 * its measured 230.2 ns per-message stack occupancy.
 */

#include <cstdio>
#include <vector>

#include "analytic/bandwidth_model.hpp"
#include "core/message.hpp"

using namespace edm;
using analytic::Framing;
using workload::YcsbWorkload;

int
main()
{
    const Gbps rate{100.0};
    std::printf("=== Figure 6: YCSB throughput (million requests/s), "
                "%g Gbps links ===\n\n", rate.value);

    const std::vector<YcsbWorkload> workloads = {
        YcsbWorkload::A, YcsbWorkload::B, YcsbWorkload::F};

    std::printf("  %-9s %10s %10s %8s\n", "workload", "EDM", "RDMA",
                "ratio");
    double ratio_sum = 0;
    for (YcsbWorkload w : workloads) {
        const double edm_mrps =
            analytic::throughputMrps(Framing::Edm, w, rate);
        const double rdma_mrps =
            analytic::throughputMrps(Framing::Rdma, w, rate);
        std::printf("  %-9s %10.2f %10.2f %7.2fx\n",
                    workload::ycsbName(w).c_str(), edm_mrps, rdma_mrps,
                    edm_mrps / rdma_mrps);
        ratio_sum += edm_mrps / rdma_mrps;
    }
    std::printf("\n  average gain: %.2fx (paper: ~2.7x)\n\n",
                ratio_sum / static_cast<double>(workloads.size()));

    // The §2.4 framing-overhead arithmetic behind the gap.
    std::printf("framing overheads (Limitations 1-2, §2.4):\n");
    std::printf("  8 B message in a minimum frame wastes %.0f%% of the "
                "frame\n", analytic::minFrameWaste(8) * 100);
    std::printf("  IFG+preamble overhead on 64 B frames: %.1f%%\n",
                analytic::ifgOverhead(64) * 100);
    std::printf("  EDM 8 B read request: %zu blocks = %.2f wire bytes "
                "(vs 84 B minimum wire frame)\n",
                edm::core::wireBlocks(edm::core::MemMsgType::RREQ, 0),
                edm::core::wireBytes(edm::core::MemMsgType::RREQ, 0));
    return 0;
}
