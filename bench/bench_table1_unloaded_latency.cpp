/**
 * @file
 * Reproduces **Table 1**: unloaded Ethernet-fabric latency of remote
 * reads and writes under four stacks — TCP/IP in hardware, RoCEv2, raw
 * Ethernet, and EDM — from the compositional latency model, then
 * cross-checks the EDM column against the cycle-level fabric simulator.
 */

#include <cstdio>

#include "analytic/latency_model.hpp"
#include "core/fabric.hpp"
#include "core/occupancy.hpp"

using namespace edm;
using analytic::FabricLatency;
using analytic::Stack;

namespace {

void
printRow(const char *label, double read_ns, double write_ns)
{
    std::printf("  %-34s %10.2f %10.2f\n", label, read_ns, write_ns);
}

void
printStack(Stack s)
{
    const FabricLatency r = analytic::fabricLatency(s, true);
    const FabricLatency w = analytic::fabricLatency(s, false);
    std::printf("%s\n", analytic::stackName(s).c_str());
    printRow("compute: protocol stack", toNs(r.compute_stack),
             toNs(w.compute_stack));
    printRow("compute: Ethernet MAC", toNs(r.compute_mac),
             toNs(w.compute_mac));
    printRow("compute: Ethernet PHY (PCS)", toNs(r.compute_pcs),
             toNs(w.compute_pcs));
    printRow("switch: layer-2 forwarding", toNs(r.switch_l2),
             toNs(w.switch_l2));
    printRow("switch: Ethernet MAC", toNs(r.switch_mac),
             toNs(w.switch_mac));
    printRow("switch: Ethernet PHY (PCS)", toNs(r.switch_pcs),
             toNs(w.switch_pcs));
    printRow("memory: protocol stack", toNs(r.memory_stack),
             toNs(w.memory_stack));
    printRow("memory: Ethernet MAC", toNs(r.memory_mac),
             toNs(w.memory_mac));
    printRow("memory: Ethernet PHY (PCS)", toNs(r.memory_pcs),
             toNs(w.memory_pcs));
    printRow("network stack latency", toNs(r.network_stack),
             toNs(w.network_stack));
    printRow("PHY (PMA+PMD) + transceiver", toNs(r.serdes),
             toNs(w.serdes));
    printRow("propagation delay", toNs(r.propagation),
             toNs(w.propagation));
    printRow("TOTAL fabric latency", toNs(r.total), toNs(w.total));
    std::printf("\n");
}

} // namespace

int
main()
{
    std::printf("=== Table 1: unloaded fabric latency, 64 B remote read /"
                " write (ns) ===\n");
    std::printf("(paper: TCP/IP 3790/1890, RoCEv2 2030/1020, raw Ethernet"
                " 1110/557, EDM 299.52/296.96)\n\n");
    std::printf("  %-34s %10s %10s\n", "stage", "read", "write");
    for (Stack s : {Stack::TcpIp, Stack::RoCE, Stack::RawEthernet,
                    Stack::Edm})
        printStack(s);

    const double edm_r = toNs(analytic::fabricLatency(Stack::Edm,
                                                      true).total);
    const double edm_w = toNs(analytic::fabricLatency(Stack::Edm,
                                                      false).total);
    std::printf("speedups vs EDM (read/write):\n");
    for (Stack s : {Stack::RawEthernet, Stack::RoCE, Stack::TcpIp}) {
        std::printf("  %-22s %5.1fx / %4.1fx\n",
                    analytic::stackName(s).c_str(),
                    toNs(analytic::fabricLatency(s, true).total) / edm_r,
                    toNs(analytic::fabricLatency(s, false).total) / edm_w);
    }
    std::printf("(paper: 3.7/1.9, 6.8/3.4, 12.7/6.4)\n\n");

    // Loaded operation adds one line occupancy per granted chunk on top
    // of the unloaded totals above; what the scheduler *reserves* for
    // it depends on the charging mode (docs/WIRE_FORMAT.md).
    core::EdmConfig occ; // 25G testbed defaults
    core::EdmConfig occ_wire = occ;
    occ_wire.wire_charged_occupancy = true;
    std::printf("per-chunk line occupancy charge, %llu B chunks at 25G "
                "(legacy payload l/B -> wire-charged blocks):\n",
                static_cast<unsigned long long>(occ.chunk_bytes));
    std::printf("  read  (RRES framing) %7.2f ns -> %7.2f ns\n",
                toNs(core::grantOccupancy(occ, true, occ.chunk_bytes)),
                toNs(core::grantOccupancy(occ_wire, true,
                                          occ.chunk_bytes)));
    std::printf("  write (WREQ framing) %7.2f ns -> %7.2f ns\n\n",
                toNs(core::grantOccupancy(occ, false, occ.chunk_bytes)),
                toNs(core::grantOccupancy(occ_wire, false,
                                          occ.chunk_bytes)));

    // Cross-check: the cycle-level simulator measures the same EDM
    // fabric plus serialization and DRAM, which we report separately.
    Simulation sim;
    core::EdmConfig cfg;
    cfg.num_nodes = 2;
    cfg.link_rate = Gbps{25.0};
    core::CycleFabric fab(cfg, sim, {1});
    fab.host(1).store()->write(0x1000,
                               std::vector<std::uint8_t>(64, 0xAB));
    fab.read(0, 1, 0x1000, 64);
    sim.run();
    fab.write(0, 1, 0x2000, std::vector<std::uint8_t>(64, 0xCD));
    sim.run();

    std::printf("=== cycle-level simulator cross-check (64 B ops on the"
                " 2-node 25 GbE testbed) ===\n");
    std::printf("  measured read:  %7.2f ns "
                "(= 299.52 fabric + serialization + %.2f DRAM)\n",
                fab.readLatency().mean(),
                toNs(fab.host(1).lastDramLatency()));
    std::printf("  measured write: %7.2f ns "
                "(= 296.96 fabric + serialization)\n",
                fab.writeLatency().mean());
    return 0;
}
