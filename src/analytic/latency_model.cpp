#include "latency_model.hpp"

#include "common/logging.hpp"
#include "phy/serdes.hpp"

namespace edm {
namespace analytic {

namespace {

// Measured per-stage constants from the paper (Table 1 caption):
// data-path latencies only, no control-plane setup.
constexpr Picoseconds kTcpStack = fromNs(666.2);
constexpr Picoseconds kRoceStack = fromNs(230.2);
constexpr Picoseconds kL2Forwarding = fromNs(400.0);
constexpr Picoseconds kMacCrossing = fromNs(7.68); ///< 3 cycles
constexpr Picoseconds kPcsCrossingStd = fromNs(7.68);
constexpr Picoseconds kCycle = kPcsBlockSlot;      ///< 2.56 ns

Picoseconds
cycles(int n)
{
    return static_cast<Picoseconds>(n) * kCycle;
}

} // namespace

std::string
stackName(Stack s)
{
    switch (s) {
      case Stack::TcpIp: return "TCP/IP in hardware";
      case Stack::RoCE: return "RDMA (RoCEv2)";
      case Stack::RawEthernet: return "Raw Ethernet";
      case Stack::Edm: return "EDM";
    }
    EDM_PANIC("unknown stack %d", static_cast<int>(s));
}

FabricLatency
fabricLatency(Stack stack, bool read, const core::CycleCosts &costs)
{
    FabricLatency r;

    // Link traversals: read = RREQ (2 hops) + RRES (2 hops);
    // write = WREQ (2 hops), except EDM adds notify + grant (1 hop each).
    const int traversals = (stack == Stack::Edm) ? 4 : (read ? 4 : 2);
    r.serdes = static_cast<Picoseconds>(
                   traversals * phy::kCrossingsPerTraversal) *
        phy::kSerdesCrossing;
    r.propagation = static_cast<Picoseconds>(read || stack == Stack::Edm
                                                 ? 4
                                                 : 2) *
        phy::kHopPropagation;

    if (stack != Stack::Edm) {
        // Crossings at each box: read sees both directions.
        const int host_x = read ? 2 : 1; ///< compute-node crossings
        const int sw_x = read ? 4 : 2;

        Picoseconds stack_lat = 0;
        if (stack == Stack::TcpIp)
            stack_lat = kTcpStack;
        else if (stack == Stack::RoCE)
            stack_lat = kRoceStack;

        r.compute_stack = host_x * stack_lat;
        r.compute_mac = host_x * kMacCrossing;
        r.compute_pcs = host_x * kPcsCrossingStd;
        r.switch_l2 = (read ? 2 : 1) * kL2Forwarding;
        r.switch_mac = sw_x * kMacCrossing;
        r.switch_pcs = sw_x * kPcsCrossingStd;
        r.memory_stack = host_x * stack_lat;
        r.memory_mac = host_x * kMacCrossing;
        r.memory_pcs = host_x * kPcsCrossingStd;
    } else {
        // EDM: no MAC, no L2, no host transport stack. PCS crossings are
        // 2 cycles each; EDM-specific processing cycles come from the
        // same CycleCosts the cycle simulator charges (§3.2.1, §3.2.2).
        const Picoseconds pcs_x = cycles(costs.pcs_tx); // == pcs_rx

        if (read) {
            // Compute: TX RREQ + RX RRES crossings; gen + data delivery.
            r.compute_pcs = 2 * pcs_x +
                cycles(costs.host_gen_request + costs.host_proc_data);
            // Switch: RREQ in/out + RRES in/out crossings; classify +
            // insert + request-forward CDC + response-forward CDC.
            r.switch_pcs = 4 * pcs_x +
                cycles(costs.sw_classify + costs.sw_insert_notif +
                       costs.sw_forward + costs.sw_forward);
            // Memory: RX RREQ + TX RRES crossings; grant processing +
            // memory-controller hand-off + grant-queue read + data gen.
            r.memory_pcs = 2 * pcs_x +
                cycles(costs.host_proc_grant + costs.host_proc_rreq_extra +
                       costs.host_read_grant + costs.host_gen_data);
        } else {
            // Compute: TX /N/, RX /G/, TX WREQ crossings; gen notify +
            // process grant + grant-queue read + data gen.
            r.compute_pcs = 3 * pcs_x +
                cycles(costs.host_gen_request + costs.host_proc_grant +
                       costs.host_read_grant + costs.host_gen_data);
            // Switch: /N/ in, /G/ out, WREQ in/out crossings; classify +
            // insert + PIM iteration + grant gen + forward CDC.
            r.switch_pcs = 4 * pcs_x +
                cycles(costs.sw_classify + costs.sw_insert_notif +
                       costs.sw_pim_iteration + costs.sw_gen_grant +
                       costs.sw_forward);
            // Memory: RX WREQ crossing; data delivery to the controller.
            r.memory_pcs = 1 * pcs_x +
                cycles(costs.host_proc_data);
        }
    }

    r.network_stack = r.compute_stack + r.compute_mac + r.compute_pcs +
        r.switch_l2 + r.switch_mac + r.switch_pcs + r.memory_stack +
        r.memory_mac + r.memory_pcs;
    r.total = r.network_stack + r.serdes + r.propagation;
    return r;
}

std::vector<BreakdownStage>
edmBreakdown(bool read, const core::CycleCosts &costs)
{
    std::vector<BreakdownStage> stages;
    auto add = [&](const char *loc, const char *what, int cy) {
        stages.push_back(BreakdownStage{loc, what, cy});
    };

    if (read) {
        add("compute TX", "dequeue + create RREQ blocks",
            costs.host_gen_request);
        add("switch", "classify RREQ", costs.sw_classify);
        add("switch", "insert demand into notification queue",
            costs.sw_insert_notif);
        add("switch", "forward buffered RREQ (RX->TX crossing)",
            costs.sw_forward);
        add("memory RX", "parse + grant-queue entry",
            costs.host_proc_grant);
        add("memory RX", "hand RREQ to memory controller",
            costs.host_proc_rreq_extra);
        add("memory TX", "grant-queue read (clock crossing)",
            costs.host_read_grant);
        add("memory TX", "state table + data buffer + create blocks",
            costs.host_gen_data);
        add("switch", "forward RRES (RX->TX crossing)", costs.sw_forward);
        add("compute RX", "parse + extract address + deliver",
            costs.host_proc_data);
    } else {
        add("compute TX", "dequeue + create /N/ block",
            costs.host_gen_request);
        add("switch", "classify /N/", costs.sw_classify);
        add("switch", "insert demand into notification queue",
            costs.sw_insert_notif);
        add("switch", "priority-PIM matching iteration",
            costs.sw_pim_iteration);
        add("switch", "create /G/ block", costs.sw_gen_grant);
        add("compute RX", "parse /G/ + grant-queue entry",
            costs.host_proc_grant);
        add("compute TX", "grant-queue read (clock crossing)",
            costs.host_read_grant);
        add("compute TX", "state table + data buffer + create blocks",
            costs.host_gen_data);
        add("switch", "forward WREQ (RX->TX crossing)", costs.sw_forward);
        add("memory RX", "parse + extract address + deliver",
            costs.host_proc_data);
    }
    return stages;
}

} // namespace analytic
} // namespace edm
