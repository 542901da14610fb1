/**
 * @file
 * Compositional fabric-latency model: regenerates Table 1 and the
 * Figure 5 cycle breakdown.
 *
 * Table 1 of the paper is a per-stage sum: protocol-stack traversals,
 * MAC and PCS crossings, layer-2 forwarding, SerDes crossings and
 * propagation. The baseline stage constants are the paper's measured
 * values (TCP/IP 666.2 ns and RoCEv2 230.2 ns per stack traversal,
 * 400 ns layer-2 forwarding, 7.68 ns MAC/PCS crossings); EDM's entries
 * are *derived* from the same CycleCosts the cycle-level simulator uses,
 * so the model and the simulator cannot drift apart.
 */

#ifndef EDM_ANALYTIC_LATENCY_MODEL_HPP
#define EDM_ANALYTIC_LATENCY_MODEL_HPP

#include <string>
#include <vector>

#include "common/time.hpp"
#include "core/config.hpp"

namespace edm {
namespace analytic {

/** The four stacks of Table 1. */
enum class Stack
{
    TcpIp,
    RoCE,
    RawEthernet,
    Edm,
};

/** Display name for reports. */
std::string stackName(Stack s);

/** One Table-1 column (read or write) broken down by row. */
struct FabricLatency
{
    // At the compute node.
    Picoseconds compute_stack = 0;
    Picoseconds compute_mac = 0;
    Picoseconds compute_pcs = 0;
    // At the switch.
    Picoseconds switch_l2 = 0;
    Picoseconds switch_mac = 0;
    Picoseconds switch_pcs = 0;
    // At the memory node.
    Picoseconds memory_stack = 0;
    Picoseconds memory_mac = 0;
    Picoseconds memory_pcs = 0;
    // Aggregates.
    Picoseconds network_stack = 0; ///< sum of the above
    Picoseconds serdes = 0;        ///< PMA + PMD + transceiver
    Picoseconds propagation = 0;
    Picoseconds total = 0;         ///< full fabric latency
};

/**
 * Fabric latency of a remote @p read (else write) under @p stack.
 * EDM entries derive from @p costs (defaults match the paper).
 */
FabricLatency fabricLatency(Stack stack, bool read,
                            const core::CycleCosts &costs = {});

/** One Figure-5 pipeline stage. */
struct BreakdownStage
{
    std::string location; ///< "compute TX", "switch", ...
    std::string what;
    int cycles = 0;
};

/** Figure 5: EDM's cycle-by-cycle breakdown for a read or a write. */
std::vector<BreakdownStage> edmBreakdown(bool read,
                                         const core::CycleCosts &costs = {});

} // namespace analytic
} // namespace edm

#endif // EDM_ANALYTIC_LATENCY_MODEL_HPP
