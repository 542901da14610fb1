/**
 * @file
 * Reproduces **Figure 5**: cycle-by-cycle latency breakdown of EDM's
 * network fabric for a 64 B read and write (one clock cycle = 2.56 ns).
 * Every stage comes from the analytic model (`analytic::edmBreakdown`);
 * the cycle simulator is not run, so nothing here checks the table
 * against it.
 */

#include <cstdio>

#include "analytic/latency_model.hpp"

using namespace edm;

namespace {

void
printBreakdown(bool read)
{
    std::printf("--- %s ---\n", read ? "READ (RREQ -> RRES)"
                                     : "WRITE (/N/ -> /G/ -> WREQ)");
    int total = 0;
    for (const auto &s : analytic::edmBreakdown(read)) {
        std::printf("  %-12s %-48s %2d cycles (%5.2f ns)\n",
                    s.location.c_str(), s.what.c_str(), s.cycles,
                    s.cycles * toNs(kPcsBlockSlot));
        total += s.cycles;
    }
    // Standard PCS pipeline crossings (2 cycles each end per traversal).
    const int crossings = read ? 8 : 8;
    std::printf("  %-12s %-48s %2d cycles (%5.2f ns)\n", "all",
                "standard PCS encode/scramble + descramble/decode",
                crossings * 2, crossings * 2 * toNs(kPcsBlockSlot));
    total += crossings * 2;
    std::printf("  network stack total: %d cycles = %.2f ns "
                "(paper: %.2f ns)\n\n",
                total, total * toNs(kPcsBlockSlot),
                read ? 107.52 : 104.96);
}

} // namespace

int
main()
{
    std::printf("=== Figure 5: EDM fabric latency breakdown, 64 B ops, "
                "1 cycle = 2.56 ns ===\n\n");
    printBreakdown(true);
    printBreakdown(false);
    std::printf("TD+PD per traversal: 19 + 10 + 19 ns (SerDes + "
                "propagation + SerDes); 4 traversals each op.\n");
    return 0;
}
