#!/usr/bin/env python3
"""Check bench_edm's event counts against committed ceilings.

Usage:

    tools/check_event_counts.py bench_edm_quick.json [CEILINGS]

Reads sim.event_queue.events_per_op of every workload in the JSON that
bench_edm --quick --json writes, and compares it with the ceiling for
that workload in CEILINGS (default: tools/event_count_ceilings.txt).
Exits 1 if a count exceeds its ceiling, or if a workload is in one file
but not the other.
"""

import json
import os
import sys

METRIC = "sim.event_queue.events_per_op"


def load_ceilings(path):
    ceilings = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line:
                name, value = line.split()
                ceilings[name] = float(value)
    return ceilings


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    default = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "event_count_ceilings.txt")
    ceilings = load_ceilings(sys.argv[2] if len(sys.argv) == 3 else default)
    with open(sys.argv[1]) as f:
        workloads = json.load(f)["workloads"]
    failed = False
    for name in sorted(set(ceilings) | set(workloads)):
        if name not in workloads or name not in ceilings:
            print(f"{name}: only in the "
                  f"{'ceilings' if name in ceilings else 'results'}")
            failed = True
            continue
        count = workloads[name]["per_layer"][METRIC]["value"]
        # The ceilings are printed to four places.
        over = round(count, 4) > ceilings[name]
        print(f"{name}: {METRIC} {count:.4f}, ceiling {ceilings[name]:.4f}"
              f"{'  EXCEEDED' if over else ''}")
        failed |= over
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
