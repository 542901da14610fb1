#!/usr/bin/env bash
#
# Golden-rebaseline pipeline — the ONLY sanctioned way to change
# tests/golden_figs_values.inc. See docs/REBASELINE.md for when a
# schedule change is legitimate and how to review the output.
#
# What it does:
#   1. builds test_golden_figs,
#   2. regenerates the golden arrays via EDM_GOLDEN_REGEN=1,
#   3. rewrites tests/golden_figs_values.inc for the selected mode set
#      (arrays outside the set keep their previous values),
#   4. prints a before/after schedule-diff summary per array,
#   5. re-runs test_golden_figs to prove the new baselines pass.
#
# Usage:
#   tools/rebaseline.sh [--build-dir <dir>] [--modes legacy,wire]
#
#   --build-dir   CMake build tree holding the binaries (default: build)
#   --modes       which baseline mode set to refresh (default: all).
#                   legacy     kGoldenFig6 kGoldenFig8a kGoldenFig8b
#                              kGoldenClusterSweep
#                   wire       kGoldenFig8aWire kGoldenClusterSweepWire
#                              kGoldenChunkSweepWire
#                   leafspine  kGoldenLeafSpine
#                   fairshare  kGoldenFairShare
#
# Also available as a build target: cmake --build build -t rebaseline

set -euo pipefail

BUILD_DIR=build
MODES=legacy,wire,leafspine,fairshare
while [[ $# -gt 0 ]]; do
    case "$1" in
      --build-dir) BUILD_DIR=$2; shift 2 ;;
      --modes) MODES=$2; shift 2 ;;
      *)
        echo "usage: $0 [--build-dir <dir>]" \
             "[--modes legacy,wire,leafspine,fairshare]" >&2
        exit 2 ;;
    esac
done

ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"
INC=tests/golden_figs_values.inc

# Arrays belonging to each mode set.
LEGACY_ARRAYS="kGoldenFig6 kGoldenFig8a kGoldenFig8b kGoldenClusterSweep"
WIRE_ARRAYS="kGoldenFig8aWire kGoldenClusterSweepWire kGoldenChunkSweepWire"
LEAFSPINE_ARRAYS="kGoldenLeafSpine"
FAIRSHARE_ARRAYS="kGoldenFairShare"
SELECTED=""
case ",$MODES," in *,legacy,*) SELECTED="$SELECTED $LEGACY_ARRAYS" ;; esac
case ",$MODES," in *,wire,*) SELECTED="$SELECTED $WIRE_ARRAYS" ;; esac
case ",$MODES," in
  *,leafspine,*) SELECTED="$SELECTED $LEAFSPINE_ARRAYS" ;;
esac
case ",$MODES," in
  *,fairshare,*) SELECTED="$SELECTED $FAIRSHARE_ARRAYS" ;;
esac
if [[ -z "$SELECTED" ]]; then
    echo "rebaseline: no known mode in --modes '$MODES'" >&2
    exit 2
fi

echo "== rebaseline: building test_golden_figs in $BUILD_DIR =="
cmake --build "$BUILD_DIR" -j --target test_golden_figs > /dev/null

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
cp "$INC" "$TMP/old.inc"

echo "== rebaseline: regenerating golden arrays (EDM_GOLDEN_REGEN=1) =="
EDM_GOLDEN_REGEN=1 "$BUILD_DIR/test_golden_figs" > "$TMP/regen.out"

# Extract the printed `constexpr double kName[] = { ... };` tables.
awk '/^constexpr double k[A-Za-z0-9]+\[\] = \{$/,/^\};$/' \
    "$TMP/regen.out" > "$TMP/new_arrays.inc"

# Assemble the new .inc: selected arrays from the regen output, the
# rest carried over from the previous file, in canonical order.
emit_array() { # $1 = file, $2 = array name
    awk -v name="$2" \
        '$0 == "constexpr double " name "[] = {" {p = 1}
         p {print}
         p && $0 == "};" {exit}' "$1"
}

{
    cat <<'EOF'
// Golden per-point values. kGoldenFig6/8a/8b: captured from the
// per-block fabric emission and pure 4-ary-heap event queue, and
// bit-frozen since. kGoldenClusterSweep: every row of
// scenarios/cluster_sweep.edm at scale 0.2 (4000 messages per point,
// each job list drawn from the flow points' fixed seed 42). *Wire
// arrays: EDM schedules under EdmConfig::wire_charged_occupancy
// (exact 66-bit block line-time port charges, core/occupancy.hpp);
// kGoldenClusterSweepWire holds the rows of
// scenarios/cluster_sweep_wire.edm. kGoldenLeafSpine: the
// cluster-scale leaf-spine incast rows of scenarios/leaf_spine.edm
// (multi-tier topology, sharded scheduler, net/topology.hpp).
// kGoldenFairShare: both rows of scenarios/tenant_isolation.edm
// (multi-tenant fair-share arbitration, core/fair_share.hpp).
// Regenerate ONLY via the documented pipeline: tools/rebaseline.sh
// (docs/REBASELINE.md) — it emits the schedule-diff summary reviewers
// need.

EOF
    for name in $LEGACY_ARRAYS $WIRE_ARRAYS $LEAFSPINE_ARRAYS \
                $FAIRSHARE_ARRAYS; do
        case " $SELECTED " in
          *" $name "*) src="$TMP/new_arrays.inc" ;;
          *) src="$TMP/old.inc" ;;
        esac
        if ! emit_array "$src" "$name" | grep -q .; then
            echo "rebaseline: array $name missing from $src" >&2
            exit 1
        fi
        emit_array "$src" "$name"
    done
} > "$TMP/new.inc"
mv "$TMP/new.inc" "$INC"

echo
echo "== schedule-diff summary (old -> new $INC) =="
awk '
    /^constexpr double / {
        name = $3; sub(/\[\].*/, "", name); i = 0
        if (NR != FNR && !(name in seen)) {
            seen[name] = 1
            order[++norder] = name
        }
        next
    }
    /^\};/ { name = ""; next }
    name != "" {
        v = $1; sub(/,$/, "", v)
        if (NR == FNR) { old[name "," i] = v; oldn[name] = ++i }
        else           { new[name "," i] = v; newn[name] = ++i }
        next
    }
    END {
        printf "  %-24s %7s %8s %14s %12s\n",
               "array", "points", "changed", "max |delta|", "max rel"
        for (s = 1; s <= norder; ++s) {
            n = order[s]
            changed = 0; maxd = 0; maxr = 0
            for (i = 0; i < newn[n]; ++i) {
                o = old[n "," i] + 0; v = new[n "," i] + 0
                if (old[n "," i] == "" || o != v) {
                    ++changed
                    d = v - o; if (d < 0) d = -d
                    if (d > maxd) maxd = d
                    r = (o == 0) ? 1 : d / (o < 0 ? -o : o)
                    if (r > maxr) maxr = r
                }
            }
            printf "  %-24s %7d %8d %14.6g %11.2f%%\n",
                   n, newn[n], changed, maxd, maxr * 100
        }
    }
' "$TMP/old.inc" "$INC"

echo
echo "== rebaseline: verifying the new baselines pass =="
# The golden arrays are compiled in: rebuild before the proof run.
cmake --build "$BUILD_DIR" -j --target test_golden_figs > /dev/null
"$BUILD_DIR/test_golden_figs" > "$TMP/verify.out" ||
    { tail -40 "$TMP/verify.out"; exit 1; }
tail -1 "$TMP/verify.out"

echo
echo "rebaseline complete. Review the diff summary above and follow the"
echo "docs/REBASELINE.md checklist before committing $INC."
