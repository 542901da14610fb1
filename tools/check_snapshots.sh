#!/usr/bin/env bash
#
# Scenario snapshots: what every scenarios/*.edm prints, pinned in-tree.
#
# Each scenario runs as `run_scenario <file> --quick --threads 1 --trace`.
# Its snapshot, tests/snapshots/<name>.txt, is the printed table (without
# the closing line that names the trace file) followed by the trace's
# record count and 64-bit digest (`edm_trace digest`). A table row or a
# single trace record that moves changes the snapshot.
#
# Usage:
#   tools/check_snapshots.sh [--build-dir <dir>] [--rewrite]
#
#   --build-dir  CMake build tree holding run_scenario and edm_trace
#                (default: build)
#   --rewrite    write the snapshots instead of checking them and report
#                each as unchanged, changed, new or removed (the
#                snapshot step of tools/rebaseline.sh)
#
# The check exits 1 naming every scenario whose output differs from its
# snapshot (with the diff) or that has no snapshot, and every snapshot
# left without a scenario. It is the ctest test_scenario_snapshots.

set -euo pipefail

BUILD_DIR=build
REWRITE=0
while [[ $# -gt 0 ]]; do
    case "$1" in
      --build-dir) BUILD_DIR=$2; shift 2 ;;
      --rewrite) REWRITE=1; shift ;;
      *)
        echo "usage: $0 [--build-dir <dir>] [--rewrite]" >&2
        exit 2 ;;
    esac
done

BUILD_DIR=$(cd "$BUILD_DIR" && pwd)
ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"
SNAP=tests/snapshots

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# Run scenario $1 and write its snapshot text to $2.
snapshot() {
    if ! "$BUILD_DIR/run_scenario" "$1" --quick --threads 1 \
            --trace "$TMP/run.trace" > "$TMP/run.out" 2> "$TMP/run.err"; then
        cat "$TMP/run.err" >&2
        echo "snapshots: $1 failed to run" >&2
        return 1
    fi
    if ! tail -n 1 "$TMP/run.out" | grep -q '^wrote [0-9]* trace records'; then
        echo "snapshots: $1 did not end with its trace line" >&2
        return 1
    fi
    # Drop the blank line and the line naming the temporary trace.
    head -n -2 "$TMP/run.out" > "$2"
    "$BUILD_DIR/edm_trace" digest "$TMP/run.trace" >> "$2"
    rm -f "$TMP/run.trace"
}

mkdir -p "$SNAP"
failed=()
for f in scenarios/*.edm; do
    name=$(basename "$f" .edm)
    expected="$SNAP/$name.txt"
    snapshot "$f" "$TMP/$name.txt" || { failed+=("$name"); continue; }
    if [[ $REWRITE -eq 1 ]]; then
        if [[ ! -f "$expected" ]]; then
            echo "  $name: new"
        elif cmp -s "$expected" "$TMP/$name.txt"; then
            echo "  $name: unchanged"
        else
            echo "  $name: changed"
        fi
        cp "$TMP/$name.txt" "$expected"
    elif [[ ! -f "$expected" ]]; then
        echo "snapshots: $f has no snapshot $expected" >&2
        failed+=("$name")
    elif ! diff -u "$expected" "$TMP/$name.txt"; then
        failed+=("$name")
    fi
done

for snap in "$SNAP"/*.txt; do
    [[ -e "$snap" ]] || continue
    name=$(basename "$snap" .txt)
    [[ -f "scenarios/$name.edm" ]] && continue
    if [[ $REWRITE -eq 1 ]]; then
        rm "$snap"
        echo "  $name: removed"
    else
        echo "snapshots: $snap has no scenario scenarios/$name.edm" >&2
        failed+=("$name")
    fi
done

if [[ ${#failed[@]} -gt 0 ]]; then
    echo "snapshots: ${#failed[@]} failed: ${failed[*]}" >&2
    [[ $REWRITE -eq 1 ]] ||
        echo "after an intended change, rewrite them with" \
             "tools/rebaseline.sh and review the diff" >&2
    exit 1
fi
[[ $REWRITE -eq 1 ]] || echo "snapshots: all scenarios match"
