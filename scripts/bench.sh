#!/usr/bin/env bash
# Builds the Release tree, runs the data-plane benchmarks, and diffs the
# fresh numbers against the committed baseline in bench/baseline/ instead
# of silently overwriting anything.  Fresh google-benchmark JSON lands at
# the repo root as BENCH_<name>.json (gitignored scratch); the baseline is
# versioned, so the diff shows what *this* checkout changed.
#
# Usage: scripts/bench.sh [build-dir]      (default: build-rel)
#        scripts/bench.sh --bless [dir]    re-run and promote the fresh
#                                          numbers to bench/baseline/
#
# The bench tree must be an un-sanitized Release build: the script
# configures it that way, then *verifies* the resulting CMakeCache.txt and
# refuses to record numbers from anything else (a pre-existing build dir
# can carry Debug flags or a sanitizer preset that -DCMAKE_BUILD_TYPE
# alone does not clear).  The verified build type is stamped into each
# benchmark JSON as context.cmake_build_type — note google-benchmark's own
# "library_build_type" field describes the *benchmark library*, not this
# tree, and reads "debug" even for Release runs on boxes with a debug
# libbenchmark.
#
# Wall-clock counters are machine-dependent: compare runs from the same
# box, and re-bless the baseline when switching machines.
set -euo pipefail

cd "$(dirname "$0")/.."

BLESS=0
if [ "${1:-}" = "--bless" ]; then
  BLESS=1
  shift
fi
BUILD_DIR="${1:-build-rel}"
BASELINE_DIR="bench/baseline"
BENCHES="bench_datapath bench_fig1_bandwidth bench_fileserv bench_incast"

# Refuse non-Release trees instead of silently reconfiguring them: the
# pre-configure check keeps bench.sh from flipping a dev/debug/sanitizer
# tree to Release under the user's feet, and the post-build re-check
# verifies what the benchmarks will actually run from.
assert_release_tree() {
  [ -f "$BUILD_DIR/CMakeCache.txt" ] || return 0
  BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt")"
  SANITIZE="$(sed -n 's/^SNIPE_SANITIZE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt")"
  if [ "$BUILD_TYPE" != "Release" ] || [ -n "$SANITIZE" ]; then
    echo "error: $BUILD_DIR is CMAKE_BUILD_TYPE='$BUILD_TYPE'" \
         "SNIPE_SANITIZE='$SANITIZE' — benchmarks must run from a clean" \
         "Release tree.  Point bench.sh at a dedicated dir (default:" \
         "build-rel) or delete $BUILD_DIR and re-run." >&2
    exit 1
  fi
}

assert_release_tree
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j --target $BENCHES
assert_release_tree

for name in $BENCHES; do
  echo "==== $name ===="
  "$BUILD_DIR/bench/$name" --benchmark_out="BENCH_${name}.json" \
    --benchmark_out_format=json \
    --benchmark_context=cmake_build_type="$BUILD_TYPE"
done

if [ "$BLESS" = 1 ]; then
  mkdir -p "$BASELINE_DIR"
  for name in $BENCHES; do
    cp "BENCH_${name}.json" "$BASELINE_DIR/${name}.json"
  done
  echo "Blessed: copied fresh results into $BASELINE_DIR/ (commit them)."
  exit 0
fi

for name in $BENCHES; do
  baseline="$BASELINE_DIR/${name}.json"
  if [ ! -f "$baseline" ]; then
    echo "No baseline for $name ($baseline missing) — run scripts/bench.sh --bless"
    continue
  fi
  echo "==== $name vs baseline ===="
  python3 - "$baseline" "BENCH_${name}.json" <<'EOF'
import json, sys

def load(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for b in doc.get("benchmarks", []):
        # Keep the headline counters; skip embedded m: metrics to keep the
        # diff readable (they live in the JSON for deeper digs).
        row = {k: v for k, v in b.items()
               if isinstance(v, (int, float)) and not k.startswith(("m:",))
               and k not in ("family_index", "per_family_instance_index",
                             "repetitions", "repetition_index", "threads",
                             "iterations")}
        out[b["name"]] = row
    return out

base, fresh = load(sys.argv[1]), load(sys.argv[2])
for name in fresh:
    if name not in base:
        print(f"  {name}: new benchmark (no baseline)")
        continue
    deltas = []
    for key, new in fresh[name].items():
        old = base[name].get(key)
        if old is None or old == 0:
            continue
        pct = (new - old) / old * 100
        if abs(pct) >= 2:  # hide noise-level movement
            deltas.append(f"{key} {old:.3g} -> {new:.3g} ({pct:+.1f}%)")
    status = "; ".join(deltas) if deltas else "within 2% of baseline"
    print(f"  {name}: {status}")
for name in base:
    if name not in fresh:
        print(f"  {name}: removed (present only in baseline)")

# Overhead guards: each paced datapath run is compared with the same
# transfer one layer lighter, in the same fresh binary, so the comparison
# is same-box, same-build by construction.  The telemetry exporter (vs the
# bare transfer) and the watchtower layered on top of it (per-host
# scrape/evaluate timer, series delta-shipped in beacons, collector-side
# FleetWatch; vs the exporter-on run, isolating what the watchtower adds)
# must each cost the data plane no more than 2%.  The pass/fail signal is
# the *engine event count* — the simulator is deterministic, so that delta
# is exact and machine-independent; the wall-clock throughput delta is
# printed alongside as informational (single-shot wall times on a busy box
# swing far more than 2% on their own).
GUARDS = [  # (baseline prefix, variant prefix, label)
    ("BM_SrudpPacedDatapath", "BM_SrudpPacedDatapathExporter", "exporter"),
    ("BM_SrudpPacedDatapathExporter", "BM_SrudpPacedDatapathWatchtower", "watchtower"),
]
for base_prefix, variant_prefix, label in GUARDS:
    for off_name, off in fresh.items():
        if not off_name.startswith(base_prefix + "/"):
            continue
        on = fresh.get(off_name.replace(base_prefix, variant_prefix))
        if on is None or not off.get("events") or not on.get("events"):
            continue
        ev_pct = (on["events"] - off["events"]) / off["events"] * 100
        beacons = int(on.get("beacons", 0))
        verdict = "within 2% budget" if ev_pct <= 2 else "EXCEEDS 2% BUDGET"
        wall = ""
        key = "sim_MB_per_wall_sec"
        if off.get(key) and on.get(key):
            loss = (off[key] - on[key]) / off[key] * 100
            wall = (f"; wall {key} {off[key]:.3g} -> {on[key]:.3g} "
                    f"({loss:+.1f}% loss, informational)")
        print(f"  {label} overhead ({off_name.split('/')[1]}B msgs, {beacons} beacons): "
              f"events {off['events']:.0f} -> {on['events']:.0f} ({ev_pct:+.2f}%) "
              f"— {verdict}{wall}")
EOF
done
