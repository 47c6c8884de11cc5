#!/usr/bin/env bash
# Multi-seed sweeps of the seeded test suites.  A suite runs its fixed-seed
# preflight once, then reruns its swept tests with SNIPE_CHAOS_SEED set to
# each of N seeds, printing a reproduce line for every seed that trips an
# invariant (the chaos suites' gtest listener dumps the flight recorder
# above it).  Suites: chaos (every chaos scenario), topo (zoned-topology
# chaos, shard-invariant digests), watch (the per-fault-class alert soak:
# each alert fires and resolves, the clean world fires nothing) and soak
# (nightly: 50 chaos seeds logging one "<seed> <scenario> <replay-digest>"
# line per replay-checked scenario, so two soaks of a seed range diff for
# cross-build determinism drift; then the alert soak, which must cover at
# least an hour of virtual time).  The output goes to
# <build-dir>/sweep_<suite>.log, whose "[soak] ... virtual_s=..." lines are
# summed into the soaked virtual time.
#
# Usage: scripts/sweep.sh <suite> [N] [build-dir]  (defaults: per suite, build)
# Env:   SNIPE_CHAOS_BASE_SEED   first seed (default 20260807)
#        SNIPE_CHAOS_DIGEST_LOG  soak digest log
#                                (default <build-dir>/sweep_soak_digests.log)
#        SNIPE_WATCH_SEEDS       soak: alert soak seed count (default 20)
#        SNIPE_SOAK_SCALE        virtual-time multiplier per alert soak
#                                scenario (default 1)
#
# CMake's -DSNIPE_SWEEPS=ON registers the suites as the ctest tests
# chaos_sweep, topo_sweep, watch_sweep and chaos_soak (labels sweep, topo,
# watch, soak); they are off by default so the tier-1 runtime stays flat.
set -euo pipefail

# One row per phase: suite, preflight and swept test binary:gtest-filter,
# seed count (a number the N argument overrides, or ENV=default), whether
# the runs log digests, and the virtual-time floor in seconds.
SUITES="
chaos  -                        chaos_test:*            10                   no   0
topo   topo_test:*              chaos_test:ChaosTopo.*  10                   no   0
watch  watch_test:-WatchSoak.*  watch_test:WatchSoak.*  10                   no   0
soak   -                        chaos_test:*            50                   yes  0
soak   -                        watch_test:WatchSoak.*  SNIPE_WATCH_SEEDS=20 no   3600
"

cd "$(dirname "$0")/.."
SUITE="${1:-}"
ROWS="$(awk -v s="$SUITE" '$1 == s' <<<"$SUITES")"
if [ -z "$SUITE" ] || [ -z "$ROWS" ]; then
  suites="$(awk 'NF && !seen[$1]++ {printf " %s", $1}' <<<"$SUITES")"
  echo "usage: scripts/sweep.sh <suite> [N] [build-dir]; suites:$suites" >&2
  exit 2
fi
BUILD_DIR="${3:-build}"
BASE="${SNIPE_CHAOS_BASE_SEED:-20260807}"
SCALE="${SNIPE_SOAK_SCALE:-1}"
LOG="$BUILD_DIR/sweep_${SUITE}.log"

set -f  # the filters hold '*'
for spec in $(awk '{print $2, $3}' <<<"$ROWS"); do
  bin="$BUILD_DIR/tests/${spec%%:*}"
  if [ "$spec" != - ] && [ ! -x "$bin" ]; then
    echo "sweep: $bin not built (cmake --build $BUILD_DIR)" >&2
    exit 2
  fi
done

: > "$LOG"
while read -r -u 3 _ pre swept seeds digests floor; do
  if [ "$pre" != - ]; then
    echo "==== $SUITE: preflight $BUILD_DIR/tests/${pre%%:*} --gtest_filter='${pre#*:}' ===="
    if ! "$BUILD_DIR/tests/${pre%%:*}" --gtest_brief=1 --gtest_filter="${pre#*:}"; then
      echo "sweep: $SUITE preflight failed (command above)" >&2
      exit 1
    fi
  fi

  if [[ "$seeds" == *=* ]]; then
    var="${seeds%%=*}"
    N="${!var:-${seeds#*=}}"
  else
    N="${2:-$seeds}"
  fi
  bin="$BUILD_DIR/tests/${swept%%:*}"
  filter="${swept#*:}"
  digest_log="${SNIPE_CHAOS_DIGEST_LOG:-}"
  if [ "$digests" = yes ]; then
    digest_log="${SNIPE_CHAOS_DIGEST_LOG:-$BUILD_DIR/sweep_${SUITE}_digests.log}"
    : > "$digest_log"
  fi

  failures=0
  for i in $(seq 0 $((N - 1))); do
    seed=$((BASE + i * 1000003))
    echo "==== $SUITE: $bin seed $seed ($((i + 1))/$N) ===="
    if ! SNIPE_CHAOS_SEED=$seed SNIPE_SOAK_SCALE=$SCALE SNIPE_CHAOS_DIGEST_LOG="$digest_log" \
        "$bin" --gtest_brief=1 --gtest_filter="$filter" | tee -a "$LOG"; then
      echo "sweep: $SUITE invariant tripped at seed $seed" >&2
      echo "reproduce with: SNIPE_CHAOS_SEED=$seed SNIPE_SOAK_SCALE=$SCALE" \
           "$bin --gtest_filter='$filter'" >&2
      failures=$((failures + 1))
    fi
  done
  if [ "$failures" -gt 0 ]; then
    echo "sweep: $SUITE: $failures/$N seeds of $bin FAILED" >&2
    exit 1
  fi
  echo "sweep: $SUITE: $N seeds of $bin --gtest_filter='$filter' clean"
  [ "$digests" = yes ] && echo "sweep: $SUITE: $(wc -l < "$digest_log") digest lines in $digest_log"

  read -r scenarios virtual_s < <(awk -F'virtual_s=' \
    '/^\[soak\] / {n++; sum += $2} END {printf "%d %d\n", n, sum}' "$LOG")
  if [ "$scenarios" -gt 0 ]; then
    echo "sweep: $SUITE: $scenarios scenarios, ${virtual_s}s ≈" \
         "$((virtual_s / 3600))h $(((virtual_s % 3600) / 60))m virtual"
  fi
  if [ "$virtual_s" -lt "$floor" ]; then
    echo "sweep: $SUITE covered only ${virtual_s}s of virtual time (< ${floor}s floor)" >&2
    exit 1
  fi
done 3<<<"$ROWS"
