#!/bin/sh
# Profile the replay hot path the way the perf PRs were measured: build an
# optimized tree with gprof instrumentation (-pg survives containers with
# no perf_event access, unlike `perf record`), run the full design-space
# sweep, and print the flat profile's top entries.
#
# Caveats baked into how to read the output (see docs/simulator.md):
#   - -pg adds per-call prologue overhead, which *inflates small hot
#     functions* relative to their true share; use it for ranking, not
#     ratios.
#   - Fully inlined callees fold into their callers and can surface under
#     phantom symbols; cross-check against `st2sim --profile`, which times
#     the capture/replay/report phases without instrumentation.
#
#   usage: profile_replay.sh [build-dir] [-- extra st2sim args]
set -eu

SRC_DIR=$(cd "$(dirname "$0")/.." && pwd)
BUILD=${1:-"$SRC_DIR/build-prof"}
mkdir -p "$BUILD"
BUILD=$(cd "$BUILD" && pwd)

WORK=$(mktemp -d /tmp/st2_prof.XXXXXX)
# The build's output (compiler warnings included) goes to a log, shown only
# if the build fails, so the profile is the first thing printed.
LOG="$WORK/build.log"
if ! { cmake -B "$BUILD" -S "$SRC_DIR" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS="-pg" -DCMAKE_EXE_LINKER_FLAGS="-pg" &&
    cmake --build "$BUILD" -j"$(nproc)" --target st2sim; } >"$LOG" 2>&1; then
    cat "$LOG" >&2
    echo "profile_replay: build failed (log: $LOG)" >&2
    exit 1
fi

cd "$WORK"
"$BUILD/tools/st2sim" run all --st2 --scale 0.5 --profile >/dev/null
gprof -b "$BUILD/tools/st2sim" gmon.out | head -40
echo "(full profile: cd $WORK && gprof $BUILD/tools/st2sim gmon.out)"
