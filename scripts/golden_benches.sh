#!/bin/sh
# Golden bench-output regression net: every figure/table bench's CSV output
# at BENCH_SCALE=0.1 must be byte-identical to the references committed
# under tests/golden/bench/, and so must the trace-mode table of
# `st2sim run all --trace --scale 0.1 --csv`. Together with
# golden_counters.sh (the timing-mode JSON reports) this pins every number
# the repository reports, so refactors of the run path, the speculation
# stacks or the caches cannot move a figure unnoticed.
#
# Every binary in the bench directory runs except the microbench_*
# binaries, whose google-benchmark output is host wall time. Each bench
# runs in a fresh temporary directory with BENCH_TRACE_CACHE unset, so the
# memo-cached configuration without a disk tier is what is pinned. The set
# of CSVs is compared too: a bench that stops writing one, or starts
# writing a new one, fails the net.
#
# When a change is *supposed* to move a figure, copy WORKDIR/out/*.csv over
# the references and commit the diff — the review then shows which rows moved.
#
#   usage: golden_benches.sh BENCH_DIR /path/to/st2sim GOLDEN_DIR [WORKDIR]
set -u

usage="usage: golden_benches.sh BENCH_DIR ST2SIM GOLDEN_DIR [WORKDIR]"
BENCH_DIR=${1:?$usage}
ST2SIM=${2:?$usage}
GOLDEN=${3:?$usage}
WORK=${4:-$(mktemp -d /tmp/st2_golden_benches.XXXXXX)}
unset BENCH_TRACE_CACHE
export BENCH_SCALE=0.1
# Stale outputs of an earlier run in WORKDIR must not mask a missing CSV.
rm -rf "$WORK/out" "$WORK"/run_*
mkdir -p "$WORK/out"
fails=0

for bin in "$BENCH_DIR"/*; do
    name=$(basename "$bin")
    [ -f "$bin" ] && [ -x "$bin" ] || continue
    case $name in microbench_*) continue ;; esac
    mkdir -p "$WORK/run_$name"
    if ! (cd "$WORK/run_$name" && "$bin" >stdout.txt 2>stderr.txt); then
        echo "FAIL: $name exited non-zero" >&2
        tail -3 "$WORK/run_$name/stderr.txt" >&2
        fails=$((fails + 1))
        continue
    fi
    for csv in "$WORK/run_$name"/bench_out/*.csv; do
        [ -f "$csv" ] && cp "$csv" "$WORK/out/"
    done
done

if ! "$ST2SIM" run all --trace --scale 0.1 \
    --csv "$WORK/out/st2sim_trace_scale0.1.csv" >/dev/null 2>&1; then
    echo "FAIL: st2sim run all --trace exited non-zero" >&2
    fails=$((fails + 1))
fi

n=0
for ref in "$GOLDEN"/*.csv; do
    [ -f "$ref" ] || continue
    f=$(basename "$ref")
    n=$((n + 1))
    if [ ! -f "$WORK/out/$f" ]; then
        echo "FAIL: $f was not written" >&2
        fails=$((fails + 1))
    elif ! cmp -s "$ref" "$WORK/out/$f"; then
        echo "FAIL: $f differs from its reference:" >&2
        diff "$ref" "$WORK/out/$f" | head -20 >&2
        fails=$((fails + 1))
    fi
done
for out in "$WORK"/out/*.csv; do
    f=$(basename "$out")
    if [ ! -f "$GOLDEN/$f" ]; then
        echo "FAIL: $f has no reference in $GOLDEN" >&2
        fails=$((fails + 1))
    fi
done

if [ "$n" -eq 0 ]; then
    echo "FAIL: no references in $GOLDEN" >&2
    fails=$((fails + 1))
fi
if [ "$fails" -ne 0 ]; then
    echo "golden_benches: $fails failure(s) (workdir: $WORK)" >&2
    exit 1
fi
echo "golden_benches: all $n outputs byte-identical to the references"
