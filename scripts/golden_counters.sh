#!/bin/sh
# Golden counter regression net for the replay-core refactors
# (docs/simulator.md "Replay core internals"): the full design-space run's
# JSON report — every counter of every launch of all 23 workloads — must be
# byte-identical to the pre-refactor reference files committed under
# tests/golden/, in both baseline and ST² modes, at scales 0.1 and 0.5,
# single-threaded and with --jobs 2.
#
# A byte compare is deliberately the whole test: it diffs every counter,
# every derived rate, and the report formatting at once, so *any* change to
# replay semantics — scheduler order, stall attribution, speculation
# arbitration, memory timing — trips it. The only normalization is the
# report's own "jobs" echo field for the --jobs 2 runs, which is the flag
# value, not a simulation result.
#
# When a change is *supposed* to move counters (a modeled-hardware change,
# not a refactor), regenerate the references with this script's commands
# and commit the diff — the review then shows exactly which counters moved.
#
#   usage: golden_counters.sh /path/to/st2sim /path/to/tests/golden [workdir]
set -u

ST2SIM=${1:?usage: golden_counters.sh /path/to/st2sim golden_dir [workdir]}
GOLDEN=${2:?usage: golden_counters.sh /path/to/st2sim golden_dir [workdir]}
WORK=${3:-$(mktemp -d /tmp/st2_golden.XXXXXX)}
mkdir -p "$WORK"
fails=0

check() {
    mode=$1 scale=$2 jobs=$3
    ref="$GOLDEN/all_${mode}_scale${scale}.json"
    out="$WORK/all_${mode}_scale${scale}_j${jobs}.json"
    flag=
    [ "$mode" = st2 ] && flag=--st2
    if ! "$ST2SIM" run all $flag --scale "$scale" --jobs "$jobs" \
        --json "$out" >/dev/null 2>&1; then
        echo "FAIL: run all $mode scale=$scale jobs=$jobs exited $?" >&2
        fails=$((fails + 1))
        return
    fi
    if [ "$jobs" != 1 ]; then
        sed "s/\"jobs\": $jobs/\"jobs\": 1/" "$out" >"$out.norm" &&
            mv "$out.norm" "$out"
    fi
    if ! cmp -s "$ref" "$out"; then
        echo "FAIL: $mode scale=$scale jobs=$jobs differs from $ref:" >&2
        diff "$ref" "$out" | head -20 >&2
        fails=$((fails + 1))
    fi
}

for mode in base st2; do
    for scale in 0.1 0.5; do
        for jobs in 1 2; do
            check "$mode" "$scale" "$jobs"
        done
    done
done

# Predictor-zoo goldens: each registered non-default policy has its own
# reference at scale 0.1, so a policy's prediction/arbitration stream is
# pinned exactly like the CRF's always was.
check_policy() {
    policy=$1
    ref="$GOLDEN/all_st2_${policy}_scale0.1.json"
    out="$WORK/all_st2_${policy}_scale0.1.json"
    if ! "$ST2SIM" run all --st2 --spec-policy "$policy" --scale 0.1 \
        --json "$out" >/dev/null 2>&1; then
        echo "FAIL: run all --spec-policy $policy exited $?" >&2
        fails=$((fails + 1))
        return
    fi
    if ! cmp -s "$ref" "$out"; then
        echo "FAIL: --spec-policy $policy differs from $ref:" >&2
        diff "$ref" "$out" | head -20 >&2
        fails=$((fails + 1))
    fi
}

for policy in mru tage static; do
    check_policy "$policy"
done

# The framework refactor must be invisible when the paper's predictor is
# selected: `--spec-policy crf` must be byte-identical to the DEFAULT
# (no-flag) reference, not merely self-consistent.
out="$WORK/all_st2_crf_scale0.1.json"
if ! "$ST2SIM" run all --st2 --spec-policy crf --scale 0.1 \
    --json "$out" >/dev/null 2>&1; then
    echo "FAIL: run all --spec-policy crf exited $?" >&2
    fails=$((fails + 1))
elif ! cmp -s "$GOLDEN/all_st2_scale0.1.json" "$out"; then
    echo "FAIL: --spec-policy crf differs from the default-predictor ref:" >&2
    diff "$GOLDEN/all_st2_scale0.1.json" "$out" | head -20 >&2
    fails=$((fails + 1))
fi

# Fault-injection golden: every fault class firing at once, so the fault
# counters (history flips, masked repairs, forced mispredicts, extra repair
# cycles) and the timing they perturb are pinned like the fault-free runs.
out="$WORK/all_st2_inject_scale0.1.json"
if ! "$ST2SIM" run all --st2 --scale 0.1 \
    --inject crf:0.05,hist:0.2,detect:0.2,mask:0.2 --inject-seed 7 \
    --json "$out" >/dev/null 2>&1; then
    echo "FAIL: run all --inject exited $?" >&2
    fails=$((fails + 1))
elif ! cmp -s "$GOLDEN/all_st2_inject_scale0.1.json" "$out"; then
    echo "FAIL: --inject differs from $GOLDEN/all_st2_inject_scale0.1.json:" >&2
    diff "$GOLDEN/all_st2_inject_scale0.1.json" "$out" | head -20 >&2
    fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
    echo "golden_counters: $fails run(s) diverged (workdir: $WORK)" >&2
    exit 1
fi
echo "golden_counters: all 13 runs byte-identical to the references"
