#!/bin/sh
# Kill-anywhere chaos smoke for `st2sim sweep` (docs/robustness.md, "Sharded
# sweep orchestrator"): across all four sweep benches at BENCH_SCALE=0.05,
#
#   1. a 1-shard sweep produces the serial reference tables;
#   2. an uninterrupted multi-shard sweep merges byte-identical output;
#   3. a chaos run — workers SIGKILLed at random, then the supervisor itself
#      SIGKILLed mid-flight — must, after `--resume`, still produce merged
#      output byte-identical to the reference;
#   4. a bench that fails every attempt is quarantined: exit 10,
#      error[shard-failed], and a quarantine.json naming the shards.
#
#   usage: sweep_chaos.sh /path/to/st2sim workdir [benchdir]
set -u

ST2SIM=${1:?usage: sweep_chaos.sh /path/to/st2sim workdir [benchdir]}
WORK=${2:-$(mktemp -d /tmp/st2_sweepchaos.XXXXXX)}
BENCH_DIR=${3:-}
mkdir -p "$WORK"
cd "$WORK" || exit 1
# Fresh sweeps refuse a used --out by design; a reused ctest workdir must
# start clean. The trace cache survives — sharing it across runs is fine.
rm -rf ref plain chaos quar fakebench

fails=0
fail() {
    echo "FAIL: $*" >&2
    fails=$((fails + 1))
}

# --bench-dir is optional: st2sim defaults to the build-tree layout.
set --
[ -n "$BENCH_DIR" ] && set -- --bench-dir "$BENCH_DIR"

cat > spec_serial.json <<'EOF'
{"name": "chaos", "scales": ["0.05"], "benches": [
  {"bench": "fig5_dse"},
  {"bench": "config_sensitivity"},
  {"bench": "fault_sensitivity"},
  {"bench": "ablation_st2"}]}
EOF
cat > spec_sharded.json <<'EOF'
{"name": "chaos", "scales": ["0.05"], "benches": [
  {"bench": "fig5_dse", "shards": 3},
  {"bench": "config_sensitivity", "shards": 2},
  {"bench": "fault_sensitivity", "shards": 2},
  {"bench": "ablation_st2", "shards": 2}]}
EOF

# All three sweeps share one content-addressed trace cache, like a real
# sweep fleet would — the multi-process hammer in test_trace_cache.cpp is
# the unit-level proof this sharing is safe.
TC=tc

# --- 1. serial reference: every bench as a single shard ---------------------
"$ST2SIM" sweep --spec spec_serial.json --out ref "$@" --trace-cache "$TC" \
    >ref.out 2>&1 || fail "reference sweep exited $? (see $WORK/ref.out)"

# --- 2. uninterrupted sharded sweep merges identically ----------------------
"$ST2SIM" sweep --spec spec_sharded.json --out plain "$@" \
    --trace-cache "$TC" >plain.out 2>&1 ||
    fail "sharded sweep exited $? (see $WORK/plain.out)"
diff -r ref/merged plain/merged >/dev/null 2>&1 ||
    fail "sharded merged output differs from the serial reference"

# --- 3. chaos: random worker SIGKILLs + one supervisor SIGKILL, then resume -
"$ST2SIM" sweep --spec spec_sharded.json --out chaos "$@" \
    --trace-cache "$TC" --max-retries 10 --retry-backoff-ms 50 \
    >chaos_run1.out 2>&1 &
sup=$!
rounds=0
while [ $rounds -lt 4 ] && kill -0 "$sup" 2>/dev/null; do
    sleep 0.4
    # Workers run in their own process groups (setpgid in the supervisor),
    # so a group kill takes the whole shard attempt down at once.
    victim=$(pgrep -P "$sup" | head -n 1)
    [ -n "$victim" ] && kill -KILL "-$victim" 2>/dev/null
    rounds=$((rounds + 1))
done
# Now the supervisor itself, possibly mid-journal-append. Stopping it first
# freezes its worker list: the workers it leaves behind are killed by process
# group, never by name — a name match would also kill the same benches run
# by anything else on the machine (e.g. a concurrently running test).
kill -STOP "$sup" 2>/dev/null
for w in $(pgrep -P "$sup"); do kill -KILL "-$w" 2>/dev/null; done
kill -KILL "$sup" 2>/dev/null
wait "$sup" 2>/dev/null
sleep 0.3

[ -s chaos/journal.st2j ] || fail "chaos run left no journal to resume from"
"$ST2SIM" sweep --out chaos --resume "$@" --trace-cache "$TC" \
    --max-retries 10 --retry-backoff-ms 50 >chaos_resume.out 2>&1 ||
    fail "resume after chaos exited $? (see $WORK/chaos_resume.out)"
diff -r ref/merged chaos/merged >/dev/null 2>&1 ||
    fail "post-chaos merged output differs from the serial reference"
grep -q 'already done' chaos_resume.out ||
    fail "resume re-ran everything (journal replay found no done shards)"

# --- 4. persistent failure quarantines with exit 10 -------------------------
mkdir -p fakebench
printf '#!/bin/sh\nexit 3\n' > fakebench/fault_sensitivity
chmod +x fakebench/fault_sensitivity
cat > spec_bad.json <<'EOF'
{"name": "doomed", "scales": ["0.05"], "benches": [
  {"bench": "fault_sensitivity", "shards": 2}]}
EOF
"$ST2SIM" sweep --spec spec_bad.json --out quar --bench-dir fakebench \
    --max-retries 1 --retry-backoff-ms 20 >quar.out 2>&1
rc=$?
[ "$rc" -eq 10 ] || fail "quarantine sweep exited $rc, want 10"
grep -q 'error\[shard-failed\]' quar.out ||
    fail "quarantine sweep did not print error[shard-failed]"
[ -s quar/quarantine.json ] || fail "no quarantine.json written"
grep -q 'fault_sensitivity.s0_05.0of2' quar/quarantine.json ||
    fail "quarantine.json does not name the failed shard"

if [ "$fails" -ne 0 ]; then
    echo "sweep_chaos: $fails check(s) failed (workdir: $WORK)" >&2
    exit 1
fi
echo "sweep_chaos: all checks passed"
