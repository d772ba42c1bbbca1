#!/bin/sh
# End-to-end crash/resume smoke for st2sim's checkpointing
# (docs/robustness.md): a run killed by the watchdog, by SIGTERM or by
# SIGKILL mid-flight must resume from its snapshot to output files
# bit-identical to an uninterrupted run — and corrupted or truncated
# snapshots must be rejected with exit 8 and exactly one error line.
#
#   usage: checkpoint_smoke.sh /path/to/st2sim [workdir]
set -u

ST2SIM=${1:?usage: checkpoint_smoke.sh /path/to/st2sim [workdir]}
WORK=${2:-$(mktemp -d /tmp/st2_cksmoke.XXXXXX)}
mkdir -p "$WORK"
cd "$WORK" || exit 1

KERNEL=pathfinder
ARGS="--st2 --sms 2 --scale 0.25"
fails=0

fail() {
    echo "FAIL: $*" >&2
    fails=$((fails + 1))
}

# --- golden: one uninterrupted run -----------------------------------------
"$ST2SIM" run $KERNEL $ARGS --json golden.json --csv golden.csv \
    >golden.out 2>&1 || fail "golden run exited $?"

# --- 1. watchdog abort writes a resumable snapshot; resume == golden -------
"$ST2SIM" run $KERNEL $ARGS --watchdog-cycles 2000 --checkpoint wd.st2 \
    --json wd_partial.json >/dev/null 2>&1
[ $? -eq 4 ] || fail "watchdog run should exit 4"
grep -q '"status": "resumable"' wd_partial.json ||
    fail "aborted-with-snapshot run should report status resumable"
"$ST2SIM" run $KERNEL $ARGS --resume wd.st2 --json wd_resumed.json \
    --csv wd_resumed.csv >/dev/null 2>&1 || fail "watchdog resume exited $?"
cmp -s golden.json wd_resumed.json || fail "watchdog resume JSON != golden"
cmp -s golden.csv wd_resumed.csv || fail "watchdog resume CSV != golden"

# --- 2. SIGKILL mid-run: resume from the last atomic snapshot --------------
rm -f kill.st2
"$ST2SIM" run $KERNEL $ARGS --checkpoint kill.st2 --checkpoint-every 64 \
    --json kill.json >/dev/null 2>&1 &
pid=$!
# Wait for the first snapshot to land (tight cadence => almost immediate),
# then kill -9: the atomic tmp+rename protocol must leave a loadable file.
tries=0
while [ ! -f kill.st2 ] && [ "$tries" -lt 200 ]; do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.05
    tries=$((tries + 1))
done
kill -9 "$pid" 2>/dev/null
wait "$pid" 2>/dev/null
if [ -f kill.st2 ]; then
    "$ST2SIM" run $KERNEL $ARGS --resume kill.st2 --json kill_resumed.json \
        >/dev/null 2>&1 || fail "SIGKILL resume exited $?"
    cmp -s golden.json kill_resumed.json || fail "SIGKILL resume != golden"
else
    # The run finished before we could kill it: its direct output must
    # already match the golden run (checkpointing must not perturb it).
    cmp -s golden.json kill.json || fail "checkpointed run != golden"
fi

# --- 3. SIGTERM: graceful abort upgrades to a resumable snapshot -----------
rm -f term.st2
"$ST2SIM" run $KERNEL $ARGS --checkpoint term.st2 --checkpoint-every 512 \
    --json term.json >/dev/null 2>&1 &
pid=$!
sleep 0.2
if kill -TERM "$pid" 2>/dev/null; then
    wait "$pid"
    code=$?
    # 130 = interrupted mid-replay (snapshot written on the way out);
    # 0 = the run beat the signal. Anything else is a bug.
    case "$code" in
    130 | 0) : ;;
    *) fail "SIGTERM run exited $code (want 130 or 0)" ;;
    esac
else
    wait "$pid" 2>/dev/null
fi
if [ -f term.st2 ]; then
    "$ST2SIM" run $KERNEL $ARGS --resume term.st2 --json term_resumed.json \
        >/dev/null 2>&1 || fail "SIGTERM resume exited $?"
    cmp -s golden.json term_resumed.json || fail "SIGTERM resume != golden"
fi

# --- 4. corrupted snapshots are rejected: exit 8, one error line -----------
expect_invalid() {
    what=$1
    file=$2
    "$ST2SIM" run $KERNEL $ARGS --resume "$file" --json should_not_exist.json \
        >/dev/null 2>bad.err
    [ $? -eq 8 ] || fail "$what: want exit 8"
    [ "$(wc -l <bad.err)" -eq 1 ] || fail "$what: want exactly one error line"
    grep -q '^error\[snapshot-invalid\]:' bad.err ||
        fail "$what: missing structured error line"
    [ ! -f should_not_exist.json ] || fail "$what: partial report left behind"
    rm -f should_not_exist.json
}

# Bit-flip one payload byte (offset 100 is well past the 36-byte header).
cp wd.st2 flip.st2
byte=$(od -An -tu1 -j100 -N1 flip.st2 | tr -d ' ')
printf "$(printf '\\%03o' $((byte ^ 0xff)))" |
    dd of=flip.st2 bs=1 seek=100 conv=notrunc 2>/dev/null
expect_invalid "bit-flipped snapshot" flip.st2

head -c 50 wd.st2 >trunc.st2
expect_invalid "truncated snapshot" trunc.st2

# Stale format version: a file from a previous layout (version field at
# offset 8, checked before the header CRC) must be rejected up front and
# name the version mismatch, not misparse the payload.
for stale in 1 3; do
    cp wd.st2 stale.st2
    printf "\\00$stale" | dd of=stale.st2 bs=1 seek=8 conv=notrunc 2>/dev/null
    expect_invalid "stale-version $stale snapshot" stale.st2
    "$ST2SIM" run $KERNEL $ARGS --resume stale.st2 >/dev/null 2>stale.err
    grep -q "unsupported snapshot format version $stale" stale.err ||
        fail "stale-version $stale cause not named"
done

printf 'not a snapshot at all' >junk.st2
expect_invalid "junk snapshot" junk.st2

expect_invalid "missing snapshot" does_not_exist.st2

# Config mismatch: resuming under a different machine config is rejected.
"$ST2SIM" run $KERNEL --st2 --sms 4 --scale 0.25 --resume wd.st2 \
    >/dev/null 2>cfg.err
[ $? -eq 8 ] || fail "config-mismatch resume: want exit 8"
grep -q 'config mismatch' cfg.err || fail "config-mismatch cause not named"

if [ "$fails" -ne 0 ]; then
    echo "checkpoint_smoke: $fails check(s) failed (workdir: $WORK)" >&2
    exit 1
fi
echo "checkpoint_smoke: all checks passed"
