#!/bin/sh
# Hostile-argv sweep for st2sim: every malformed invocation must exit with
# the documented bad-arguments code (2) after printing usage or a one-line
# `error[...]` diagnostic — never an unhandled exception, never a signal
# death (exit >= 128), never a silent success.
#
#   usage: cli_fuzz.sh /path/to/st2sim
set -u

ST2SIM=${1:?usage: cli_fuzz.sh /path/to/st2sim}
fails=0

expect_code() {
    want=$1
    shift
    out=$("$ST2SIM" "$@" 2>&1)
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: st2sim $* -> exit $got (want $want)" >&2
        echo "$out" | head -3 >&2
        fails=$((fails + 1))
    elif [ "$got" -ge 128 ]; then
        echo "FAIL: st2sim $* died on a signal (exit $got)" >&2
        fails=$((fails + 1))
    fi
}

# --- no / unknown commands -------------------------------------------------
expect_code 2
expect_code 2 frobnicate
expect_code 2 run
expect_code 2 run no_such_kernel
expect_code 2 run pathfinder --no-such-flag
expect_code 2 run pathfinder extra_positional_junk

# --- numeric options: junk, trailing garbage, out-of-range, non-finite -----
expect_code 2 run pathfinder --scale
expect_code 2 run pathfinder --scale banana
expect_code 2 run pathfinder --scale 0.5x
expect_code 2 run pathfinder --scale -1
expect_code 2 run pathfinder --scale 0
expect_code 2 run pathfinder --scale 99
expect_code 2 run pathfinder --scale nan
expect_code 2 run pathfinder --scale inf
expect_code 2 run pathfinder --sms 0
expect_code 2 run pathfinder --sms -3
expect_code 2 run pathfinder --sms 2x
expect_code 2 run pathfinder --jobs banana
expect_code 2 run pathfinder --jobs 0
expect_code 2 run pathfinder --jobs -2
expect_code 2 run pathfinder --max-warps -1
expect_code 2 run pathfinder --max-warps 2x
expect_code 2 run pathfinder --watchdog-cycles nope
expect_code 2 run pathfinder --watchdog-ms -5

# --- fault-injection spec parser -------------------------------------------
expect_code 2 run pathfinder --inject crf:1e-3
expect_code 2 run pathfinder --st2 --inject
expect_code 2 run pathfinder --st2 --inject crf
expect_code 2 run pathfinder --st2 --inject crf:
expect_code 2 run pathfinder --st2 --inject crf:2
expect_code 2 run pathfinder --st2 --inject crf:nan
expect_code 2 run pathfinder --st2 --inject :::
expect_code 2 run pathfinder --st2 --inject bogus:0.1
expect_code 2 run pathfinder --st2 --inject crf:1e-3,,
expect_code 2 run pathfinder --st2 --inject-seed twelve

# --- carry-predictor policy spec parser -------------------------------------
expect_code 2 run pathfinder --st2 --spec-policy
expect_code 2 run pathfinder --st2 --spec-policy bogus
expect_code 2 run pathfinder --st2 --spec-policy CRF
expect_code 2 run pathfinder --st2 --spec-policy crf,
expect_code 2 run pathfinder --st2 --spec-policy crf,pattern=1
expect_code 2 run pathfinder --st2 --spec-policy static,pattern
expect_code 2 run pathfinder --st2 --spec-policy static,pattern=
expect_code 2 run pathfinder --st2 --spec-policy static,pattern=128
expect_code 2 run pathfinder --st2 --spec-policy static,pattern=-1
expect_code 2 run pathfinder --st2 --spec-policy static,pattern=7f
expect_code 2 run pathfinder --st2 --spec-policy static,pattern=1,pattern=2
expect_code 2 run pathfinder --st2 --spec-policy static,patern=1
expect_code 2 run pathfinder --st2 --spec-policy tage,tables=0
expect_code 2 run pathfinder --st2 --spec-policy tage,tables=7
expect_code 2 run pathfinder --st2 --spec-policy tage,entries=100
expect_code 2 run pathfinder --st2 --spec-policy tage,entries=999999999999
expect_code 2 run pathfinder --st2 --spec-policy tage,minhist=33
expect_code 2 run pathfinder --st2 --spec-policy tage,tables=6,minhist=4
expect_code 2 run pathfinder --st2 --spec-policy "=,=,="
expect_code 2 run pathfinder --st2 --spec-policy "mru;rm -rf /"
# a non-default policy without --st2, or with trace/disasm, is a usage error
expect_code 2 run pathfinder --spec-policy mru
expect_code 2 run pathfinder --st2 --spec-policy mru --trace
expect_code 2 run pathfinder --st2 --spec-policy mru --disasm

# --- --spec names a Figure 5 lattice point and applies to --trace only -----
expect_code 2 run pathfinder --spec bogus
expect_code 2 run pathfinder --st2 --spec Prev+Peek
expect_code 2 run pathfinder --trace --spec
expect_code 2 run pathfinder --trace --spec ""
expect_code 2 run pathfinder --trace --spec bogus
# an unknown point is reported once, before any kernel is prepared
spec_out=$("$ST2SIM" run all --trace --spec bogus 2>&1)
spec_rc=$?
spec_errs=$(printf '%s\n' "$spec_out" | grep -c "unknown --spec")
if [ "$spec_rc" -ne 2 ] || [ "$spec_errs" -ne 1 ]; then
    echo "FAIL: run all --trace --spec bogus -> exit $spec_rc, $spec_errs error line(s) (want 2, 1)" >&2
    fails=$((fails + 1))
fi

# --- checkpoint/resume flag combinations -----------------------------------
expect_code 2 run pathfinder --checkpoint
expect_code 2 run pathfinder --checkpoint-every 100
expect_code 2 run pathfinder --checkpoint c.st2 --checkpoint-every junk
expect_code 2 run pathfinder --checkpoint c.st2 --trace
expect_code 2 run pathfinder --resume c.st2 --trace
expect_code 2 run pathfinder --resume c.st2 --disasm
expect_code 2 run pathfinder --resume

# --- resume targets that are not snapshots exit 8, not 2, not a crash ------
expect_code 8 run pathfinder --st2 --resume /nonexistent/dir/x.st2

# --- serve/client argv ------------------------------------------------------
expect_code 2 serve
expect_code 2 serve --socket
expect_code 2 serve --socket /tmp/x.sock --port 4242
expect_code 2 serve --socket /tmp/x.sock --workers 0
expect_code 2 serve --socket /tmp/x.sock --workers 2x
expect_code 2 serve --socket /tmp/x.sock --queue-depth 0
expect_code 2 serve --port 99999
expect_code 2 serve --socket /tmp/x.sock --trace-cache d --no-cache
expect_code 2 serve --socket /tmp/x.sock --no-such-flag
expect_code 2 client
expect_code 2 client --socket /tmp/x.sock --port 4242
expect_code 2 client --no-such-flag
# connecting to a daemon that is not there is an io error, not a crash
expect_code 7 client --socket /nonexistent/dir/x.sock

# --- broken stdout pipe: structured io-error exit, not a SIGPIPE death ------
# `head -c 0` closes the pipe before the simulator's first write (the sleep
# guarantees the read end is gone even on a loaded machine); the CLI must
# map EPIPE to exit 7 with error[io-error].
rc_file=$(mktemp /tmp/st2_fuzz_rc.XXXXXX)
{
    sleep 0.3
    "$ST2SIM" run pathfinder --scale 0.15 2>/dev/null
    echo $? >"$rc_file"
} | head -c 0
pipe_rc=$(cat "$rc_file")
rm -f "$rc_file"
if [ "$pipe_rc" -ne 7 ]; then
    echo "FAIL: broken stdout pipe -> exit $pipe_rc (want 7)" >&2
    fails=$((fails + 1))
fi

# --- second SIGTERM terminates: the handler re-arms SIG_DFL after firing ----
# One signal winds down gracefully at the next cancel poll; a run wedged in
# a phase that never polls must die on the second instead of swallowing it.
# sgemm --scale 4 spends multiple seconds in the serial capture phase (which
# by design does not poll the cancel flag), so the first TERM at 0.5s lands
# mid-capture and the run is guaranteed still wedged when the second
# arrives. Retried once for pathologically loaded machines.
attempt=0
double_rc=0
while [ "$attempt" -lt 2 ]; do
    "$ST2SIM" run sgemm --scale 4 >/dev/null 2>&1 &
    pid=$!
    sleep 0.5
    kill -TERM "$pid" 2>/dev/null
    sleep 0.3
    kill -TERM "$pid" 2>/dev/null
    wait "$pid"
    double_rc=$?
    [ "$double_rc" -eq 143 ] && break
    attempt=$((attempt + 1))
done
if [ "$double_rc" -ne 143 ]; then
    echo "FAIL: second SIGTERM -> exit $double_rc (want 143, signal death)" >&2
    fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
    echo "cli_fuzz: $fails case(s) failed" >&2
    exit 1
fi
echo "cli_fuzz: all cases rejected correctly"
