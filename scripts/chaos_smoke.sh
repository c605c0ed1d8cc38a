#!/usr/bin/env bash
# Chaos smoke test for precisiond's fault-tolerance layer (DESIGN.md §7).
#
# Phase A — crash/restart bit-identity: run the quick sweep against a
# daemon with fault injection armed (10% cache-put failures, 10% journal
# fsync failures, one worker stall), SIGKILL the daemon mid-sweep, restart
# it over the same journal/cache/checkpoints, and assert the completed
# sweep's per-spec final-state hashes are bit-identical to an undisturbed
# reference run — with no job lost and none run twice.
#
# Phase B — numerical-guard escalation: with an injected NaN guard trip,
# a min-precision submission must complete one rung up (mixed) and record
# the escalation in its result; an invalid spec must still be rejected
# outright (permanent errors are not retried).
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh
# ---------- Phase A: crash/restart bit-identity under injected faults ----

echo "== phase A: reference sweep (no faults)"
start_daemon "$work/ref.log" -cache "$work/ref-cache"
"$work/precision-client" -addr "http://$addr" -sweep quick -json >"$work/ref.json"
kill "$daemon_pid" && wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
extract_pairs "$work/ref.json" >"$work/ref.pairs"
[ -s "$work/ref.pairs" ] || fail "reference sweep produced no results"

echo "== phase A: chaos sweep (faults armed, SIGKILL mid-sweep)"
export PRECISIOND_FAULT_SEED=42
export PRECISIOND_FAULTS="cache.put=p:0.1,journal.sync=p:0.1,worker.stall=n:6"
chaos_flags=(-cache "$work/chaos-cache" -journal "$work/chaos.journal"
             -ckpt-dir "$work/chaos-ckpt" -ckpt-every 10
             -job-timeout 8s -grace 1s)
start_daemon "$work/chaos1.log" "${chaos_flags[@]}"

"$work/precision-client" -addr "http://$addr" -sweep quick -retry 20 -json >"$work/chaos1.json" 2>"$work/chaos1.err" &
client_pid=$!

# SIGKILL as soon as the sweep is visibly in flight: jobs admitted and at
# least one running, so the journal owes queued and in-flight work.
killed=""
for _ in $(seq 1 200); do
    jobs=$(fetch "http://$addr/v1/jobs" || true)
    if echo "$jobs" | grep -q '"status":"running"'; then
        kill -9 "$daemon_pid"
        killed=yes
        break
    fi
    sleep 0.05
done
[ -n "$killed" ] || fail "never observed a running job to kill"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
wait "$client_pid" 2>/dev/null || true   # first client may have died with the daemon
client_pid=""

echo "== phase A: restart over the same journal/cache/checkpoints"
start_daemon "$work/chaos2.log" "${chaos_flags[@]}"
grep -q 'recovered' "$work/chaos2.log" || fail "restarted daemon recovered nothing from the journal"
"$work/precision-client" -addr "http://$addr" -sweep quick -retry 20 -json >"$work/chaos2.json" \
    || fail "post-restart sweep did not complete (jobs lost?)"
extract_pairs "$work/chaos2.json" >"$work/chaos.pairs"

diff -u "$work/ref.pairs" "$work/chaos.pairs" >/dev/null \
    || { diff -u "$work/ref.pairs" "$work/chaos.pairs" >&2 || true
         fail "state hashes after SIGKILL/restart differ from undisturbed run"; }

# No job may complete twice: at most one done record per job in the journal.
dups=$(grep -o '"type":"done","job_id":"[^"]*"' "$work/chaos.journal" | sort | uniq -d)
[ -z "$dups" ] || fail "duplicated done records in journal: $dups"
kill "$daemon_pid" && wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
unset PRECISIOND_FAULTS PRECISIOND_FAULT_SEED

# ---------- Phase B: numerical-guard precision escalation -----------------

echo "== phase B: injected NaN escalates min -> mixed"
start_daemon "$work/esc.log" -cache "$work/esc-cache" -faults "runner.nan=n:1"
cat >"$work/min.json" <<'EOF'
{"app": "clamr", "mode": "min", "steps": 30, "nx": 16, "ny": 16, "max_level": 1, "amr_interval": 5}
EOF
"$work/precision-client" -addr "http://$addr" -spec "$work/min.json" -json >"$work/esc.json" \
    || fail "escalated job did not complete"
grep -q '"from_mode":"min"' "$work/esc.json" || fail "result records no escalation: $(cat "$work/esc.json")"
grep -q '"to_mode":"mixed"' "$work/esc.json" || fail "escalation did not climb to mixed: $(cat "$work/esc.json")"
grep -q '"mode":"mixed"' "$work/esc.json" || fail "result does not report the executed (mixed) spec"

# Permanent errors are rejected outright, never retried or escalated.
if echo '{"app":"nope","mode":"full","steps":1}' | "$work/precision-client" -addr "http://$addr" -spec - >/dev/null 2>&1; then
    fail "invalid spec was accepted"
fi

echo "chaos-smoke OK"
