#!/usr/bin/env bash
# Distributed-dispatch smoke test (DESIGN.md §9).
#
# Phase A — single-node reference: run the quick paper sweep against a
# plain daemon and record each spec's final-state hash.
#
# Phase B — fleet bit-identity under a worker kill: start a fleet-only
# coordinator (-workers 0, short lease TTL, journaled) plus two
# precision-worker nodes, run the same sweep, SIGKILL one worker while it
# holds a lease mid-sweep, and assert
#   * the sweep still completes (expired leases re-queue under their
#     original job IDs and the surviving worker absorbs them),
#   * the per-spec final-state hashes are bit-identical to the single-node
#     reference (placement never changes results), and
#   * no job completed twice (at most one done record per job ID in the
#     journal) while the lease-expiry/requeue counters prove the kill was
#     actually absorbed, not dodged.
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh
# ---------- Phase A: single-node reference sweep --------------------------

echo "== phase A: single-node reference sweep"
start_daemon "$work/ref.log" -cache "$work/ref-cache"
"$work/precision-client" -addr "http://$addr" -sweep quick -json >"$work/ref.json"
kill "$daemon_pid" && wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
extract_pairs "$work/ref.json" >"$work/ref.pairs"
[ -s "$work/ref.pairs" ] || fail "reference sweep produced no results"

# ---------- Phase B: 2-worker fleet, one SIGKILL'd mid-sweep --------------

echo "== phase B: fleet-only coordinator + 2 workers"
start_daemon "$work/fleet.log" -workers 0 -cache "$work/fleet-cache" \
    -journal "$work/fleet.journal" -lease-ttl 2s
# The victim pads each lease to 20x its solve time after the solve
# (results stay bit-identical), so a lease seen active is still held when
# the SIGKILL below lands instead of completing in between.
worker1_pid=$(start_worker "$work/worker1.log" -name victim -faults 'worker.slow=x:20')
worker2_pid=$(start_worker "$work/worker2.log" -name survivor)

"$work/precision-client" -addr "http://$addr" -sweep quick -retry 30 -json >"$work/fleet.json" 2>"$work/fleet.err" &
client_pid=$!

victim_id=$(sed -n 's/^registered as \(worker-[0-9]*\) .*/\1/p' "$work/worker1.log")
[ -n "$victim_id" ] || fail "could not parse the victim's worker ID"

# SIGKILL the victim once the fleet view shows both single-slot workers
# holding leases (fleet-level active_leases is the final JSON field): the
# kill must strand real leased work, not an idle node.
killed=""
for _ in $(seq 1 400); do
    view=$(fetch "http://$addr/v1/workers" || true)
    if echo "$view" | grep -q '"active_leases":2}$'; then
        kill -9 "$worker1_pid"
        killed=yes
        break
    fi
    sleep 0.05
done
[ -n "$killed" ] || fail "victim worker never held a lease to strand"
wait "$worker1_pid" 2>/dev/null || true
worker1_pid=""
echo "   killed $victim_id mid-lease"

# The sweep must still complete: expired leases re-queue and the survivor
# absorbs them.
wait "$client_pid" || { cat "$work/fleet.err"; fail "fleet sweep did not complete after the worker kill"; }
client_pid=""
extract_pairs "$work/fleet.json" >"$work/fleet.pairs"

diff -u "$work/ref.pairs" "$work/fleet.pairs" >/dev/null \
    || { diff -u "$work/ref.pairs" "$work/fleet.pairs" >&2 || true
         fail "fleet state hashes differ from the single-node reference"; }

# The kill was absorbed, not dodged: leases expired and jobs re-queued.
expired=$(metric 'dispatch_leases_total{event="expired"}')
requeued=$(metric 'precisiond_jobs_total{event="requeued"}')
[ -n "$expired" ] && [ "$expired" -ge 1 ] || fail "no lease expiry recorded (expired=${expired:-absent})"
[ -n "$requeued" ] && [ "$requeued" -ge 1 ] || fail "no requeue recorded (requeued=${requeued:-absent})"

# Exactly-once: at most one done record per job in the journal.
dups=$(grep -o '"type":"done","job_id":"[^"]*"' "$work/fleet.journal" | sort | uniq -d)
[ -z "$dups" ] || fail "duplicated done records in journal: $dups"

# Nothing is still owed: every admitted job reached a terminal state.
stats=$(fetch "http://$addr/v1/cache/stats")
echo "$stats" | grep -q '"queue_depth":0' || fail "queue not drained: $stats"

echo "dispatch-smoke OK (expired=$expired requeued=$requeued)"
