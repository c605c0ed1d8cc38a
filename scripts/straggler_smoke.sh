#!/usr/bin/env bash
# Fleet health & straggler defense smoke test (DESIGN.md §13).
#
# Phase A — reference digest: run a single-shape campaign (one app/mode/step
# shape, an nx axis) against a plain single-node daemon and record its
# result_digest.
#
# Phase B — straggler fleet: run the same campaign as one POST /v1/campaigns
# against a fleet-only coordinator with three workers, one of them armed
# with worker.slow=x:4 (every run inflated 4×). The sweep must
#   * complete within a wall-clock bound (hedged re-dispatch absorbs the
#     straggler instead of serializing behind it),
#   * produce a bit-identical result_digest to the healthy reference,
#   * journal at least one hedge_verified record (a hedged pair whose two
#     completions hash-matched — the free cross-node verify),
#   * leave zero duplicate done records in the journal, and
#   * end with the slow worker quarantined in GET /v1/workers while the
#     healthy workers stay admissible.
#
# Phase C — graceful drain: SIGTERM a healthy worker; it must deregister
# cleanly (exit 0, "drain started" logged) and the coordinator must drop it
# from the fleet view and observe its drain duration.
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh
# worker_health <worker-id>: health state from GET /v1/workers. Each worker
# object serializes id before health, so the first health after the id is
# that worker's.
worker_health() {
    fetch "http://$addr/v1/workers" \
        | grep -o "\"id\":\"$1\".*" | grep -o '"health":"[a-z]*"' \
        | head -n1 | cut -d'"' -f4
}

# One shape only (clamr|full|800): the coordinator's per-shape latency ring
# needs samples before it can judge a completion "slow", and hedging needs a
# p99 for the same shape. 16 nx values = 16 jobs of identical arithmetic
# depth on different grids — distinct spec hashes, one shape. The runs are
# sized heavy enough that a 4x-padded straggler visibly outlives the hedge
# deadline, yet light enough that its inflated uploads still land within
# the post-campaign observation window below.
cat >"$work/camp.json" <<'EOF'
{
  "tenant": "straggler-smoke",
  "generator": {
    "kind": "grid",
    "base": {"app": "clamr", "mode": "full", "steps": 800, "nx": 96, "ny": 48,
             "max_level": 1, "amr_interval": 10, "line_cut_n": 16},
    "axes": [
      {"field": "nx", "values": [64, 68, 72, 76, 80, 84, 88, 92,
                                 96, 100, 104, 108, 112, 116, 120, 124]}
    ]
  }
}
EOF

# ---------- Phase A: healthy single-node reference digest -----------------

echo "== phase A: single-node reference campaign"
start_daemon "$work/ref.log" -cache "$work/ref-cache" -workers 2
"$work/precision-client" -addr "http://$addr" -campaign "$work/camp.json" -retry 10 \
    >"$work/ref.out" 2>"$work/ref.err" || { cat "$work/ref.err"; fail "reference campaign failed"; }
ref_digest=$(sed -n 's/^result_digest=//p' "$work/ref.out")
[ -n "$ref_digest" ] || fail "reference run printed no result_digest"
grep -q 'total=16 completed=16' "$work/ref.out" || { cat "$work/ref.out"; fail "reference campaign incomplete"; }
kill "$daemon_pid" && wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
echo "   reference digest $ref_digest"

# ---------- Phase B: 3-worker fleet with one 4x straggler -----------------

echo "== phase B: fleet-only coordinator + 2 healthy workers + 1 slow worker"
start_daemon "$work/fleet.log" -workers 0 -cache "$work/fleet-cache" \
    -journal "$work/fleet.journal" -lease-ttl 3s \
    -hedge-budget 0.5 -hedge-after 500ms
worker1_pid=$(start_worker "$work/worker1.log" -name steady-a -slots 2)
worker2_pid=$(start_worker "$work/worker2.log" -name steady-b -slots 2)
# The straggler: four slots so it strands four leases at once, every run
# padded to 4x its real duration — alive and heartbeating, just sick.
worker3_pid=$(start_worker "$work/worker3.log" -name slowpoke -slots 4 \
    -faults 'worker.slow=x:4')
slow_id=$(worker_id "$work/worker3.log")
[ -n "$slow_id" ] || fail "could not parse the slow worker's ID"

start_s=$SECONDS
"$work/precision-client" -addr "http://$addr" -campaign "$work/camp.json" -retry 30 \
    >"$work/fleet.out" 2>"$work/fleet.err" \
    || { cat "$work/fleet.err"; cat "$work/fleet.out"; fail "fleet campaign failed"; }
elapsed=$(( SECONDS - start_s ))

# Wall-clock bound: a 4x straggler holding 4 of 8 slots must not serialize
# the sweep — hedges re-dispatch its leases onto the healthy workers.
[ "$elapsed" -le 120 ] || fail "fleet campaign took ${elapsed}s with one straggler (bound 120s)"
grep -q 'total=16 completed=16' "$work/fleet.out" || { cat "$work/fleet.out"; fail "fleet campaign incomplete"; }
grep -q 'failed=0' "$work/fleet.out" || { cat "$work/fleet.out"; fail "fleet campaign lost jobs"; }

# Bit-identity: placement (and hedging) never changes results.
fleet_digest=$(sed -n 's/^result_digest=//p' "$work/fleet.out")
[ "$fleet_digest" = "$ref_digest" ] \
    || fail "fleet digest $fleet_digest != healthy reference $ref_digest"
echo "   fleet digest matches the healthy reference (${elapsed}s)"

# The campaign finishes on the hedge winners, but the straggler's own
# inflated uploads trail in afterwards (lease kept alive by heartbeats).
# Quarantine needs three of those scored penSlow, so poll up to 90s — once
# the breaker trips we also know the hedged pairs both-landed.
slow_health=""
for _ in $(seq 1 300); do
    slow_health=$(worker_health "$slow_id")
    [ "$slow_health" = quarantined ] && break
    sleep 0.3
done
[ "$slow_health" = quarantined ] \
    || fail "slow worker $slow_id health = ${slow_health:-absent}, want quarantined"

# At least one hedged pair landed both completions hash-identical and was
# journaled as the audit record.
hedge_records=$(grep -c '"type":"hedge_verified"' "$work/fleet.journal" || true)
[ "${hedge_records:-0}" -ge 1 ] || fail "no hedge_verified record in the journal"
grep -q '"type":"hedge_verified".*"outcome":"verified"' "$work/fleet.journal" \
    || fail "hedge records exist but none verified hash-identical"
hedged=$(metric 'precisiond_hedges_total{outcome="fired"}')
[ -n "$hedged" ] && [ "$hedged" -ge 1 ] || fail "no hedge fired (metric ${hedged:-absent})"

# Exactly-once: hedged duplicates must not double-complete any job.
dups=$(grep -o '"type":"done","job_id":"[^"]*"' "$work/fleet.journal" | sort | uniq -d)
[ -z "$dups" ] || fail "duplicated done records in journal: $dups"

# Healthy workers stay admissible while the breaker holds the straggler.
for logf in "$work/worker1.log" "$work/worker2.log"; do
    wid=$(worker_id "$logf")
    h=$(worker_health "$wid")
    [ "$h" = quarantined ] && fail "healthy worker $wid ended quarantined"
done
quarantined=$(metric 'precisiond_worker_health{state="quarantined"}')
[ "${quarantined:-0}" = 1 ] || fail "worker_health{quarantined} = ${quarantined:-absent}, want 1"
echo "   slow worker $slow_id quarantined ($hedge_records hedge_verified records, $hedged hedges fired)"

# ---------- Phase C: graceful drain ---------------------------------------

echo "== phase C: SIGTERM drain of a healthy worker"
kill -TERM "$worker1_pid"
drained=""
for _ in $(seq 1 100); do
    kill -0 "$worker1_pid" 2>/dev/null || { drained=yes; break; }
    sleep 0.1
done
[ -n "$drained" ] || fail "worker did not exit within 10s of SIGTERM"
worker1_pid=""
# The worker is not this shell's child (start_worker forks it from a command
# substitution), so assert the clean-exit log lines instead of its status.
grep -q 'drain started' "$work/worker1.log" || { cat "$work/worker1.log"; fail "worker logged no drain"; }
grep -q 'deregistered' "$work/worker1.log" || { cat "$work/worker1.log"; fail "worker never deregistered cleanly"; }
drain_obs=$(metric 'precisiond_worker_drain_seconds_count')
[ -n "$drain_obs" ] && [ "$drain_obs" -ge 1 ] \
    || fail "coordinator observed no drain duration (metric ${drain_obs:-absent})"
steady_a=$(worker_id "$work/worker1.log")
fetch "http://$addr/v1/workers" | grep -q "\"id\":\"$steady_a\"" \
    && fail "drained worker $steady_a still listed in the fleet view"
echo "   worker $steady_a drained, deregistered and dropped from the fleet"

echo "straggler-smoke OK (digest $ref_digest; ${elapsed}s; hedge_verified=$hedge_records)"
