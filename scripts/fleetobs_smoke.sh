#!/usr/bin/env bash
# Fleet observability smoke test (DESIGN.md §14).
#
# Phase A — reference digest, observability off: run a single-shape campaign
# against a plain single-node daemon with energy accounting disabled
# (-arch '') and record its result_digest. The run must print no energy
# line — nothing to account with, nothing invented.
#
# Phase B — fully-instrumented fleet: the same campaign as one POST
# /v1/campaigns against a fleet-only coordinator with -trace-export armed
# and two workers serving /metrics on -read-addr, one Haswell and one
# Tesla P100. The sweep must
#   * produce a bit-identical result_digest to the uninstrumented
#     reference (tracing, federation and pricing ride outside the result
#     hash),
#   * stitch >=1 worker-side solve span (tagged node=worker) into every
#     job's GET /v1/jobs/{id}/trace,
#   * dump a Chrome trace_event file per completed job into the
#     -trace-export directory,
#   * converge GET /metrics/fleet to the exact sum of the two workers'
#     own /metrics scrapes, and
#   * price the campaign: a client energy line covering all jobs,
#     nonzero precisiond_job_joules_total, and per-worker arch +
#     joules_total in GET /v1/workers.
#
# Phase C — cache stability: resubmit the identical campaign; every job
# must dedup against the cache and the energy line (joules, dollars,
# $/experiment) must come back bit-for-bit identical — modeled energy
# derives from deterministic counters, never from wall time.
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh
# Eight jobs of one shape: enough to spread across both workers' slots and
# to exercise per-job trace stitching without dragging the smoke out.
cat >"$work/camp.json" <<'EOF'
{
  "tenant": "fleetobs-smoke",
  "generator": {
    "kind": "grid",
    "base": {"app": "clamr", "mode": "full", "steps": 400, "nx": 64, "ny": 32,
             "max_level": 1, "amr_interval": 10, "line_cut_n": 16},
    "axes": [
      {"field": "nx", "values": [32, 40, 48, 56, 64, 72, 80, 88]}
    ]
  }
}
EOF

# ---------- Phase A: uninstrumented single-node reference -----------------

echo "== phase A: single-node reference, energy accounting off"
start_daemon "$work/ref.log" -cache "$work/ref-cache" -workers 2 -arch ''
"$work/precision-client" -addr "http://$addr" -campaign "$work/camp.json" -retry 10 \
    >"$work/ref.out" 2>"$work/ref.err" || { cat "$work/ref.err"; fail "reference campaign failed"; }
ref_digest=$(sed -n 's/^result_digest=//p' "$work/ref.out")
[ -n "$ref_digest" ] || fail "reference run printed no result_digest"
grep -q 'total=8 completed=8' "$work/ref.out" || { cat "$work/ref.out"; fail "reference campaign incomplete"; }
grep -q '^energy:' "$work/ref.out" \
    && fail "energy line printed with accounting disabled (-arch '')"
kill "$daemon_pid" && wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
echo "   reference digest $ref_digest"

# ---------- Phase B: instrumented 2-worker fleet --------------------------

echo "== phase B: fleet coordinator + Haswell worker + Tesla P100 worker"
start_daemon "$work/fleet.log" -workers 0 -cache "$work/fleet-cache" \
    -lease-ttl 3s -trace-export "$work/traces"
worker1_pid=$(start_worker "$work/worker1.log" -name obs-haswell -slots 2 \
    -read-addr 127.0.0.1:0 -arch Haswell)
worker2_pid=$(start_worker "$work/worker2.log" -name obs-p100 -slots 2 \
    -read-addr 127.0.0.1:0 -arch 'Tesla P100')

"$work/precision-client" -addr "http://$addr" -campaign "$work/camp.json" -retry 30 \
    >"$work/fleet.out" 2>"$work/fleet.err" \
    || { cat "$work/fleet.err"; cat "$work/fleet.out"; fail "fleet campaign failed"; }
grep -q 'total=8 completed=8' "$work/fleet.out" || { cat "$work/fleet.out"; fail "fleet campaign incomplete"; }

# Bit-identity: the fully-instrumented fleet must reproduce the
# uninstrumented reference exactly — observability never touches results.
fleet_digest=$(sed -n 's/^result_digest=//p' "$work/fleet.out")
[ "$fleet_digest" = "$ref_digest" ] \
    || fail "instrumented fleet digest $fleet_digest != reference $ref_digest"
echo "   fleet digest matches the uninstrumented reference"

# Every job's stitched trace carries the worker-side subtree: a solve span,
# tagged node=worker by the graft.
job_ids=$(fetch "http://$addr/v1/jobs" | grep -o '"id":"job-[0-9]*"' | cut -d'"' -f4 | sort -u)
njobs=$(echo "$job_ids" | grep -c . || true)
[ "$njobs" = 8 ] || fail "expected 8 jobs in GET /v1/jobs, got $njobs"
for id in $job_ids; do
    trace=$(fetch "http://$addr/v1/jobs/$id/trace")
    echo "$trace" | grep -q '"name":"solve"' \
        || fail "job $id trace has no worker-side solve span"
    echo "$trace" | grep -q '"key":"node","value":"worker"' \
        || fail "job $id trace has no node=worker span"
done
echo "   all 8 job traces carry a stitched node=worker solve span"

# -trace-export dumped a Chrome trace_event timeline per completed job.
ndumps=$(ls "$work/traces" 2>/dev/null | grep -c . || true)
[ "$ndumps" -ge 8 ] || fail "trace-export wrote $ndumps files, want >=8"
grep -q '"traceEvents"' "$work/traces"/* || fail "trace-export files are not Chrome trace_event JSON"
grep -q '"solve"' "$work/traces"/* || fail "trace-export dumps carry no solve span"

# Federation: GET /metrics/fleet must converge (on the scrape cadence,
# lease-ttl/3 = 1s here) to the exact sum of both workers' own /metrics.
# Lease counts are quiescent once the campaign is done, so the sum is
# stable; poll until the coordinator's last scrape reflects it.
read_addrs=$(fetch "http://$addr/v1/workers" | grep -o '"read_addr":"[^"]*"' | cut -d'"' -f4)
naddrs=$(echo "$read_addrs" | grep -c . || true)
[ "$naddrs" = 2 ] || fail "expected 2 worker read addrs, got $naddrs"
lease_sum=0
for ra in $read_addrs; do
    v=$(metric "$ra/metrics" 'precision_worker_leases_total{outcome="ok"}')
    [ -n "$v" ] || fail "worker at $ra exports no ok-lease counter"
    lease_sum=$((lease_sum + v))
done
[ "$lease_sum" -ge 8 ] || fail "workers completed $lease_sum leases, want >=8"
fleet_leases=""
for _ in $(seq 1 100); do
    fleet_leases=$(metric "http://$addr/metrics/fleet" 'precision_worker_leases_total{outcome="ok"}')
    [ "$fleet_leases" = "$lease_sum" ] && break
    sleep 0.2
done
[ "$fleet_leases" = "$lease_sum" ] \
    || fail "/metrics/fleet ok-leases ${fleet_leases:-absent} != per-worker sum $lease_sum"
echo "   /metrics/fleet matches the per-worker scrape sum ($lease_sum ok leases)"

# Pricing: the client printed one energy line covering all 8 jobs, the
# coordinator counts nonzero joules for the sweep's app/mode, and the fleet
# view attributes arch + accumulated joules per worker.
energy_line=$(grep '^energy: ' "$work/fleet.out" || true)
[ -n "$energy_line" ] || { cat "$work/fleet.out"; fail "no energy line in instrumented campaign output"; }
echo "$energy_line" | grep -q '^energy: jobs=8 ' || fail "energy line does not cover all 8 jobs: $energy_line"
joules=$(metric "http://$addr/metrics" 'precisiond_job_joules_total{app="clamr",mode="full"}')
[ -n "$joules" ] || fail "coordinator exports no precisiond_job_joules_total for the sweep"
awk -v j="$joules" 'BEGIN{ exit !(j > 0) }' || fail "precisiond_job_joules_total = $joules, want > 0"
workers_view=$(fetch "http://$addr/v1/workers")
echo "$workers_view" | grep -q '"arch":"Haswell"' || fail "fleet view lists no Haswell worker"
echo "$workers_view" | grep -q '"arch":"Tesla P100"' || fail "fleet view lists no Tesla P100 worker"
wj_sum=$(echo "$workers_view" | grep -o '"joules_total":[0-9.eE+-]*' | cut -d: -f2 \
    | awk '{s += $1} END {printf "%g", s}')
awk -v s="$wj_sum" 'BEGIN{ exit !(s > 0) }' \
    || fail "per-worker joules_total sum to ${wj_sum:-0}, want > 0"
echo "   $energy_line"

# ---------- Phase C: modeled energy is cache-stable -----------------------

echo "== phase C: resubmit from cache, energy must be bit-identical"
"$work/precision-client" -addr "http://$addr" -campaign "$work/camp.json" -retry 10 \
    >"$work/rerun.out" 2>"$work/rerun.err" \
    || { cat "$work/rerun.err"; fail "cached resubmission failed"; }
grep -q 'total=8 completed=8 deduped=8' "$work/rerun.out" \
    || { cat "$work/rerun.out"; fail "resubmission did not dedup every job from cache"; }
rerun_digest=$(sed -n 's/^result_digest=//p' "$work/rerun.out")
[ "$rerun_digest" = "$ref_digest" ] || fail "cached rerun digest $rerun_digest != reference $ref_digest"
rerun_energy=$(grep '^energy: ' "$work/rerun.out" || true)
[ "$rerun_energy" = "$energy_line" ] \
    || fail "cached rerun energy drifted: '$rerun_energy' != '$energy_line'"
echo "   cached rerun reproduced the energy line bit-for-bit"

echo "fleetobs-smoke OK (digest $ref_digest; $energy_line)"
