#!/usr/bin/env bash
# Campaign API smoke test (DESIGN.md §12).
#
# Phase A — reference digest: expand the smoke grid CLIENT-side with
# `precision-client -grid` against a plain single-node daemon. The printed
# result_digest (sha-256 over sorted "spec_hash state_hash" pairs) is the
# ground truth a server-side campaign must bit-match.
#
# Phase B — fleet campaign under chaos: submit the same spec file as ONE
# `POST /v1/campaigns` to a fleet-only coordinator (journal on, two
# workers). Mid-campaign, SIGKILL a worker (lease expiry must re-dispatch
# its jobs) and then SIGKILL the coordinator itself mid-expansion and
# restart it over the same journal/cache — the campaign must resume under
# its original ID and finish with the Phase A digest, zero failed jobs.
# While the campaign saturates the queue, an interactive POST /v1/jobs
# must still be admitted and complete (ReserveInteractive + WFQ).
#
# Phase C — warm resubmit: the identical campaign re-submitted to the
# surviving coordinator must complete with every job deduped from cache
# and the same digest. Concrete campaigns leave the autotuner empty: no
# rows, no probe runs.
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh
# campaign_field <json> <key>: integer aggregate field from a campaign view.
jfield() { echo "$1" | grep -o "\"$2\":[0-9]*" | head -n1 | cut -d: -f2; }

# The smoke grid: 3 precision modes x 6 step counts = 18 jobs, sized so the
# campaign stays in flight long enough to be shot at.
cat >"$work/camp.json" <<'EOF'
{
  "tenant": "smoke",
  "generator": {
    "kind": "grid",
    "base": {"app": "clamr", "mode": "full", "steps": 400, "nx": 96, "ny": 48,
             "max_level": 1, "amr_interval": 10, "line_cut_n": 16},
    "axes": [
      {"field": "mode",  "values": ["min", "mixed", "full"]},
      {"field": "steps", "values": [400, 500, 600, 700, 800, 900]}
    ]
  }
}
EOF

# ---------- Phase A: client-side expansion = reference digest -------------

echo "== phase A: client-side grid expansion (single node) for the reference digest"
start_daemon "$work/ref.log" -addr 127.0.0.1:0 -cache "$work/ref-cache" -workers 2
"$work/precision-client" -addr "http://$addr" -grid "$work/camp.json" -retry 10 \
    >"$work/ref.out" 2>"$work/ref.err" || { cat "$work/ref.err"; fail "reference grid run failed"; }
ref_digest=$(sed -n 's/^result_digest=//p' "$work/ref.out")
[ -n "$ref_digest" ] || fail "reference run printed no result_digest"
grep -q 'total=18 completed=18' "$work/ref.out" || { cat "$work/ref.out"; fail "reference grid incomplete"; }
kill "$daemon_pid" && wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
echo "   reference digest $ref_digest"

# ---------- Phase B: one POST /v1/campaigns vs a chaos-ridden fleet -------

echo "== phase B: fleet campaign (journal on, 2 workers)"
camp_flags=(-cache "$work/camp-cache" -journal "$work/camp.journal"
            -workers 0 -queue-depth 8 -campaign-slots 4 -lease-ttl 3s)
start_daemon "$work/camp1.log" -addr 127.0.0.1:0 "${camp_flags[@]}"
camp_addr=$addr
worker1_pid=$(start_worker "$work/worker1.log" -slots 2)
worker2_pid=$(start_worker "$work/worker2.log" -slots 2)

"$work/precision-client" -addr "http://$camp_addr" -campaign "$work/camp.json" -retry 40 \
    >"$work/camp.out" 2>"$work/camp.err" &
client_pid=$!

# Wait for the campaign to be visibly in flight, then SIGKILL worker 1:
# its leased jobs must be re-dispatched after lease expiry.
view=""
for _ in $(seq 1 400); do
    view=$(fetch "http://$camp_addr/v1/campaigns" || true)
    done_n=$(jfield "$view" completed); done_n=${done_n:-0}
    if [ "$done_n" -ge 1 ]; then break; fi
    sleep 0.05
done
[ "${done_n:-0}" -ge 1 ] || fail "campaign never completed a first job"
kill -9 "$worker1_pid"; worker1_pid=""
echo "   worker 1 SIGKILL'd after $done_n completions"

# While the campaign holds the queue, interactive POST /v1/jobs must still
# get through the reserve (and not time out behind the bulk flow).
echo '{"app": "clamr", "mode": "full", "steps": 12, "nx": 16, "ny": 16, "max_level": 1, "amr_interval": 5}' >"$work/inter.json"
start_ns=$(date +%s)
"$work/precision-client" -addr "http://$camp_addr" -spec "$work/inter.json" -retry 10 \
    >"$work/inter.out" 2>&1 || { cat "$work/inter.out"; fail "interactive job starved behind the campaign"; }
inter_secs=$(( $(date +%s) - start_ns ))
[ "$inter_secs" -le 60 ] || fail "interactive job took ${inter_secs}s behind the campaign"
echo "   interactive job completed in ${inter_secs}s mid-campaign"

# SIGKILL the coordinator mid-campaign (and the surviving worker with it),
# restart over the same journal/cache on the same address: the campaign
# must resume under its original ID.
camp_id=$(echo "$view" | grep -o '"id":"camp-[0-9]*"' | head -n1 | cut -d'"' -f4)
[ -n "$camp_id" ] || fail "no campaign id in view: $view"
status=$(fetch "http://$camp_addr/v1/campaigns/$camp_id" | grep -o '"status":"[a-z]*"' | head -n1 | cut -d'"' -f4)
kill -9 "$daemon_pid"; wait "$daemon_pid" 2>/dev/null || true; daemon_pid=""
kill -9 "$worker2_pid"; wait "$worker2_pid" 2>/dev/null || true; worker2_pid=""
echo "   coordinator SIGKILL'd (campaign $camp_id was $status)"
[ "$status" = running ] || fail "campaign already $status before the coordinator was killed; grow the grid"

start_daemon "$work/camp2.log" -addr "$camp_addr" "${camp_flags[@]}"
grep -q 'recovered campaigns from journal' "$work/camp2.log" \
    || { cat "$work/camp2.log"; fail "restarted coordinator recovered no campaigns"; }
worker1_pid=$(start_worker "$work/worker3.log" -slots 2)
worker2_pid=$(start_worker "$work/worker4.log" -slots 2)

recovered=$(fetch "http://$camp_addr/v1/campaigns/$camp_id") \
    || fail "campaign $camp_id lost across the restart"
echo "   campaign $camp_id resumed after restart"

# The submitting client rides out the restart on its retry loop and prints
# the final digest.
wait "$client_pid" || { cat "$work/camp.err"; cat "$work/camp.out"; fail "campaign client failed"; }
client_pid=""
camp_digest=$(sed -n 's/^result_digest=//p' "$work/camp.out")
grep -q "campaign $camp_id completed: total=18 completed=18" "$work/camp.out" \
    || { cat "$work/camp.out"; fail "campaign did not complete all 18 jobs"; }
grep -q 'failed=0' "$work/camp.out" || { cat "$work/camp.out"; fail "campaign lost jobs"; }
grep -q '^mass_error:' "$work/camp.out" || fail "final aggregates carry no mass-error quantiles"
grep -q '^line_cut_delta:' "$work/camp.out" || fail "final aggregates carry no line-cut deltas"
[ "$camp_digest" = "$ref_digest" ] \
    || fail "campaign digest $camp_digest != client-side reference $ref_digest"
echo "   campaign digest matches the client-side reference"

# ---------- Phase C: warm resubmit is all dedup ---------------------------

echo "== phase C: warm resubmit (every job must dedup from cache)"
"$work/precision-client" -addr "http://$camp_addr" -campaign "$work/camp.json" -retry 10 \
    >"$work/warm.out" 2>"$work/warm.err" || { cat "$work/warm.err"; fail "warm campaign failed"; }
grep -q 'total=18 completed=18 deduped=18' "$work/warm.out" \
    || { cat "$work/warm.out"; fail "warm resubmit recomputed instead of deduping"; }
warm_digest=$(sed -n 's/^result_digest=//p' "$work/warm.out")
[ "$warm_digest" = "$ref_digest" ] || fail "warm digest $warm_digest != reference $ref_digest"

dedup_metric=$(fetch "http://$camp_addr/metrics" | sed -n 's/^precisiond_campaign_jobs_total{outcome="deduped"} //p')
[ -n "$dedup_metric" ] && [ "$dedup_metric" -ge 18 ] \
    || fail "campaign dedup metric = ${dedup_metric:-absent}, want >= 18"

# Concrete campaigns tune nothing: no auto submission named a shape, so the
# autotuner has no row and spent no probe run.
table=$(fetch "http://$camp_addr/v1/autotune")
case "$table" in *'"key"'*) fail "concrete campaign created autotune rows: $table";; esac
probes=$(fetch "http://$camp_addr/metrics" \
    | awk '/^precisiond_autotune_total\{decision="probe_/ {n += $2} END {print n + 0}')
[ "$probes" -eq 0 ] || fail "concrete campaign ran $probes autotune probes"

echo "campaign-smoke OK (18 jobs; digest $ref_digest; warm dedup metric $dedup_metric)"
