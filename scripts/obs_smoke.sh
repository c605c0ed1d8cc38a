#!/usr/bin/env bash
# Observability smoke test: start precisiond with metrics, logging and the
# debug listener enabled, run one job (twice, for a cache hit), then assert
# the daemon's telemetry is live — /metrics exposes a non-zero run-duration
# histogram and cache counters, the job's trace endpoint returns a complete
# closed timeline, the client renders it with -trace, and the pprof mux
# answers on the debug port.
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh

start_daemon "$work/daemon.log" -debug-addr 127.0.0.1:0 \
    -cache "$work/cache" -journal "$work/journal.ndjson" -log-level debug
debug_addr=""
for _ in $(seq 1 50); do
    debug_addr=$(sed -n 's/.*msg="debug server up (pprof + metrics)" addr=//p' "$work/daemon.log" | head -1)
    [ -n "$debug_addr" ] && break
    sleep 0.1
done
[ -n "$debug_addr" ] || { cat "$work/daemon.log"; echo "FAIL: no debug listener" >&2; exit 1; }

cat >"$work/spec.json" <<'EOF'
{"app": "clamr", "mode": "full", "steps": 5, "nx": 16, "ny": 16, "max_level": 1, "amr_interval": 5}
EOF

# Run the job, then resubmit for a cache hit; -trace prints the timeline.
"$work/precision-client" -addr "http://$addr" -spec "$work/spec.json" -trace | tee "$work/first.out"
grep -q 'queue_wait' "$work/first.out" || { echo "FAIL: -trace printed no queue_wait span" >&2; exit 1; }
grep -q 'attempt.*outcome=ok' "$work/first.out" || { echo "FAIL: -trace printed no successful attempt" >&2; exit 1; }
"$work/precision-client" -addr "http://$addr" -spec "$work/spec.json" >/dev/null

# /metrics: valid exposition with non-zero run-duration histogram and cache
# counters after the sweep. Three hits: the executed job keeps its result
# and trace only in the cache, so the first client's result and -trace reads
# are cache reads; the resubmission's admission probe is the third.
fetch "http://$addr/metrics" >"$work/metrics.txt"
grep -q '^# TYPE precisiond_run_duration_seconds histogram$' "$work/metrics.txt" \
    || { echo "FAIL: run-duration family missing" >&2; cat "$work/metrics.txt" >&2; exit 1; }
grep -q '^precisiond_run_duration_seconds_count{app="clamr",mode="full"} 1$' "$work/metrics.txt" \
    || { echo "FAIL: run-duration histogram empty" >&2; cat "$work/metrics.txt" >&2; exit 1; }
grep -q '^precisiond_cache_events_total{event="put"} 1$' "$work/metrics.txt" \
    || { echo "FAIL: cache put counter missing" >&2; cat "$work/metrics.txt" >&2; exit 1; }
grep -q '^precisiond_cache_events_total{event="hit"} 3$' "$work/metrics.txt" \
    || { echo "FAIL: cache hit counter missing" >&2; cat "$work/metrics.txt" >&2; exit 1; }
grep -Eq '^precisiond_run_flops_total\{width="64"\} [1-9]' "$work/metrics.txt" \
    || { echo "FAIL: flops counter not populated" >&2; cat "$work/metrics.txt" >&2; exit 1; }

# Trace endpoint: complete, closed timeline for the executed job.
fetch "http://$addr/v1/jobs/job-000001/trace" >"$work/trace.json"
grep -q '"name":"attempt"' "$work/trace.json" || { echo "FAIL: trace has no attempt span" >&2; cat "$work/trace.json" >&2; exit 1; }
grep -q '"open":true' "$work/trace.json" && { echo "FAIL: finished job has open spans" >&2; exit 1; }

# pprof on the debug listener.
fetch "http://$debug_addr/debug/pprof/cmdline" >/dev/null \
    || { echo "FAIL: pprof not served on debug addr" >&2; exit 1; }

echo "obs-smoke OK (api $addr, debug $debug_addr)"
