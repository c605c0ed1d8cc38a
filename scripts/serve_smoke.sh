#!/usr/bin/env bash
# Smoke test for the experiment service: build precisiond and
# precision-client, start the daemon on a free port with a fresh cache,
# submit the same small CLAMR job twice, and assert the second submission is
# served from the cache without recompute.
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh

start_daemon "$work/daemon.log" -cache "$work/cache"

cat >"$work/spec.json" <<'EOF'
{"app": "clamr", "mode": "full", "steps": 5, "nx": 16, "ny": 16, "max_level": 1, "amr_interval": 5}
EOF

"$work/precision-client" -addr "http://$addr" -spec "$work/spec.json" | tee "$work/first.out"
grep -q 'cached=false' "$work/first.out" || { echo "FAIL: first submission unexpectedly cached" >&2; exit 1; }

"$work/precision-client" -addr "http://$addr" -spec "$work/spec.json" | tee "$work/second.out"
grep -q 'cached=true' "$work/second.out" || { echo "FAIL: second submission not served from cache" >&2; exit 1; }

# Byte-identical result payloads across both submissions.
"$work/precision-client" -addr "http://$addr" -spec "$work/spec.json" -json >"$work/third.json"
"$work/precision-client" -addr "http://$addr" -spec "$work/spec.json" -json >"$work/fourth.json"
cmp "$work/third.json" "$work/fourth.json" || { echo "FAIL: cached payload not byte-identical" >&2; exit 1; }

# The stats endpoint must agree: one execution, the rest cache hits.
stats=$(curl -sf "http://$addr/v1/cache/stats" 2>/dev/null) || stats=$(wget -qO- "http://$addr/v1/cache/stats")
echo "$stats" | grep -q '"executed":1,' || { echo "FAIL: stats report recompute: $stats" >&2; exit 1; }

echo "serve-smoke OK ($addr, stats: $stats)"
