# Shared preamble of scripts/*_smoke.sh. Source it from the repository root,
# after `set -euo pipefail`:
#
#   cd "$(dirname "$0")/.."
#   . scripts/lib.sh
#
# It builds the three service binaries once into a fresh $work directory,
# installs an EXIT trap that kills whatever the pid variables below still
# name and removes $work, and defines the helpers every smoke shares.

GO=${GO:-go}

work=$(mktemp -d)
# The pids a smoke may own. A script clears one after it has reaped the
# process itself; cleanup kills the rest.
client_pid="" worker1_pid="" worker2_pid="" worker3_pid="" daemon_pid=""
cleanup() {
    local pid
    for pid in "$client_pid" "$worker1_pid" "$worker2_pid" "$worker3_pid" "$daemon_pid"; do
        [ -n "$pid" ] && kill -9 "$pid" || true
    done
    wait || true
    rm -rf "$work"
} 2>/dev/null # bash reports a job killed here whenever it next looks
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

fetch() { curl -sf "$1" 2>/dev/null || wget -qO- "$1"; }

$GO build -o "$work/precisiond" ./cmd/precisiond
$GO build -o "$work/precision-worker" ./cmd/precision-worker
$GO build -o "$work/precision-client" ./cmd/precision-client

# start_daemon <logfile> <extra flags...>; sets $daemon_pid and $addr. The
# daemon prints "listening on <host:port>" once the socket is open.
start_daemon() {
    local logf=$1; shift
    "$work/precisiond" -addr 127.0.0.1:0 "$@" >"$logf" 2>&1 &
    daemon_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^listening on //p' "$logf")
        [ -n "$addr" ] && break
        kill -0 "$daemon_pid" 2>/dev/null || { cat "$logf"; fail "daemon died on startup"; }
        sleep 0.1
    done
    [ -n "$addr" ] || { cat "$logf"; fail "daemon never announced its address"; }
}

# start_worker <logfile> <extra flags...>; echoes the worker's PID. The
# worker prints "registered as worker-NNN with <url>" once admitted.
start_worker() {
    local logf=$1; shift
    "$work/precision-worker" -coordinator "http://$addr" "$@" >"$logf" 2>&1 &
    local pid=$!
    for _ in $(seq 1 100); do
        grep -q '^registered as ' "$logf" && break
        kill -0 "$pid" 2>/dev/null || { cat "$logf"; fail "worker died on startup"; }
        sleep 0.1
    done
    grep -q '^registered as ' "$logf" || { cat "$logf"; fail "worker never registered"; }
    echo "$pid"
}

# worker_id <worker logfile>: the ID the coordinator assigned.
worker_id() { sed -n 's/^registered as \(worker-[0-9]*\) .*/\1/p' "$1"; }

# metric [<url>] <name>: current value of an exposition line (empty when
# absent); the URL defaults to the daemon's /metrics.
metric() {
    local url="http://$addr/metrics"
    if [ $# -eq 2 ]; then url=$1; shift; fi
    fetch "$url" | sed -n "s/^$1 //p" | head -n1
}

# extract_pairs <json-lines-file>: sorted "spec_hash state_hash" per result.
extract_pairs() {
    sed -n 's/.*"spec_hash":"\([0-9a-f]*\)".*"state_hash":"\([0-9a-f]*\)".*/\1 \2/p' "$1" | sort
}
