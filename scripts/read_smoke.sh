#!/usr/bin/env bash
# Tiered read-path smoke test (DESIGN.md §11): hot memory, ETag/304, disk.
#
# Phase A — default hot tier. Run the quick paper sweep, read every result
# by hash (each result's second read: served from disk, and admitted to the
# hot tier), then replay the sweep with -replay-cache and assert the replay
# lived above the disk:
#   * every admission probe is a hot hit and every result body an
#     If-None-Match revalidation: N/N 304s, zero bytes moved,
#   * disk_hits and puts do not grow (nothing re-read, nothing recomputed),
#   * the replayed payload bytes are identical to the cold pass's.
#
# Phase B — restart over the same cache directory with -hot-bytes 512, a
# hot tier that admits nothing: every read by hash is served by the disk
# tier, byte-identical to phase A's hot read, and nothing is recomputed.
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh

# cstat <key>: integer field from the current /v1/cache/stats snapshot.
cstat() {
    fetch "http://$addr/v1/cache/stats" | grep -o "\"$1\":[0-9]*" | head -n1 | cut -d: -f2
}

# read_all <dir>: GET /v1/results/{hash} for every hash of the sweep.
read_all() {
    mkdir -p "$1"
    for h in $hashes; do
        fetch "http://$addr/v1/results/$h" >"$1/$h" || fail "read of $h failed"
    done
}

sweep() { # <outfile>
    "$work/precision-client" -addr "http://$addr" -sweep quick -retry 10 -json \
        -replay-cache "$work/replay" >"$1" 2>"$1.err" \
        || { cat "$1.err"; fail "sweep into $1 failed"; }
}

echo "== phase A: default hot tier; cold sweep"
start_daemon "$work/daemon1.log" -cache "$work/cache"
sweep "$work/pass1.json"
total=$(grep -c . "$work/pass1.json")
[ "$total" -ge 2 ] || fail "cold sweep produced only $total results"
hashes=$(extract_pairs "$work/pass1.json" | cut -d' ' -f1)
read_all "$work/hot"
reads_disk=$(metric 'precisiond_result_reads_total{source="disk"}')
[ "${reads_disk:-0}" -eq "$total" ] \
    || fail "reads by hash after the cold sweep: ${reads_disk:-0}/$total from disk"
[ "$(cstat hot_entries)" -eq "$total" ] \
    || fail "second reads admitted $(cstat hot_entries)/$total results to the hot tier"

disk1=$(cstat disk_hits); puts1=$(cstat puts); hot1=$(cstat hot_hits)

echo "== phase A: warm replay (must not touch the disk)"
sweep "$work/pass2.json"

disk2=$(cstat disk_hits); puts2=$(cstat puts); hot2=$(cstat hot_hits)

# Bit-identity: the warm pass returned exactly the cold pass's bytes.
cmp -s "$work/pass1.json" "$work/pass2.json" \
    || fail "warm-pass payloads differ from the cold pass"

# Zero disk growth, zero recompute: the replay lived in the hot and 304 tiers.
[ "$disk2" -eq "$disk1" ] || fail "disk_hits grew on the warm pass: $disk1 -> $disk2"
[ "$puts2" -eq "$puts1" ] || fail "results were recomputed on the warm pass: puts $puts1 -> $puts2"
[ "$((hot2 - hot1))" -eq "$total" ] \
    || fail "$((hot2 - hot1))/$total warm probes served from the hot tier"

# And every result body was a revalidation: N/N 304s, zero bytes moved.
grep -q "replay-cache: $total/$total results revalidated (304)" "$work/pass2.json.err" \
    || { cat "$work/pass2.json.err"; fail "warm pass did not revalidate every result"; }
etag304=$(metric 'precisiond_result_reads_total{source="etag_304"}')
[ -n "$etag304" ] && [ "$etag304" -ge "$total" ] \
    || fail "etag_304 reads = ${etag304:-absent}, want >= $total"
kill "$daemon_pid" && wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

echo "== phase B: restart over the same cache, hot tier admits nothing"
start_daemon "$work/daemon2.log" -cache "$work/cache" -hot-bytes 512
read_all "$work/disk"
for h in $hashes; do
    cmp -s "$work/hot/$h" "$work/disk/$h" || fail "disk read of $h differs from the hot read"
done
reads_disk=$(metric 'precisiond_result_reads_total{source="disk"}')
[ "${reads_disk:-0}" -eq "$total" ] || fail "${reads_disk:-0}/$total reads served by the disk tier"
[ "$(cstat disk_hits)" -eq "$total" ] || fail "disk_hits = $(cstat disk_hits), want $total"
[ "$(cstat puts)" -eq 0 ] || fail "results were recomputed after the restart: puts $(cstat puts)"
[ "$(cstat hot_entries)" -eq 0 ] || fail "the 512-byte hot tier admitted $(cstat hot_entries) payloads"

echo "read-smoke OK ($total results; warm pass: $((hot2 - hot1)) hot hits, $etag304 etag-304s, disk_hits delta 0; after restart: $reads_disk disk reads, puts 0)"
