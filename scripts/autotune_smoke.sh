#!/usr/bin/env bash
# Closed-loop precision autotuning smoke test (DESIGN.md §15).
#
# Phase A — full-mode reference: four full-precision jobs of one scenario
# shape (distinct step counts) on a 2-worker fleet. Their state hashes are
# the bit-exact reference. The first is submitted as auto: on a cold table
# it resolves to full (same spec hash, same state hash), and it names the
# shape for the autotuner, which tunes only shapes an auto submission
# requested — so every reference run, auto or concrete, warms the decision
# table's full-mode evidence.
#
# Phase B — learned demotion: auto-mode submissions of the same shape must
# walk the ladder down one shadow-verified rung at a time
# (full → mixed → min → half). Each demotion must be committed only after
# a cross-node bit-identical shadow run (dispatch_verify_total{match}),
# and an auto job at the frontier must render auto→half with a
# `$/experiment saved` summary line.
#
# Phase C — crash durability: SIGKILL the coordinator mid-life; a restart
# over the same journal must recover the learned table (GET /v1/autotune
# shows the committed rung immediately) and resolve a fresh auto point
# demoted without re-warming.
#
# Phase D — revert on numerical failure: workers restarted with an armed
# runner.nan fault; the next demoted run must escalate, and the escalation
# must revert the committed rung (reverts counter, floor in the table) so
# later auto points resolve above the refuted mode.
#
# Phase E — budgets bound the loop: an auto submission with budgets
# tighter than any measured fidelity must resolve to full and reproduce
# the Phase A reference state hash bit-for-bit from cache.
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh
# One scenario shape throughout: only mode/steps/budgets vary, so the
# whole smoke warms exactly one autotune entry.
spec_json() { # <mode> <steps>
    printf '{"app":"clamr","mode":"%s","steps":%d,"nx":32,"ny":32,"max_level":1,"amr_interval":10,"line_cut_n":16}' "$1" "$2"
}

# submit <outfile> <mode> <steps> [client flags...]
submit() {
    local outf=$1 mode=$2 steps=$3; shift 3
    spec_json "$mode" "$steps" \
        | "$work/precision-client" -addr "http://$addr" -spec - -retry 30 "$@" \
        >"$outf" 2>"$outf.err" \
        || { cat "$outf.err" "$outf"; fail "submission $mode/steps=$steps failed"; }
}

# committed/floor/ref_steps of the (single) learned table entry.
table_field() { # <field> — string-valued
    fetch "http://$addr/v1/autotune" | grep -o "\"$1\":\"[a-z]*\"" | head -n1 | cut -d'"' -f4
}
table_ref_steps() {
    fetch "http://$addr/v1/autotune" | grep -o '"ref_steps":[0-9]*' | head -n1 | cut -d: -f2
}

# wait_committed <mode> <tries>: poll until the table commits the rung.
wait_committed() {
    local want=$1 tries=$2 got=""
    for _ in $(seq 1 "$tries"); do
        got=$(table_field committed || true)
        [ "$got" = "$want" ] && return 0
        sleep 0.5
    done
    fetch "http://$addr/v1/autotune" >&2 || true
    fail "table never committed $want (stuck at '${got:-absent}')"
}

# ---------- Phase A: full-mode reference, table warm-up -------------------

echo "== phase A: full-mode reference on a 2-worker fleet"
start_daemon "$work/daemon.log" -workers 0 -cache "$work/cache" \
    -journal "$work/journal.ndjson" -lease-ttl 3s -autotune-warm 2
worker1_pid=$(start_worker "$work/worker1.log" -name tune-a -slots 2 -arch Haswell)
worker2_pid=$(start_worker "$work/worker2.log" -name tune-b -slots 2 -arch Haswell)

for steps in 40 50 60 70; do
    mode=full; [ "$steps" = 40 ] && mode=auto
    submit "$work/ref_$steps.out" "$mode" "$steps"
    grep -q 'cached=false' "$work/ref_$steps.out" \
        || { cat "$work/ref_$steps.out"; fail "reference steps=$steps did not execute"; }
done
ref_state() { grep -o 'state=[0-9a-f]*' "$work/ref_$1.out" | head -n1 | cut -d= -f2; }
[ -n "$(ref_state 40)" ] || fail "reference run printed no state hash"
echo "   4 full-mode references recorded (state $(ref_state 40) @40 ...)"

# ---------- Phase B: shadow-verified demotion down the ladder -------------

echo "== phase B: auto sweeps demote full -> mixed -> min -> half"
# The full runs above already warmed the table; the first probe (mixed)
# fires on its own. Each subsequent rung needs fresh executions at the new
# frontier, so every pass submits unseen step counts.
wait_committed mixed 120
submit "$work/auto_m1.out" auto 41
submit "$work/auto_m2.out" auto 51
grep -q 'auto→mixed' "$work/auto_m1.out" "$work/auto_m2.out" \
    || { cat "$work/auto_m1.out" "$work/auto_m2.out"; fail "auto did not resolve to the committed mixed rung"; }
wait_committed min 120
submit "$work/auto_n1.out" auto 42
submit "$work/auto_n2.out" auto 52
wait_committed half 120
submit "$work/auto_h1.out" auto 43
grep -q 'auto→half' "$work/auto_h1.out" \
    || { cat "$work/auto_h1.out"; fail "auto did not resolve to the committed half rung"; }
grep -q '/experiment saved' "$work/auto_h1.out" \
    || { cat "$work/auto_h1.out"; fail "demoted run printed no \$/experiment-saved summary"; }

demotions=$(metric "http://$addr/metrics" precisiond_autotune_demotions_total)
[ "${demotions:-0}" -ge 3 ] || fail "demotions counter = ${demotions:-absent}, want >= 3"
verified=$(metric "http://$addr/metrics" 'dispatch_verify_total{outcome="match"}')
[ "${verified:-0}" -ge 3 ] || fail "bit-identical shadow verifications = ${verified:-absent}, want >= 3"
fetch "http://$addr/v1/autotune" | grep -q '"verified":true' \
    || fail "learned table reports no shadow-verified evidence"
echo "   table committed half after $demotions shadow-verified demotions ($verified cross-node matches)"

# ---------- Phase C: SIGKILL'd coordinator recovers the table -------------

echo "== phase C: SIGKILL coordinator, recover learned table from journal"
kill -9 "$worker1_pid" "$worker2_pid" "$daemon_pid" 2>/dev/null || true
wait "$worker1_pid" "$worker2_pid" "$daemon_pid" 2>/dev/null || true
worker1_pid=""; worker2_pid=""; daemon_pid=""

start_daemon "$work/daemon2.log" -workers 0 -cache "$work/cache" \
    -journal "$work/journal.ndjson" -lease-ttl 3s -autotune-warm 2
worker1_pid=$(start_worker "$work/worker1b.log" -name tune-a -slots 2 -arch Haswell)
worker2_pid=$(start_worker "$work/worker2b.log" -name tune-b -slots 2 -arch Haswell)

committed=$(table_field committed || true)
[ "$committed" = "half" ] \
    || fail "recovered table committed '${committed:-absent}', want half straight from the journal"
submit "$work/auto_rec.out" auto 80
grep -q 'auto→half' "$work/auto_rec.out" \
    || { cat "$work/auto_rec.out"; fail "recovered coordinator did not resolve demoted immediately"; }
echo "   restart resolved auto→half with no re-warm-up"

# ---------- Phase D: injected NaN forces revert + re-escalation -----------

echo "== phase D: runner.nan at the demoted rung reverts the table"
kill -9 "$worker1_pid" "$worker2_pid" 2>/dev/null || true
wait "$worker1_pid" "$worker2_pid" 2>/dev/null || true
worker1_pid=$(start_worker "$work/worker1c.log" -name tune-a -slots 2 -arch Haswell \
    -faults 'runner.nan=n:1')
worker2_pid=$(start_worker "$work/worker2c.log" -name tune-b -slots 2 -arch Haswell \
    -faults 'runner.nan=n:1')

submit "$work/auto_nan.out" auto 81   # resolves half, hits the NaN, escalates
reverts=""
for _ in $(seq 1 50); do
    reverts=$(metric "http://$addr/metrics" precisiond_autotune_reverts_total)
    [ "${reverts:-0}" -ge 1 ] && break
    sleep 0.2
done
[ "${reverts:-0}" -ge 1 ] || fail "reverts counter = ${reverts:-absent} after injected NaN, want >= 1"
floor=$(table_field floor || true)
[ -n "$floor" ] || fail "escalation left no floor in the learned table"
submit "$work/auto_post.out" auto 82
grep -q 'auto→half' "$work/auto_post.out" \
    && { cat "$work/auto_post.out"; fail "table still resolves the refuted half rung"; }
grep -Eq 'auto→(min|mixed|full)' "$work/auto_post.out" \
    || { cat "$work/auto_post.out"; fail "post-revert auto resolution missing"; }
echo "   NaN reverted the demotion (floor=$floor, reverts=$reverts)"

# ---------- Phase E: tight budgets resolve full, bit-match reference ------

echo "== phase E: budgets tighter than any evidence resolve to full"
ref_steps=$(table_ref_steps)
case "$ref_steps" in 40|50|60|70) ;; *) fail "table ref_steps=$ref_steps not in the reference sweep";; esac
submit "$work/auto_tight.out" full "$ref_steps" -max-mass-error 1e-15 -max-linecut-linf 1e-15
grep -q 'auto→full' "$work/auto_tight.out" \
    || { cat "$work/auto_tight.out"; fail "tight budgets did not resolve to full"; }
tight_state=$(grep -o 'state=[0-9a-f]*' "$work/auto_tight.out" | head -n1 | cut -d= -f2)
[ "$tight_state" = "$(ref_state "$ref_steps")" ] \
    || fail "budgeted full run state $tight_state != reference $(ref_state "$ref_steps") at steps=$ref_steps"
grep -q 'cached=true' "$work/auto_tight.out" \
    || { cat "$work/auto_tight.out"; fail "auto-resolved full did not dedup onto the cached reference"; }
echo "   tight-budget auto bit-matched the full-mode reference from cache"

echo "autotune-smoke OK (demotions=$demotions verified=$verified reverts=$reverts floor=$floor)"
