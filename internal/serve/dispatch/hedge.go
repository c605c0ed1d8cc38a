package dispatch

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
)

// Hedged re-dispatch: when a leased attempt outlives a percentile deadline
// for its shape (p99 of completed same-shape leases, floored at
// CoordinatorConfig.HedgeAfter), the coordinator posts a duplicate attempt
// excluded from the primary's worker. The board's once-guarded finish takes
// whichever completion lands first; the loser's lease is deliberately left
// alive so its upload still arrives — a duplicate completion of a
// deterministic run is a free cross-node verify, and both state hashes are
// demanded bit-identical. A mismatch quarantines the slower worker and is
// journaled loud; a match journals a hedge_verified record. Hedges are
// budgeted (HedgeBudget × fleet slots concurrently), per Godoy et al.
// (arXiv:2505.05623): wasted re-execution is wasted joules.

// shapeOf buckets specs for latency statistics: same app, mode and step
// count runs the same arithmetic, so its completion times are comparable.
func shapeOf(spec runner.ExperimentSpec) string {
	return string(spec.App) + "|" + spec.Mode + "|" + fmt.Sprint(spec.Steps)
}

// latRing is a bounded sample ring per shape; quantiles copy-sort at most
// latRingSize float64s, cheap at reaper cadence.
const latRingSize = 64

type latRing struct {
	buf  [latRingSize]float64
	n    int // samples stored (≤ latRingSize)
	next int
}

func (r *latRing) add(sec float64) {
	r.buf[r.next] = sec
	r.next = (r.next + 1) % latRingSize
	if r.n < latRingSize {
		r.n++
	}
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of the stored samples and
// how many samples back it; 0, 0 when empty or for a shape never seen (nil).
func (r *latRing) quantile(q float64) (float64, int) {
	if r == nil || r.n == 0 {
		return 0, 0
	}
	s := slices.Clone(r.buf[:r.n])
	slices.Sort(s)
	return s[int(q*float64(len(s)-1))], r.n
}

// hedgeState is the shared scoreboard of one hedged lease: the primary
// upload and the duplicate attempt each land exactly once, and whichever
// lands second runs the bit-identity comparison.
type hedgeState struct {
	mu           sync.Mutex
	primary, dup hedgeSide // primary.worker is fixed at creation, read without mu
}

// hedgeSide is one executor's landing; res stays nil when it landed without
// a usable result (error, expiry, 422, no second executor).
type hedgeSide struct {
	worker string
	res    *runner.Result
	landed bool
}

// hedgeDeadline is how long a lease of this shape may run before a hedge
// fires: p99 of completed same-shape leases when enough samples exist,
// never below the configured floor. Caller holds co.mu.
func (co *Coordinator) hedgeDeadlineLocked(shape string) time.Duration {
	if p99, n := co.lat[shape].quantile(0.99); n >= co.hp.minSlowSamples {
		return max(co.cfg.HedgeAfter, time.Duration(p99*float64(time.Second)))
	}
	return co.cfg.HedgeAfter
}

// maybeHedge scans active leases on the reaper tick and fires duplicates
// for stragglers, within the global budget.
func (co *Coordinator) maybeHedge(now time.Time) {
	if co.cfg.HedgeBudget <= 0 {
		return
	}
	co.mu.Lock()
	totalSlots := 0
	for _, ws := range co.workers {
		totalSlots += ws.caps.Slots
	}
	maxHedges := max(1, int(co.cfg.HedgeBudget*float64(totalSlots)))
	var fire []*lease
	for _, l := range co.leases {
		if co.hedgeInflight+len(fire) >= maxHedges {
			break
		}
		// Shadows (verify runs and other hedges) and half-open probes are
		// never hedged; a verify-sampled lease already gets a second run.
		if l.hedge != nil || l.verify || l.probe || l.a.shadow {
			continue
		}
		if now.Sub(l.granted) < co.hedgeDeadlineLocked(shapeOf(l.a.Spec)) {
			continue
		}
		if !co.secondExecutorLocked(l, now) {
			continue
		}
		l.hedge = &hedgeState{primary: hedgeSide{worker: l.worker.id}}
		fire = append(fire, l)
	}
	co.hedgeInflight += len(fire)
	co.mu.Unlock()
	for _, l := range fire {
		co.fireHedge(l)
	}
}

// secondExecutorLocked reports whether some other admissible worker could
// take the duplicate — firing a hedge nobody can serve only burns budget.
func (co *Coordinator) secondExecutorLocked(l *lease, now time.Time) bool {
	for _, ws := range co.workers {
		if ws.id == l.worker.id || !ws.caps.matches(l.a.Spec) {
			continue
		}
		if _, ok := ws.health.admissible(now); ok {
			return true
		}
	}
	return false
}

// hedgeEvent counts one straggler-defense event and relays it to the
// attempt's OnHedge hook.
func (co *Coordinator) hedgeEvent(a *Attempt, event, worker string) {
	co.hedgeCtr.With(event).Inc()
	if a.OnHedge != nil {
		a.OnHedge(event, worker)
	}
}

// fireHedge posts the duplicate attempt and resolves its outcome against
// the primary through the shared hedgeState.
func (co *Coordinator) fireHedge(l *lease) {
	a, hs := l.a, l.hedge
	co.log.Info("hedge fired",
		obs.Str("job", a.JobID), obs.Str("lease", l.id),
		obs.Str("primary", hs.primary.worker),
		obs.Str("running", time.Since(l.granted).Round(time.Millisecond).String()))
	co.hedgeEvent(a, "fired", hs.primary.worker)
	co.d.Go(func() {
		defer func() {
			co.mu.Lock()
			co.hedgeInflight--
			co.mu.Unlock()
		}()
		ctx, cancel := context.WithTimeout(co.runCtx, co.cfg.VerifyWait)
		defer cancel()
		dup := newShadow(a.JobID, a.Spec, a.N, hs.primary.worker)
		// The duplicate's executor ships its own span timeline; route it to
		// the hedge-specific recorder so it grafts as a sibling subtree
		// rather than replacing the primary's snapshots.
		dup.OnWorkerTrace = a.OnHedgeWorkerTrace
		out := co.d.Do(ctx, dup)
		event := "skipped"
		if out.Err != nil {
			out.Res = nil
		}
		if out.Res != nil {
			event = "lost"
			if a.finish(Outcome{Res: out.Res, Backend: co.Name(), Worker: out.Worker}) {
				event = "won"
			}
		}
		co.hedgeEvent(a, event, out.Worker)
		co.hedgeLanded(l, out.Res, out.Worker)
	})
}

// hedgeLanded records one side of a hedged pair (res nil = landed without
// a usable result). When the caller is the hedge goroutine, worker is the
// duplicate's executor; when it is settle, worker is the primary. The
// second arrival settles: both results present ⇒ demand bit-identical
// state hashes.
func (co *Coordinator) hedgeLanded(l *lease, res *runner.Result, worker string) {
	a, hs := l.a, l.hedge
	hs.mu.Lock()
	if worker == hs.primary.worker {
		hs.primary.res, hs.primary.landed = res, true
	} else {
		hs.dup = hedgeSide{worker: worker, res: res, landed: true}
	}
	primary, hedge, hedgeWorker := hs.primary.res, hs.dup.res, hs.dup.worker
	bothLanded := hs.primary.landed && hs.dup.landed
	hs.mu.Unlock()
	// Each side lands once, so the second arrival is the only call that
	// sees both. A side that produced no result leaves nothing to verify;
	// the side that did (if any) already finished the attempt.
	if !bothLanded || primary == nil || hedge == nil {
		return
	}
	// The second lander is the slower executor: this callback runs on its
	// arrival, so `worker` names it.
	slower := worker
	event, match := "mismatch", primary.StateHash == hedge.StateHash
	if match {
		event = "verified"
	}
	co.hedgeEvent(a, event, slower)
	if co.cfg.HedgeRecord != nil {
		co.cfg.HedgeRecord(a.JobID, a.Hash(), primary.StateHash, hs.primary.worker, hedgeWorker, match)
	}
	if match {
		co.log.Info("hedge verified bit-identical",
			obs.Str("job", a.JobID), obs.Str("primary", hs.primary.worker),
			obs.Str("hedge", hedgeWorker), obs.Str("state", primary.StateHash))
		return
	}
	co.log.Error("hedge state hash divergence",
		obs.Str("job", a.JobID),
		obs.Str("primary", hs.primary.worker), obs.Str("primary_state", primary.StateHash),
		obs.Str("hedge", hedgeWorker), obs.Str("hedge_state", hedge.StateHash),
		obs.Str("quarantining", slower))
	now := time.Now()
	co.mu.Lock()
	if ws, ok := co.workers[slower]; ok {
		ws.health.score = co.hp.quarantineAt
		ws.health.enter(HealthQuarantined, now)
	}
	co.mu.Unlock()
}
