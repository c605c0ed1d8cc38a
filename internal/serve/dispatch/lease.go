// The lease outcome table: everything a lease event does to the fleet's
// books — its dispatch_leases_total{event} count, the health penalty and
// half-open probe verdict it scores on the worker, the per-worker counter
// it moves and its log line — is one row here. Coordinator.settle is the
// only code that ends a lease. DESIGN.md §9 renders the table.
package dispatch

import (
	"time"

	"repro/internal/obs"
)

// leaseEvent names one row of the table.
type leaseEvent uint8

// The rows, in lifecycle order.
const (
	leGranted         leaseEvent = iota // a worker's long-poll took an attempt
	leCompleted                         // a result was uploaded and round-tripped the spec hash
	leRunError                          // the run failed on the worker with a classified error
	leRejectedCorrupt                   // the upload did not round-trip the spec hash (422)
	leRejectedLate                      // an upload for a lease that is no longer active (409)
	leExpired                           // the lease deadline lapsed: the worker went dark mid-run
	leRequeuedDrain                     // a deregistering worker handed the lease back
	leCancelled                         // the attempt's own context died (job timeout, shutdown)
	numLeaseEvents
)

// tally names a per-worker counter of the GET /v1/workers view.
type tally uint8

const (
	tallyNone tally = iota
	tallyLeased
	tallyCompleted
	tallyExpired
	numTallies
)

// Penalty-column values beside the fixed weights of health.go.
const (
	penNone      = -1.0 // the row says nothing about the worker: the score is left alone
	penByLatency = -2.0 // penGood, or penSlow past slowFactor × the shape's fleet median
)

// probeVerdict is what a row means for a half-open probe lease.
type probeVerdict uint8

const (
	probeUnjudged probeVerdict = iota // releases the probe slot; the next window re-probes
	probePass
	probeFail
	probeIfClean // passes only when the completion scored penGood
)

// leaseRow is one row. A row blames the worker exactly when its penalty
// comes out above zero; only those rows fail a probe.
type leaseRow struct {
	event string       // dispatch_leases_total{event} label
	tally tally        // per-worker counter that moves
	pen   float64      // health penalty folded into the worker's EWMA
	probe probeVerdict // verdict when the lease was a half-open probe
	level obs.Level    // log line
	msg   string
}

var leaseRows = [numLeaseEvents]leaseRow{
	leGranted:   {event: "granted", tally: tallyLeased, pen: penNone, level: obs.LevelDebug, msg: "lease granted"},
	leCompleted: {event: "completed", tally: tallyCompleted, pen: penByLatency, probe: probeIfClean, level: obs.LevelDebug, msg: "lease completed"},
	// A classified run error is the spec's fault, not the box's: the worker
	// proved responsive, which is what a probe asks.
	leRunError:        {event: "completed", tally: tallyCompleted, pen: penNone, probe: probePass, level: obs.LevelDebug, msg: "remote attempt failed"},
	leRejectedCorrupt: {event: "rejected_corrupt", tally: tallyCompleted, pen: penReject, probe: probeFail, level: obs.LevelWarn, msg: "upload rejected"},
	leRejectedLate:    {event: "rejected_late", pen: penNone, level: obs.LevelWarn, msg: "late completion rejected"},
	leExpired:         {event: "expired", tally: tallyExpired, pen: penExpiry, probe: probeFail, level: obs.LevelWarn, msg: "lease expired"},
	leRequeuedDrain:   {event: "requeued_drain", pen: penNone, level: obs.LevelInfo, msg: "lease handed back by draining worker"},
	leCancelled:       {event: "cancelled", pen: penNone, level: obs.LevelDebug, msg: "lease cancelled with its attempt"},
}

// count moves the per-worker counter row ev names; caller holds co.mu.
func (ws *workerState) count(ev leaseEvent) {
	if t := leaseRows[ev].tally; t != tallyNone {
		ws.tally[t]++
	}
}

// note counts one raised row and writes its log line.
func (co *Coordinator) note(ev leaseEvent, attrs ...obs.Attr) {
	row := &leaseRows[ev]
	co.leaseEvents.With(row.event).Inc()
	co.log.Log(row.level, row.msg, attrs...)
}

// settle ends lease id with the outcome row ev: under one co.mu hold it
// takes the lease off the books and scores the row on the worker, then it
// logs, finishes the attempt with o (handing a verify-sampled result to the
// cross-check first) and reports to the lease's hedge scoreboard. It
// reports false when the lease is no longer active — some other outcome
// settled it first, and a later upload is rejected_late because admitting
// it would complete a re-queued job twice.
func (co *Coordinator) settle(id string, ev leaseEvent, o Outcome) bool {
	row := &leaseRows[ev]
	now := time.Now()
	co.mu.Lock()
	l, ok := co.leases[id]
	if !ok {
		co.mu.Unlock()
		return false
	}
	ws := l.worker
	delete(co.leases, id)
	delete(ws.active, id)
	ws.count(ev)
	pen := row.pen
	if pen == penByLatency {
		// Judged against the fleet median for this shape before the sample
		// joins the ring.
		shape, dur := shapeOf(l.a.Spec), now.Sub(l.granted)
		pen = penGood
		ring := co.lat[shape]
		if ring == nil {
			ring = &latRing{}
			co.lat[shape] = ring
		}
		if med, n := ring.quantile(0.5); n >= co.hp.minSlowSamples && dur.Seconds() > med*co.hp.slowFactor {
			pen = penSlow
		}
		ring.add(dur.Seconds())
	}
	if pen != penNone {
		ws.health.observe(pen, now)
	}
	if l.probe {
		if row.probe == probeUnjudged {
			ws.health.probeAborted(now)
		} else {
			ws.health.probeResult(row.probe == probePass || row.probe == probeIfClean && pen == penGood, now)
		}
	}
	if o.Res != nil && ws.arch != nil {
		// Energy/cost accounting: the worker's registered arch profile
		// applied to the measured counters. Rides outside
		// Deterministic()/ResultHash, so annotating the result cannot
		// perturb the determinism contract.
		o.Res.Energy = ComputeEnergy(*ws.arch, o.Res)
		ws.joules += o.Res.Energy.Joules
		ws.costDollars += o.Res.Energy.CostDollars
	}
	co.mu.Unlock()

	attrs := []obs.Attr{obs.Str("lease", id), obs.Str("worker", ws.id), obs.Str("job", l.a.JobID)}
	if o.Err != nil {
		attrs = append(attrs, obs.Str("error", o.Err.Error()))
	}
	co.note(ev, attrs...)
	o.Backend, o.Worker = co.Name(), ws.id
	if l.verify && o.Res != nil {
		co.crossCheck(l.a, o)
	} else {
		l.a.finish(o)
	}
	if l.hedge != nil {
		co.hedgeLanded(l, o.Res, ws.id)
	}
	return true
}
