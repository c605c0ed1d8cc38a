// Package dispatch places execution attempts onto backends: the daemon's
// own solver lanes (Local) and a fleet of remote precision-worker nodes
// (Coordinator), both draining one board.
//
// The scheduler in internal/serve/queue owns job policy — retries,
// precision escalation, journaling, caching. Each individual execution
// attempt is handed to a Dispatcher, which posts it on the board and blocks
// until some backend delivers an Outcome. Backends pull with Take, which
// performs capability-aware matching: an attempt resuming from a local
// checkpoint is LocalOnly, a cross-node verification attempt excludes the
// worker whose result it is checking, and remote workers only match specs
// their advertised capabilities cover.
//
// Delivery is exactly-once per attempt (an internal once-guard), so the
// failure paths compose: a remote lease that expires finishes the attempt
// with ErrLeaseExpired and a later duplicate upload is rejected; a
// cancelled attempt that was never placed is withdrawn from the board; a
// wedged local run is bounded by the abandon grace.
package dispatch

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
)

// ErrLeaseExpired reports a remote attempt whose worker stopped
// heartbeating (or deregistered) before uploading a result. The scheduler
// treats it as a placement failure, not a run failure: the job is re-queued
// under its original ID without consuming retry budget.
var ErrLeaseExpired = errors.New("dispatch: lease expired")

// Outcome is the terminal state of one dispatched attempt.
type Outcome struct {
	Res *runner.Result
	Err error
	// Backend/Worker identify where the attempt ran ("local", or "fleet"
	// plus the worker ID).
	Backend string
	Worker  string
	// Abandoned marks a local run that ignored cancellation past the grace
	// period; its goroutine was left behind.
	Abandoned bool
}

// Attempt is one execution attempt offered to the backends. The scheduler
// fills the exported fields; Dispatcher.Do owns the rest.
type Attempt struct {
	JobID string
	Spec  runner.ExperimentSpec // normalized; Mode may be escalated
	N     int64                 // attempt number within the job (1-based)

	// LocalOnly pins the attempt to the local backend — a checkpoint resume
	// reads state only this process has.
	LocalOnly bool
	// ExcludeWorker bars one remote worker from taking the attempt — a
	// verification attempt must not re-run on the worker it is checking.
	// It never bars the local backend ("" excludes nothing).
	ExcludeWorker string

	// Run executes the attempt in-process (used by the local backend).
	Run func(ctx context.Context) (*runner.Result, error)
	// Progress, when non-nil, receives step/total updates (remote workers
	// relay them on heartbeats).
	Progress func(step, total int)
	// OnPlaced, when non-nil, is invoked once when a backend takes the
	// attempt, with the time it spent waiting on the board.
	OnPlaced func(backend, worker string, wait time.Duration)
	// OnHedge, when non-nil, receives straggler-defense lifecycle events
	// for this attempt: "fired" (worker = the straggling primary), then
	// "won"/"lost"/"skipped" (worker = the duplicate's executor), then
	// "verified"/"mismatch" when both completions landed. Called from
	// coordinator goroutines — implementations must be safe for
	// concurrent use. The scheduler renders these as hedge spans in the
	// job trace.
	OnHedge func(event, worker string)
	// OnWorkerTrace, when non-nil, receives the executing worker's own span
	// timeline for this attempt: partial snapshots on heartbeats (long runs
	// stream their solver spans incrementally) and the final snapshot on
	// complete, where uploadBytes is the uploaded payload size (0 for
	// partials). Each snapshot replaces the previous one. Called from
	// coordinator HTTP handler goroutines — implementations must be safe
	// for concurrent use. The scheduler grafts these under the attempt span
	// so the job trace renders one cross-node timeline.
	OnWorkerTrace func(worker string, td obs.TraceData, uploadBytes int)
	// OnHedgeWorkerTrace is OnWorkerTrace for the straggler-defense
	// duplicate of this attempt: fireHedge copies it onto the duplicate it
	// posts, so the duplicate executor's spans graft under the scheduler's
	// hedge_attempt span — a sibling subtree — instead of replacing the
	// primary's snapshots on the attempt span.
	OnHedgeWorkerTrace func(worker string, td obs.TraceData, uploadBytes int)

	// shadow marks a coordinator-spawned verification attempt, so it is
	// never itself picked for verification.
	shadow bool

	d        *Dispatcher
	ctx      context.Context
	hash     string
	postedAt time.Time
	out      chan Outcome

	mu          sync.Mutex
	finished    bool
	backend     string
	worker      string
	cancelled   error       // set by Dispatcher.cancel; sticky
	cancelLease func(error) // set while a remote lease is active
}

// Hash is the attempt's versioned spec hash (of the possibly-escalated
// spec), computed once at Do. Remote uploads must round-trip it.
func (a *Attempt) Hash() string { return a.hash }

// Context is the attempt's execution context (deadline included).
func (a *Attempt) Context() context.Context { return a.ctx }

// finish delivers the outcome exactly once; later calls are no-ops.
func (a *Attempt) finish(o Outcome) bool {
	a.mu.Lock()
	if a.finished {
		a.mu.Unlock()
		return false
	}
	a.finished = true
	if o.Backend == "" {
		o.Backend = a.backend
	}
	if o.Worker == "" {
		o.Worker = a.worker
	}
	placed := a.backend
	a.mu.Unlock()
	if a.d != nil {
		a.d.noteFinish(placed, o)
	}
	a.out <- o
	return true
}

// setCancelLease registers the remote-lease canceller. If the attempt was
// already cancelled (the race where the context dies between a backend
// taking the attempt and the lease being recorded), the canceller runs
// immediately so the lease is reclaimed rather than left to the reaper.
func (a *Attempt) setCancelLease(cl func(error)) {
	a.mu.Lock()
	cause := a.cancelled
	a.cancelLease = cl
	a.mu.Unlock()
	if cause != nil && cl != nil {
		cl(cause)
	}
}

// Backend is one attempt executor draining the board.
type Backend interface {
	// Name labels the backend in metrics, traces and job views.
	Name() string
	// Start launches the backend's drain loops; they must exit when ctx is
	// cancelled. Spawn goroutines through d.Go so Dispatcher.Wait covers
	// them.
	Start(ctx context.Context, d *Dispatcher)
}

// Options configures a Dispatcher.
type Options struct {
	// Obs, when non-nil, registers the dispatch instruments (inflight
	// gauge, placement-wait histogram, outcome counters).
	Obs *obs.Registry
	// Log, when non-nil, receives dispatch-correlated log records.
	Log *obs.Logger
}

// Dispatcher is the board: posted attempts on one side, backend takers on
// the other.
type Dispatcher struct {
	log *obs.Logger

	inflight        obs.GaugeVec     // label: backend
	placeWait       obs.HistogramVec // label: backend
	outcomes        obs.CounterVec   // labels: backend, outcome
	energyPreferred obs.Counter

	mu       sync.Mutex
	items    []*Attempt
	waiters  []*waiter
	scores   map[string]float64 // modeled joules/slot per worker
	backends []Backend
	started  bool
	runCtx   context.Context

	wg sync.WaitGroup
}

type waiter struct {
	worker string
	match  func(*Attempt) bool
	ch     chan *Attempt
}

// New builds a Dispatcher. A nil-field Options is fine: instruments and
// logging degrade to no-ops.
func New(opts Options) *Dispatcher {
	d := &Dispatcher{log: opts.Log, scores: map[string]float64{}}
	if opts.Obs != nil {
		d.inflight = opts.Obs.GaugeVec("dispatch_inflight",
			"Attempts currently executing, by backend.", "backend")
		d.placeWait = opts.Obs.HistogramVec("dispatch_place_wait_seconds",
			"Time an attempt waited on the board before a backend took it.",
			obs.DurationBuckets, "backend")
		d.outcomes = opts.Obs.CounterVec("dispatch_attempts_total",
			"Dispatched attempts by backend and outcome.", "backend", "outcome")
		d.energyPreferred = opts.Obs.Counter("precisiond_lease_energy_preferred_total",
			"Lease deliveries where the energy tie-break picked a cheaper "+
				"worker than strict board order would have.")
	}
	return d
}

// SetWorkerScore registers a worker's energy score — modeled joules per
// slot from its arch profile. Among capability-equal idle workers, lease
// delivery prefers the lowest score. A worker without a score competes in
// strict board order only.
func (d *Dispatcher) SetWorkerScore(worker string, joulesPerSlot float64) {
	d.mu.Lock()
	d.scores[worker] = joulesPerSlot
	d.mu.Unlock()
}

// ClearWorkerScore drops a departed worker's energy score.
func (d *Dispatcher) ClearWorkerScore(worker string) {
	d.mu.Lock()
	delete(d.scores, worker)
	d.mu.Unlock()
}

// Register adds a backend. Backends registered after Start are started
// immediately.
func (d *Dispatcher) Register(b Backend) {
	d.mu.Lock()
	d.backends = append(d.backends, b)
	started, ctx := d.started, d.runCtx
	d.mu.Unlock()
	if started {
		b.Start(ctx, d)
	}
}

// Start launches every registered backend; their loops exit when ctx is
// cancelled. Idempotent.
func (d *Dispatcher) Start(ctx context.Context) {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return
	}
	d.started = true
	d.runCtx = ctx
	bs := append([]Backend(nil), d.backends...)
	d.mu.Unlock()
	for _, b := range bs {
		b.Start(ctx, d)
	}
}

// Go runs f on a dispatcher-tracked goroutine (covered by Wait).
func (d *Dispatcher) Go(f func()) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		f()
	}()
}

// Wait blocks until every backend goroutine has exited.
func (d *Dispatcher) Wait() { d.wg.Wait() }

// Do posts the attempt and blocks until a backend delivers its outcome or
// ctx dies. On cancellation a still-pending attempt is withdrawn, an active
// remote lease is revoked, and a running local attempt is waited for (its
// executor observes the same ctx and is bounded by the abandon grace) — Do
// always returns a real Outcome.
func (d *Dispatcher) Do(ctx context.Context, a *Attempt) Outcome {
	a.d = d
	a.ctx = ctx
	a.out = make(chan Outcome, 1)
	a.postedAt = time.Now()
	if a.hash == "" {
		if n, err := a.Spec.Normalized(); err == nil {
			a.hash, _ = n.Hash()
		}
	}

	d.mu.Lock()
	delivered := false
	if i := d.pickWaiterLocked(a); i >= 0 {
		w := d.waiters[i]
		d.waiters = append(d.waiters[:i], d.waiters[i+1:]...)
		w.ch <- a
		delivered = true
	}
	if !delivered {
		d.items = append(d.items, a)
	}
	d.mu.Unlock()

	select {
	case out := <-a.out:
		return out
	case <-ctx.Done():
		d.cancel(a, ctx.Err())
		return <-a.out
	}
}

// pickWaiterLocked chooses which matching waiter (index, -1 for none)
// receives a. Delivery is first-match — board order — unless the first
// match carries a registered energy score (modeled joules/slot from the
// worker's arch profile): then the lowest-scored matching scored waiter
// wins, so among capability-equal idle workers the fleet leases to the
// most energy-efficient one first. Unscored waiters (local lanes,
// unprofiled workers) keep strict board order. Caller holds d.mu.
func (d *Dispatcher) pickWaiterLocked(a *Attempt) int {
	first := -1
	best, bestScore := -1, 0.0
	for i, w := range d.waiters {
		if !w.match(a) {
			continue
		}
		score, scored := d.scores[w.worker]
		if first < 0 {
			if !scored {
				return i
			}
			first = i
		}
		if scored && (best < 0 || score < bestScore) {
			best, bestScore = i, score
		}
	}
	if best >= 0 {
		if best != first {
			d.energyPreferred.Inc()
		}
		return best
	}
	return first
}

// cancel resolves a cancelled attempt: withdraw it if still pending, revoke
// its lease if remotely placed. A locally placed attempt needs no action —
// its executor watches the same context.
func (d *Dispatcher) cancel(a *Attempt, cause error) {
	d.mu.Lock()
	for i, it := range d.items {
		if it == a {
			d.items = append(d.items[:i], d.items[i+1:]...)
			d.mu.Unlock()
			a.finish(Outcome{Err: cause})
			return
		}
	}
	d.mu.Unlock()
	a.mu.Lock()
	a.cancelled = cause
	cl := a.cancelLease
	a.mu.Unlock()
	if cl != nil {
		cl(cause)
	}
}

// Take blocks until an attempt matching match is available (placement is
// recorded and OnPlaced invoked before it returns) or ctx dies (returns
// nil). The caller must drive the attempt to an Outcome.
func (d *Dispatcher) Take(ctx context.Context, backend, worker string, match func(*Attempt) bool) *Attempt {
	for {
		a := d.takeOne(ctx, worker, match)
		if a == nil {
			return nil
		}
		if err := a.ctx.Err(); err != nil {
			// Died on the board between post and take.
			a.finish(Outcome{Err: err})
			continue
		}
		d.place(a, backend, worker)
		return a
	}
}

func (d *Dispatcher) takeOne(ctx context.Context, worker string, match func(*Attempt) bool) *Attempt {
	d.mu.Lock()
	for i, a := range d.items {
		if match(a) {
			d.items = append(d.items[:i], d.items[i+1:]...)
			d.mu.Unlock()
			return a
		}
	}
	w := &waiter{worker: worker, match: match, ch: make(chan *Attempt, 1)}
	d.waiters = append(d.waiters, w)
	d.mu.Unlock()

	select {
	case a := <-w.ch:
		return a
	case <-ctx.Done():
	}
	d.mu.Lock()
	for i, it := range d.waiters {
		if it == w {
			d.waiters = append(d.waiters[:i], d.waiters[i+1:]...)
			break
		}
	}
	d.mu.Unlock()
	select {
	case a := <-w.ch:
		// Delivered in the same instant the wait timed out: put it back at
		// the front so board order is preserved.
		d.mu.Lock()
		d.items = append([]*Attempt{a}, d.items...)
		d.mu.Unlock()
	default:
	}
	return nil
}

func (d *Dispatcher) place(a *Attempt, backend, worker string) {
	wait := time.Since(a.postedAt)
	a.mu.Lock()
	a.backend, a.worker = backend, worker
	a.mu.Unlock()
	d.inflight.With(backend).Add(1)
	d.placeWait.With(backend).Observe(wait.Seconds())
	if a.OnPlaced != nil {
		a.OnPlaced(backend, worker, wait)
	}
}

func (d *Dispatcher) noteFinish(placedBackend string, o Outcome) {
	if placedBackend == "" {
		return
	}
	d.inflight.With(placedBackend).Add(-1)
	outcome := "ok"
	if o.Err != nil {
		outcome = "error"
	}
	d.outcomes.With(placedBackend, outcome).Inc()
}
