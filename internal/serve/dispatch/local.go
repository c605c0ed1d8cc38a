package dispatch

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runner"
)

// LocalConfig sizes a Local backend.
type LocalConfig struct {
	// Slots is the number of attempts executing concurrently (the
	// scheduler's Workers knob).
	Slots int
	// Grace is how long a cancelled run may keep going before its slot is
	// reclaimed and the attempt abandoned.
	Grace time.Duration
	// Exec executes one attempt when the attempt carries no Run closure of
	// its own (coordinator-spawned verification attempts).
	Exec func(ctx context.Context, a *Attempt) (*runner.Result, error)
	// OnBusy is invoked with +1/-1 around each executing attempt (drives
	// the scheduler's worker/lane busy gauges).
	OnBusy func(delta int)
	// Log, when non-nil, receives abandonment warnings.
	Log *obs.Logger
}

// Local drains the board onto in-process solver lanes. It matches every
// attempt — including LocalOnly checkpoint resumes and verification
// attempts — and is the only backend that can be abandoned: a run that
// ignores cancellation past Grace is left behind and its slot reclaimed.
type Local struct {
	cfg LocalConfig
}

// NewLocal builds a local backend.
func NewLocal(cfg LocalConfig) *Local {
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.Grace <= 0 {
		cfg.Grace = 2 * time.Second
	}
	return &Local{cfg: cfg}
}

// Name implements Backend.
func (l *Local) Name() string { return "local" }

// Start implements Backend: one drain goroutine per slot.
func (l *Local) Start(ctx context.Context, d *Dispatcher) {
	for i := 0; i < l.cfg.Slots; i++ {
		d.Go(func() {
			for {
				a := d.Take(ctx, l.Name(), "", func(*Attempt) bool { return true })
				if a == nil {
					return
				}
				l.runOne(ctx, a)
			}
		})
	}
}

// runOne executes a taken attempt on this slot and delivers its outcome.
// The fault point "worker.stall" simulates a wedged run that ignores its
// deadline (it only unblocks with the backend's lifecycle ctx) — the
// abandonment path chaos tests exercise.
func (l *Local) runOne(ctx context.Context, a *Attempt) {
	if l.cfg.OnBusy != nil {
		l.cfg.OnBusy(1)
		defer l.cfg.OnBusy(-1)
	}
	runCtx := a.Context()
	type result struct {
		res *runner.Result
		err error
	}
	ch := make(chan result, 1)
	go func() {
		if fault.Hit("worker.stall") {
			<-ctx.Done() // simulate a wedged run: ignores its own deadline
			ch <- result{nil, &runner.Error{Kind: runner.KindTransient, Op: "run", Err: fmt.Errorf("stalled: %w", fault.ErrInjected)}}
			return
		}
		run := a.Run
		if run == nil {
			run = func(ctx context.Context) (*runner.Result, error) { return l.cfg.Exec(ctx, a) }
		}
		res, err := run(runCtx)
		ch <- result{res, err}
	}()

	select {
	case out := <-ch:
		a.finish(Outcome{Res: out.res, Err: out.err, Backend: l.Name()})
		return
	case <-runCtx.Done():
	}
	// Cancelled (deadline or shutdown): give the run one grace period to
	// observe it — the solvers check ctx every step, so a healthy run
	// returns almost immediately.
	grace := time.NewTimer(l.cfg.Grace)
	defer grace.Stop()
	select {
	case out := <-ch:
		// A run that finished clean after its deadline but before
		// abandonment is kept: the work is done and deterministic.
		a.finish(Outcome{Res: out.res, Err: out.err, Backend: l.Name()})
	case <-grace.C:
		l.cfg.Log.Warn("attempt abandoned",
			obs.Str("job", a.JobID),
			obs.Str("grace", l.cfg.Grace.String()),
			obs.Str("cause", fmt.Sprint(runCtx.Err())))
		a.finish(Outcome{
			Err: &runner.Error{
				Kind: runner.KindTransient,
				Op:   "run abandoned",
				Err:  fmt.Errorf("no response %v after cancellation (%w)", l.cfg.Grace, runCtx.Err()),
			},
			Backend:   l.Name(),
			Abandoned: true,
		})
	}
}
