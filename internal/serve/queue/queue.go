// Package queue is the experiment service's admission and execution layer:
// a bounded job queue, a spec-hash singleflight, and a scheduler that
// drives each job's retry/escalation policy while delegating attempt
// placement to internal/serve/dispatch.
//
// Admission order: a submitted spec is (1) collapsed onto an identical
// queued-or-running job if one exists (singleflight), else (2) answered
// from the content-addressed result cache, else (3) journaled before the
// submission is acknowledged, else (4) admitted, bounded — a full queue
// rejects with ErrQueueFull rather than buffering unboundedly.
//
// Execution: each admitted job gets a policy goroutine that offers one
// attempt at a time to the dispatch board, classifies the outcome and
// raises the matching row of the transition table (transition.go). Every
// state change — its journal record, precisiond_jobs_total{event} count,
// trace event and log line — goes through Scheduler.emit and nowhere else;
// DESIGN.md §7 carries the table as the single reference for the
// lifecycle, retry, escalation, requeue and poison rules.
package queue

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve/cache"
	"repro/internal/serve/dispatch"
)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle: queued → running → done | failed | poisoned. Cache
// answers are born done. Poisoned jobs — specs that failed identically on
// two distinct executors — are parked, not retried, until an operator
// releases them (DELETE /v1/jobs/{id} → RetryPoisoned).
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusPoisoned Status = "poisoned"
)

// ErrQueueFull rejects submissions beyond the queue bound.
var ErrQueueFull = errors.New("queue: job queue is full")

// ErrUnknownJob reports a job ID the scheduler has never seen.
var ErrUnknownJob = errors.New("queue: unknown job")

// ErrNotPoisoned rejects a RetryPoisoned release of a job that is not
// parked as poisoned.
var ErrNotPoisoned = errors.New("queue: job is not poisoned")

// ErrNoTuner rejects a mode:"auto" submission on a scheduler with no
// autotune policy configured: there is nothing to resolve the mode, and
// silently running at full would hide the misconfiguration.
var ErrNoTuner = errors.New(`queue: spec mode "auto" requires the autotune service (Config.Tuner)`)

// AutoTuner is the closed-loop precision policy's hook surface
// (internal/serve/autotune.Tuner is the implementation; the scheduler sees
// only this interface so the packages stay acyclic). Resolve maps an
// accuracy-budgeted spec onto a concrete precision mode at admission;
// ObserveResult / ObserveEscalation feed execution evidence back;
// Savings prices a completed run against the shape's full-precision
// baseline for the job view.
type AutoTuner interface {
	Resolve(spec runner.ExperimentSpec) (runner.ExperimentSpec, error)
	ObserveResult(spec runner.ExperimentSpec, res *runner.Result)
	ObserveEscalation(spec runner.ExperimentSpec, esc runner.Escalation)
	Savings(spec runner.ExperimentSpec, res *runner.Result) (joules, dollars float64, ok bool)
}

// Job tracks one admitted experiment. Progress fields are atomics so the
// NDJSON streamer can poll without locking the scheduler.
type Job struct {
	// ID is the scheduler-assigned identity ("job-000001"); SpecHash is
	// the content address shared by every submission of this spec — and
	// the cache key even when the job escalates to a higher precision.
	ID       string
	SpecHash string
	Spec     runner.ExperimentSpec // normalized, as submitted

	step, total atomic.Int64
	attempts    atomic.Int64

	mu          sync.Mutex
	status      Status
	cached      bool
	recovered   bool
	tryResume   bool
	waiting     bool // counted in Scheduler.waiting: enqueued, no backend yet
	backend     string
	flow        string
	timeout     time.Duration
	escalations []runner.Escalation
	result      []byte
	// store is set when the job reached done by executing and the cache
	// took its payload: the job then holds neither the bytes nor any span
	// but the trace root, and Result/Trace read the cache (DESIGN.md §7).
	store  *cache.Cache
	errMsg string
	// Autotune provenance: tunedMode is the concrete mode Resolve picked
	// for a mode:"auto" submission (with the requested budgets echoed);
	// savedJoules/savedDollars price the completed run against the shape's
	// full-precision baseline.
	tunedMode      string
	maxMassError   float64
	maxLinecutLinf float64
	savedJoules    float64
	savedDollars   float64
	// done closes at each terminal state; doneClosed guards the close so
	// finish stays idempotent. Re-enqueueing a parked job swaps in a fresh
	// channel, so Done() reads under the lock.
	done       chan struct{}
	doneClosed bool
	// poisonSeen tracks, per failure kind, the distinct executors
	// (worker ID or backend) that failed this spec with it. Two distinct
	// executors failing the same way convict the spec, not the box.
	poisonSeen map[string]map[string]struct{}

	// trace is the job's span timeline, recorded from admission to the
	// terminal state (obs.Trace is internally synchronized). queueSpan and
	// enqueuedAt are written by enqueueLocked before the policy goroutine
	// starts.
	trace      *obs.Trace
	queueSpan  obs.Span
	enqueuedAt time.Time
}

// Trace snapshots the job's span timeline as recorded so far; spans still
// open (a running attempt) are frozen at the snapshot instant. A job whose
// payload went to the cache reports the timeline sealed into that payload.
func (j *Job) Trace() obs.TraceData {
	j.mu.Lock()
	released := j.store != nil
	j.mu.Unlock()
	if !released {
		return j.trace.Snapshot()
	}
	var res struct {
		Trace *obs.TraceData `json:"trace"`
	}
	if payload, ok := j.Result(); ok && json.Unmarshal(payload, &res) == nil && res.Trace != nil {
		return *res.Trace
	}
	return j.trace.Snapshot() // the entry is gone: the root is all that is left
}

// View is an immutable snapshot of a job for handlers and clients.
type View struct {
	ID          string                `json:"id"`
	SpecHash    string                `json:"spec_hash"`
	Spec        runner.ExperimentSpec `json:"spec"`
	Status      Status                `json:"status"`
	Cached      bool                  `json:"cached"`
	Recovered   bool                  `json:"recovered,omitempty"`
	Step        int64                 `json:"step"`
	Total       int64                 `json:"total"`
	Attempts    int64                 `json:"attempts,omitempty"`
	Escalations []runner.Escalation   `json:"escalations,omitempty"`
	// Backend reports where the latest attempt was placed: "local", or
	// "fleet/worker-NNN" for a remote lease.
	Backend string `json:"backend,omitempty"`
	// Flow labels bulk-admission traffic ("" for interactive submissions;
	// "campaign/<id>" for server-side campaign expansion).
	Flow  string `json:"flow,omitempty"`
	Error string `json:"error,omitempty"`
	// TunedMode is the concrete precision mode the autotuner resolved a
	// mode:"auto" submission to; MaxMassError/MaxLinecutLinf echo the
	// requested accuracy budgets (the resolved Spec has them stripped so
	// its hash matches a plain submission). All empty for plain jobs.
	TunedMode      string  `json:"tuned_mode,omitempty"`
	MaxMassError   float64 `json:"max_mass_error,omitempty"`
	MaxLinecutLinf float64 `json:"max_linecut_linf,omitempty"`
	// SavedJoules/SavedDollars are the modeled energy and cost this run
	// saved against the shape's full-precision baseline (0 until the job
	// completes below full with a baseline on record).
	SavedJoules  float64 `json:"saved_joules,omitempty"`
	SavedDollars float64 `json:"saved_dollars,omitempty"`
}

// Snapshot captures the job's current state.
func (j *Job) Snapshot() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	return View{
		ID:             j.ID,
		SpecHash:       j.SpecHash,
		Spec:           j.Spec,
		Status:         j.status,
		Cached:         j.cached,
		Recovered:      j.recovered,
		Step:           j.step.Load(),
		Total:          j.total.Load(),
		Attempts:       j.attempts.Load(),
		Escalations:    append([]runner.Escalation(nil), j.escalations...),
		Backend:        j.backend,
		Flow:           j.flow,
		Error:          j.errMsg,
		TunedMode:      j.tunedMode,
		MaxMassError:   j.maxMassError,
		MaxLinecutLinf: j.maxLinecutLinf,
		SavedJoules:    j.savedJoules,
		SavedDollars:   j.savedDollars,
	}
}

// Done is closed when the job reaches a terminal state. A poisoned job
// revived by RetryPoisoned gets a fresh channel; callers that need the
// next terminal state re-call Done.
func (j *Job) Done() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done
}

// Result returns the serialized result payload once the job is done.
// The bytes are the exact cache payload: byte-identical for every
// submission of the same spec. For a job that executed and cached its
// result this is a cache read (hot tier, then disk), which reports false
// if the entry has since been lost (quarantined as corrupt, deleted).
func (j *Job) Result() ([]byte, bool) {
	j.mu.Lock()
	payload, done, store := j.result, j.status == StatusDone, j.store
	j.mu.Unlock()
	if store != nil {
		payload, _, done = store.Fetch(j.SpecHash)
	}
	return payload, done
}

func (j *Job) progress(step, totalSteps int) {
	j.step.Store(int64(step))
	j.total.Store(int64(totalSteps))
}

func (j *Job) addEscalation(e runner.Escalation) {
	j.mu.Lock()
	j.escalations = append(j.escalations, e)
	j.mu.Unlock()
}

func (j *Job) escalationsCopy() []runner.Escalation {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.escalations) == 0 {
		return nil
	}
	return append([]runner.Escalation(nil), j.escalations...)
}

// finish moves the job to a terminal state holding result, or — with a
// non-nil store that already holds the result — holding only what the
// cache cannot answer: the trace keeps its root alone.
func (j *Job) finish(st Status, result []byte, errMsg string, store *cache.Cache) {
	j.mu.Lock()
	j.status = st
	j.result, j.store = result, store
	j.errMsg = errMsg
	ch, closed := j.done, j.doneClosed
	j.doneClosed = true
	j.mu.Unlock()
	if store != nil {
		j.trace.Release()
	}
	if !closed {
		close(ch)
	}
}

// notePoisonExecutor records one failed (kind, executor) pair and returns
// how many distinct executors have failed this job with that kind.
func (j *Job) notePoisonExecutor(kind, executor string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.poisonSeen == nil {
		j.poisonSeen = make(map[string]map[string]struct{})
	}
	set := j.poisonSeen[kind]
	if set == nil {
		set = make(map[string]struct{})
		j.poisonSeen[kind] = set
	}
	set[executor] = struct{}{}
	return len(set)
}

// RunRequest carries one execution attempt's inputs to a RunFunc.
type RunRequest struct {
	Spec     runner.ExperimentSpec // normalized; Mode may be escalated
	Lanes    int
	Progress func(step, total int)
	// Resume, when non-nil, restores the solver from a checkpoint instead
	// of the initial condition (crash recovery of a started job).
	Resume io.Reader
	// CheckpointEvery/CheckpointSink request periodic in-flight
	// checkpoints so a crashed daemon can resume this job mid-run.
	CheckpointEvery int
	CheckpointSink  func(step int) (io.WriteCloser, error)
}

// RunFunc executes one attempt. Swapped out in tests.
type RunFunc func(ctx context.Context, req RunRequest) (*runner.Result, error)

// DefaultRun executes the attempt through the runner.
func DefaultRun(ctx context.Context, req RunRequest) (*runner.Result, error) {
	return runner.Run(ctx, req.Spec, runner.RunOpts{
		Workers:         req.Lanes,
		Progress:        req.Progress,
		Resume:          req.Resume,
		CheckpointEvery: req.CheckpointEvery,
		CheckpointSink:  req.CheckpointSink,
	})
}

// Config sizes a Scheduler.
type Config struct {
	// Workers is the number of jobs executing concurrently on the local
	// backend (default 2; ignored when DisableLocal is set).
	Workers int
	// QueueDepth bounds the pending-job queue (default 64).
	QueueDepth int
	// Lanes is the machine's total parallel-lane budget divided among the
	// workers (default GOMAXPROCS).
	Lanes int
	// Cache, when non-nil, answers repeat submissions and stores results.
	Cache *cache.Cache
	// Run executes one attempt (default DefaultRun).
	Run RunFunc
	// Journal, when non-nil, write-ahead-logs every admission and state
	// change so Recover can replay accepted jobs after a crash.
	Journal *Journal
	// CheckpointDir, with CheckpointEvery > 0, makes running jobs write a
	// periodic checkpoint (<dir>/<jobID>.ckpt, atomically replaced) that
	// recovery resumes from. Off by default: periodic checkpoints count
	// toward the result's store counters, so they are an explicit opt-in
	// (DESIGN.md §7).
	CheckpointDir   string
	CheckpointEvery int
	// JobTimeout is the per-attempt deadline for jobs submitted without
	// their own (0 = none). A timed-out job fails immediately — its lanes
	// go to the next queued job, never a rerun of the same budget.
	JobTimeout time.Duration
	// AbandonGrace is how long a cancelled attempt may keep running before
	// the local backend abandons it and moves on (default 2s).
	AbandonGrace time.Duration
	// ReserveInteractive holds this many queue slots exclusively for
	// interactive submissions (Flow == ""): flow-labelled bulk traffic — a
	// campaign expanding thousands of specs — is bounced with ErrQueueFull
	// once the queue is within the reserve, so a single POST /v1/jobs
	// always finds room no matter how large the campaign behind it is
	// (0 = no reserve; the pre-campaign behavior).
	ReserveInteractive int
	// Retry bounds transient-failure retries (see RetryPolicy defaults).
	Retry RetryPolicy
	// Dispatch, when non-nil, is a shared dispatcher the scheduler places
	// attempts on — precisiond wires one dispatcher carrying both the
	// local backend and the remote-fleet coordinator. Nil builds a private
	// dispatcher with just the local backend (the single-node default).
	Dispatch *dispatch.Dispatcher
	// DisableLocal skips registering the local backend; every attempt must
	// then be leased by a remote worker (precisiond -workers 0). Requires
	// a Dispatch carrying a fleet coordinator.
	DisableLocal bool
	// Obs, when non-nil, is the registry the scheduler's instruments (job
	// counters, queue-wait/run-duration histograms, journal fsync latency,
	// worker/lane gauges, the queue-depth gauge) are served from; nil keeps
	// them in a private registry that only Stats() reads. Job traces are
	// recorded regardless — they are per-job, not per-registry.
	Obs *obs.Registry
	// Log, when non-nil, receives job-correlated structured log records.
	Log *obs.Logger
	// Energy, when non-nil, models a completed run's energy/cost when the
	// backend did not already account for it (res.Energy == nil — i.e.
	// local-backend runs; the fleet coordinator prices remote uploads with
	// the executing worker's registered profile before the result reaches
	// the scheduler). Receives the placement so it can pick a profile.
	Energy func(backend, worker string, res *runner.Result) *runner.Energy
	// OnComplete, when non-nil, observes every successfully finished job
	// after its trace is frozen into the result — precisiond's
	// -trace-export hook. Called synchronously on the job's goroutine;
	// keep it cheap or hand off.
	OnComplete func(job *Job, res *runner.Result)
	// Tuner, when non-nil, is the closed-loop precision policy: mode
	// "auto" submissions resolve through it at admission, and every
	// executed result / escalation is offered to its decision table (which
	// keeps those of shapes an auto submission named). Nil rejects auto
	// submissions with ErrNoTuner.
	Tuner AutoTuner
}

// SubmitOptions carries per-submission execution knobs.
type SubmitOptions struct {
	// Timeout overrides Config.JobTimeout for this job (0 = inherit).
	Timeout time.Duration
	// Flow labels the admission's traffic class ("" = interactive). A
	// non-empty flow is subject to Config.ReserveInteractive: bulk traffic
	// never occupies the queue slots reserved for interactive submissions.
	Flow string
}

// Stats counts scheduler traffic for /v1/cache/stats.
type Stats struct {
	Submitted     uint64 `json:"submitted"`
	DedupHits     uint64 `json:"dedup_hits"`
	CacheHits     uint64 `json:"cache_hits"`
	Executed      uint64 `json:"executed"`
	Failed        uint64 `json:"failed"`
	QueueRejected uint64 `json:"queue_rejected"`
	Retried       uint64 `json:"retried"`
	Escalated     uint64 `json:"escalated"`
	TimedOut      uint64 `json:"timed_out"`
	Abandoned     uint64 `json:"abandoned"`
	Recovered     uint64 `json:"recovered"`
	// Requeued counts attempts whose remote lease expired and were put
	// back on the board under the job's original ID.
	Requeued uint64 `json:"requeued"`
	// Poisoned counts jobs parked after failing identically on two
	// distinct executors.
	Poisoned   uint64 `json:"poisoned"`
	QueueDepth int    `json:"queue_depth"`
	Workers    int    `json:"workers"`
}

// Scheduler admits, deduplicates and executes jobs.
type Scheduler struct {
	cfg   Config
	lanes int
	disp  *dispatch.Dispatcher

	// started gates policy goroutines until Start supplies the lifecycle
	// context.
	started   chan struct{}
	startOnce sync.Once
	runCtx    context.Context

	mu       sync.Mutex
	jobs     map[string]*Job // by job ID
	order    []string        // job IDs in admission order
	inflight map[string]*Job // spec hash → queued-or-running job
	nextID   uint64
	waiting  int // admitted jobs not yet placed on a backend (the queue depth)

	// obs holds the scheduler's instruments — among them the per-event
	// counters that are the only record of job traffic, so Stats() and
	// /metrics cannot disagree. log is the structured logger (nil-safe).
	obs *schedObs
	log *obs.Logger

	wg sync.WaitGroup
}

// New builds a scheduler; call Recover (if journaled) then Start.
func New(cfg Config) *Scheduler {
	if cfg.DisableLocal {
		cfg.Workers = 0
	} else if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Lanes <= 0 {
		cfg.Lanes = runtime.GOMAXPROCS(0)
	}
	if cfg.Run == nil {
		cfg.Run = DefaultRun
	}
	if cfg.AbandonGrace <= 0 {
		cfg.AbandonGrace = 2 * time.Second
	}
	cfg.Retry = cfg.Retry.withDefaults()
	if cfg.CheckpointDir != "" {
		_ = os.MkdirAll(cfg.CheckpointDir, 0o755)
	}
	lanes := cfg.Lanes
	if cfg.Workers > 0 {
		lanes = cfg.Lanes / cfg.Workers
	}
	if lanes < 1 {
		lanes = 1
	}
	s := &Scheduler{
		cfg:      cfg,
		lanes:    lanes,
		started:  make(chan struct{}),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
		log:      cfg.Log,
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry() // private: Stats() still has its counters
	}
	s.obs = newSchedObs(reg, s)
	if cfg.Journal != nil {
		cfg.Journal.setFsyncHist(s.obs.fsync)
	}
	s.disp = cfg.Dispatch
	if s.disp == nil {
		s.disp = dispatch.New(dispatch.Options{Obs: cfg.Obs, Log: cfg.Log})
	}
	if !cfg.DisableLocal {
		s.disp.Register(dispatch.NewLocal(dispatch.LocalConfig{
			Slots: cfg.Workers,
			Grace: cfg.AbandonGrace,
			Exec: func(ctx context.Context, a *dispatch.Attempt) (*runner.Result, error) {
				// Coordinator-spawned verification attempts carry no Run
				// closure; execute them like any other attempt.
				return s.cfg.Run(ctx, RunRequest{Spec: a.Spec, Lanes: s.lanes, Progress: a.Progress})
			},
			OnBusy: func(delta int) {
				s.obs.workersBusy.Add(int64(delta))
				s.obs.lanesBusy.Add(int64(delta) * int64(s.lanes))
			},
			Log: cfg.Log,
		}))
	}
	return s
}

// Start launches the dispatch backends and releases the policy goroutines;
// everything exits when ctx is cancelled (cancelling any running solver
// between steps). Wait blocks until they have drained.
func (s *Scheduler) Start(ctx context.Context) {
	s.startOnce.Do(func() {
		s.runCtx = ctx
		close(s.started)
		s.disp.Start(ctx)
	})
}

// Wait blocks until every job's policy goroutine and every dispatch
// backend goroutine has exited (after ctx cancellation). Jobs that never
// ran get no terminal journal record — an acked job that never ran is owed
// to the journal, and the next boot's Recover replays it.
func (s *Scheduler) Wait() {
	s.wg.Wait()
	s.disp.Wait()
}

// JournalLastError returns the journal's last append failure ever observed
// ("" when un-journaled or never-failed) — /healthz forensics.
func (s *Scheduler) JournalLastError() string {
	if s.cfg.Journal == nil {
		return ""
	}
	return s.cfg.Journal.LastError()
}

// Health reports nil when the scheduler's durability machinery is sound;
// a journal whose last append could not fsync degrades the daemon.
func (s *Scheduler) Health() error {
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.SyncErr(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	return nil
}

// runJob is one job's policy goroutine: it waits for Start, then drives the
// job to a terminal state.
func (s *Scheduler) runJob(job *Job) {
	defer s.wg.Done()
	<-s.started
	s.execute(s.runCtx, job)
}

// jobPlaced records that a backend took one of the job's attempts: the view
// shows where it landed, and the first placement moves the job to running
// (the queue-depth gauge drops, the queue-wait histogram observes it).
func (s *Scheduler) jobPlaced(job *Job, att obs.Span, backend, worker string, wait time.Duration) {
	if worker != "" {
		// Remote placements record the lease wait retroactively (local
		// placements add no span — the local timeline is pinned by tests
		// and dashboards).
		att.PrefixChild("lease_wait", wait, obs.Str("worker", worker))
		att.Annotate(obs.Str("backend", backend), obs.Str("worker", worker))
	} else {
		att.Annotate(obs.Str("backend", backend))
	}
	job.mu.Lock()
	job.backend = placement(backend, worker)
	job.mu.Unlock()
	s.emit(job, evPlaced, detail{})
}

// placement labels where an attempt ran: "local", or "fleet/worker-NNN".
func placement(backend, worker string) string {
	if worker == "" {
		return backend
	}
	return backend + "/" + worker
}

// shutdownMsg is the Error of a job the stopping scheduler gave up on.
const shutdownMsg = "scheduler shut down before completion; the job will be recovered from the journal"

// execute is one job's policy loop: run an attempt, classify its outcome
// into a verdict, raise the verdict's transition, and — while that leaves
// the job live — set up the next attempt the way the verdict says. Every
// phase lands in the job's trace: the queue_wait span closes when the first
// attempt is offered, each attempt gets a span (with its backend and outcome
// and, on success, the solver's phase aggregates), backoffs are spans and
// everything else is an event of the raised row.
func (s *Scheduler) execute(ctx context.Context, job *Job) {
	spec := job.Spec
	if esc := job.escalationsCopy(); len(esc) > 0 {
		spec.Mode = esc[len(esc)-1].ToMode // recovered job resumes at its rung
	}
	var resume []byte
	job.mu.Lock()
	if job.tryResume {
		resume = s.loadCheckpoint(job.ID)
	}
	timeout := cmp.Or(job.timeout, s.cfg.JobTimeout)
	job.mu.Unlock()

	for retries := 0; ctx.Err() == nil; {
		att, out := s.attempt(ctx, job, spec, resume, timeout)
		if out.Err == nil {
			s.succeed(job, att, spec, out)
			return
		}
		if ctx.Err() != nil {
			att.Annotate(obs.Str("outcome", "shutdown"))
			att.End()
			break
		}
		v := s.classify(job, spec, resume != nil, retries, out)
		att.Annotate(obs.Str("outcome", v.outcome), obs.Str("error", out.Err.Error()))
		att.End()
		s.emit(job, v.ev, v.d)
		switch v.ev {
		case evRequeued:
			// Re-offer under the job's original ID: the journal's admission
			// record still owns the job, so a crash here replays it as before.
		case evResumeDiscarded:
			// At most once, and outside the retry budget.
			resume = nil
			s.removeCheckpoint(job.ID)
		case evEscalated:
			job.addEscalation(*v.d.esc)
			if s.cfg.Tuner != nil {
				// Fed while spec still names the failing mode: the table's
				// floor rises above it and any committed demotion at or
				// below it reverts.
				s.cfg.Tuner.ObserveEscalation(spec, *v.d.esc)
			}
			spec.Mode = v.d.esc.ToMode
			retries = 0 // fresh retry budget at the new rung
			s.removeCheckpoint(job.ID)
		case evRetried:
			retries++
			b := job.trace.Root().Child("backoff", intAttr("retry", int64(retries)))
			sleepCtx(ctx, v.backoff)
			b.End()
		case evTimedOut:
			// The budget was the contract: no retry, the lane goes to the
			// next queued job.
			s.emit(job, evFailed, v.d)
			return
		default:
			return // terminal: failed or poisoned
		}
	}
	s.emit(job, evShutdown, detail{err: shutdownMsg})
}

// attempt offers one attempt to the dispatch board under the job deadline
// and blocks for its outcome. Abandonment (a local run ignoring
// cancellation past the grace) and lease expiry (a remote worker going
// silent) both surface as error outcomes for classify.
func (s *Scheduler) attempt(ctx context.Context, job *Job, spec runner.ExperimentSpec, resume []byte, timeout time.Duration) (obs.Span, dispatch.Outcome) {
	n := job.attempts.Add(1)
	attrs := []obs.Attr{obs.Str("mode", spec.Mode), intAttr("n", n)}
	// A failed started append is tolerated: it only widens the resume
	// window (SyncErr degrades /healthz regardless).
	s.emit(job, evAttempt, detail{mode: spec.Mode, attrs: attrs})
	req := RunRequest{
		Spec:            spec,
		Lanes:           s.lanes,
		Progress:        job.progress,
		CheckpointEvery: s.cfg.CheckpointEvery,
		CheckpointSink:  s.checkpointSink(job.ID),
	}
	if resume != nil {
		req.Resume = bytes.NewReader(resume)
		attrs = append(attrs, obs.Str("resume", "checkpoint"))
	}
	// The queue_wait span closes when the first attempt is offered to the
	// board (idempotent on retries); any further wait — a busy local slot,
	// no eligible remote worker — lands inside the attempt span (as a
	// lease_wait child for remote placements). The queue-wait histogram and
	// depth gauge track actual placement instead.
	job.queueSpan.End()
	att := job.trace.Root().Child("attempt", attrs...)
	hedgeEvents, hedgeTrace := hedgeRecorders(job)
	a := &dispatch.Attempt{
		JobID:     job.ID,
		Spec:      spec,
		N:         n,
		LocalOnly: resume != nil, // a checkpoint resume reads local state
		Run:       func(rc context.Context) (*runner.Result, error) { return s.cfg.Run(rc, req) },
		Progress:  job.progress,
		OnPlaced: func(backend, worker string, wait time.Duration) {
			s.jobPlaced(job, att, backend, worker, wait)
		},
		OnHedge:            hedgeEvents,
		OnWorkerTrace:      workerTraceRecorder(att),
		OnHedgeWorkerTrace: hedgeTrace,
	}
	var runCtx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		runCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	started := time.Now()
	out := s.disp.Do(runCtx, a)
	s.obs.runDur.With(string(spec.App), spec.Mode).ObserveSince(started)
	if out.Abandoned {
		s.emit(job, evAbandoned, detail{})
	}
	return att, out
}

// succeed publishes a completed attempt: the solver's phase aggregates and
// modeled energy land on the attempt span, the result feeds the exposition
// counters and the autotuner, and the executed transition seals, caches,
// journals and finishes the job.
func (s *Scheduler) succeed(job *Job, att obs.Span, spec runner.ExperimentSpec, out dispatch.Outcome) {
	res := out.Res
	for _, p := range res.Phases {
		att.AggregateChild("phase:"+p.Name, time.Duration(p.Seconds*float64(time.Second)))
	}
	// Energy accounting: remote uploads arrive already priced (the
	// coordinator applies the executing worker's registered profile); the
	// configured fallback covers local-backend runs. Either way the figures
	// derive from the deterministic counters, so they ride as span
	// attributes and metrics without perturbing the result hash.
	if res.Energy == nil && s.cfg.Energy != nil {
		res.Energy = s.cfg.Energy(out.Backend, out.Worker, res)
	}
	if e := res.Energy; e != nil {
		att.Annotate(obs.Str("arch", e.Arch),
			obs.Str("joules", formatEnergy(e.Joules)),
			obs.Str("cost_dollars", formatEnergy(e.CostDollars)))
		s.obs.observeEnergy(string(spec.App), spec.Mode, e)
	}
	att.Annotate(obs.Str("outcome", "ok"))
	att.End()
	res.Escalations = job.escalationsCopy()
	s.obs.observeResultCounters(res.Counters)
	if s.cfg.Tuner != nil {
		// An executed result of a shape some auto submission named is fleet
		// evidence (the tuner ignores every other shape): full runs refresh
		// its fidelity reference and savings baseline, demoted runs fold
		// their measured fidelity in and may warm the next demotion probe.
		s.cfg.Tuner.ObserveResult(spec, res)
		if sj, sd, ok := s.cfg.Tuner.Savings(spec, res); ok {
			job.mu.Lock()
			job.savedJoules, job.savedDollars = sj, sd
			job.mu.Unlock()
		}
	}
	err := s.emit(job, evExecuted, detail{res: res, attrs: []obs.Attr{
		obs.Str("mode", spec.Mode), intAttr("attempts", job.attempts.Load()),
		obs.Str("backend", placement(out.Backend, out.Worker)),
		obs.Str("wall", time.Since(job.enqueuedAt).Round(time.Millisecond).String()),
	}})
	if err == nil && s.cfg.OnComplete != nil {
		s.cfg.OnComplete(job, res)
	}
}

// verdict is what the failure policy makes of one failed attempt.
type verdict struct {
	outcome string        // the attempt span's outcome attr
	ev      event         // the transition to raise
	d       detail        // … and its particulars
	backoff time.Duration // evRetried: the wait before the next attempt
}

// classify is the failure policy (DESIGN.md §7): a lease expiry re-offers
// the attempt; a checkpoint that would not resume (corrupt, stale rung) is
// discarded; a numerical-guard abort climbs the precision ladder until its
// top; a transient failure retries under the per-rung budget unless it
// reproduces with the same kind on two distinct executors — that convicts
// the job, not the environment, and parks it rather than burning the rest
// of the budget (and any future fleet capacity) on it; timeouts and
// permanent errors fail at once, so their lanes go to the next queued job.
func (s *Scheduler) classify(job *Job, spec runner.ExperimentSpec, resumed bool, retries int, out dispatch.Outcome) verdict {
	msg := out.Err.Error()
	if errors.Is(out.Err, dispatch.ErrLeaseExpired) {
		// A placement failure, not a run failure: the worker died or went
		// silent mid-lease.
		return verdict{outcome: "lease_expired", ev: evRequeued, d: detail{attrs: []obs.Attr{obs.Str("cause", msg)}}}
	}
	kind := runner.Classify(out.Err)
	v := verdict{outcome: kind.String(), ev: evFailed, d: detail{err: msg}}
	switch {
	case resumed:
		v.ev = evResumeDiscarded
	case kind == runner.KindNumerical:
		mode, _ := spec.PrecisionMode()
		next, ok := mode.Next()
		if !ok {
			v.d.err = "numerical failure at top precision rung: " + msg
			break
		}
		failedHash, err := spec.Hash()
		if err != nil {
			failedHash = job.SpecHash
		}
		esc := &runner.Escalation{FromMode: spec.Mode, ToMode: next.Name(), FromSpecHash: failedHash, Reason: msg}
		v.ev = evEscalated
		v.d = detail{esc: esc, attrs: []obs.Attr{
			obs.Str("from", esc.FromMode), obs.Str("to", esc.ToMode), obs.Str("reason", esc.Reason)}}
	case kind == runner.KindTransient:
		executor := cmp.Or(out.Worker, out.Backend, "local")
		if job.notePoisonExecutor(kind.String(), executor) >= 2 {
			v.ev = evPoisoned
			break
		}
		if retries+1 >= s.cfg.Retry.MaxAttempts {
			v.d.err = fmt.Sprintf("gave up after %d attempts: %s", retries+1, msg)
			break
		}
		v.ev = evRetried
		v.backoff = s.cfg.Retry.backoff(retries + 1)
		v.d.attrs = []obs.Attr{intAttr("retry", int64(retries+1)), obs.Str("backoff", v.backoff.String())}
	case kind == runner.KindTimeout:
		v.ev = evTimedOut
	}
	return v
}

// workerTraceRecorder grafts a remote executor's shipped span timeline
// under the given attempt span. Snapshots arrive from coordinator HTTP
// handler goroutines — partials on heartbeats, the final one on complete —
// and each replaces the previous (SetRemote takes the trace lock, so no
// extra synchronisation is needed). The final snapshot carries the upload
// payload size, recorded as an event so the cross-node timeline shows when
// the result landed back on the coordinator and how big it was.
func workerTraceRecorder(att obs.Span) func(worker string, td obs.TraceData, uploadBytes int) {
	return func(worker string, td obs.TraceData, uploadBytes int) {
		att.SetRemote(td)
		if uploadBytes > 0 {
			att.Event("upload",
				obs.Str("worker", worker), intAttr("bytes", int64(uploadBytes)))
		}
	}
}

// hedgeRecorders renders straggler-defense activity into the job trace:
// the duplicate attempt becomes a "hedge_attempt" span, a sibling of the
// primary "attempt" span, annotated with its outcome; verification
// results land as events on the root; the duplicate executor's own span
// timeline (routed here via Attempt.OnHedgeWorkerTrace) grafts under the
// hedge span so hedged attempts render as full sibling subtrees. Events
// arrive from coordinator goroutines, possibly after the job completed
// (the loser's upload lands late), so the recorders share a lock.
func hedgeRecorders(job *Job) (func(event, worker string), func(worker string, td obs.TraceData, uploadBytes int)) {
	var mu sync.Mutex
	var span obs.Span
	var created, open bool
	events := func(event, worker string) {
		mu.Lock()
		defer mu.Unlock()
		switch event {
		case "fired":
			span = job.trace.Root().Child("hedge_attempt", obs.Str("primary", worker))
			created, open = true, true
		case "won", "lost", "skipped":
			if open {
				span.Annotate(obs.Str("outcome", event), obs.Str("worker", worker))
				span.End()
				open = false
			}
		case "verified", "mismatch":
			job.trace.Root().Event("hedge_"+event, obs.Str("worker", worker))
		}
	}
	trace := func(worker string, td obs.TraceData, uploadBytes int) {
		mu.Lock()
		defer mu.Unlock()
		if !created {
			return // no hedge span to graft under (never fired)
		}
		span.SetRemote(td)
		if uploadBytes > 0 {
			span.Event("upload",
				obs.Str("worker", worker), intAttr("bytes", int64(uploadBytes)))
		}
	}
	return events, trace
}

// formatEnergy renders joules/dollars compactly for span attributes.
func formatEnergy(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// RetryPoisoned releases a poisoned job back onto the queue with a fresh
// retry budget and a clean executor-failure ledger. The release is
// journaled before the job becomes runnable so a crash between the two
// re-parks rather than silently re-runs. ErrUnknownJob / ErrNotPoisoned
// report a bad target; a journal append failure leaves the job parked.
func (s *Scheduler) RetryPoisoned(id string) error {
	// s.mu serializes releases: the second of two concurrent ones finds the
	// job already queued.
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return ErrUnknownJob
	}
	job.mu.Lock()
	parked := job.status == StatusPoisoned
	job.mu.Unlock()
	if !parked {
		return ErrNotPoisoned
	}
	if err := s.emit(job, evUnpoisoned, detail{}); err != nil {
		return fmt.Errorf("queue: journal release: %w", err)
	}
	return nil
}

// Submit admits a spec with default options; see SubmitOpts.
func (s *Scheduler) Submit(spec runner.ExperimentSpec) (*Job, error) {
	return s.SubmitOpts(spec, SubmitOptions{})
}

// SubmitOpts admits a spec. The returned job may be (a) an existing
// in-flight job for the same spec hash (singleflight dedup — its ID is the
// earlier submission's), (b) a new already-done job answered from the
// cache, or (c) a new admitted job, journaled before this call returns.
// ErrQueueFull reports an over-full queue; a journal append failure
// rejects the submission (never acked ⇒ never owed).
//
// Mode "auto" resolves through Config.Tuner to a concrete mode before
// anything else: the dedup map, the cache and the journal only ever see
// the resolved concrete spec, whose hash is identical to a plain
// submission at that mode — so an auto submission collapses onto (and
// warms the cache for) its concrete twin and vice versa.
func (s *Scheduler) SubmitOpts(spec runner.ExperimentSpec, opts SubmitOptions) (*Job, error) {
	n, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	var tunedMode string
	reqMass, reqLinf := n.MaxMassError, n.MaxLinecutLinf
	if n.IsAuto() {
		if s.cfg.Tuner == nil {
			return nil, ErrNoTuner
		}
		if n, err = s.cfg.Tuner.Resolve(n); err != nil {
			return nil, err
		}
		tunedMode = n.Mode
	}
	hash, err := n.Hash()
	if err != nil {
		return nil, err
	}
	// newJob registers the submission's job; caller holds s.mu.
	newJob := func() *Job {
		s.nextID++
		job := s.registerJobLocked(fmt.Sprintf("job-%06d", s.nextID), n, hash)
		if tunedMode != "" {
			job.tunedMode = tunedMode
			job.maxMassError, job.maxLinecutLinf = reqMass, reqLinf
		}
		return job
	}

	s.emit(nil, evSubmitted, detail{})
	s.mu.Lock()
	dup, ok := s.inflight[hash]
	s.mu.Unlock()
	if ok {
		s.emit(dup, evDedupHit, detail{})
		return dup, nil
	}

	// Cache probe outside the lock (disk I/O). A concurrent duplicate may
	// race to enqueue first; the re-check under the lock below collapses
	// the race back onto one execution.
	if s.cfg.Cache != nil {
		if payload, src, ok := s.cfg.Cache.Fetch(hash); ok {
			s.mu.Lock()
			job := newJob()
			job.cached = true
			s.mu.Unlock()
			s.emit(job, evCacheHit, detail{payload: payload, attrs: []obs.Attr{obs.Str("source", string(src))}})
			return job, nil
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if dup, ok := s.inflight[hash]; ok {
		s.emit(dup, evDedupHit, detail{})
		return dup, nil
	}
	limit := s.cfg.QueueDepth
	if opts.Flow != "" && s.cfg.ReserveInteractive > 0 {
		// Bulk flows stop short of the interactive reserve.
		if limit -= s.cfg.ReserveInteractive; limit < 1 {
			limit = 1
		}
	}
	if s.waiting >= limit {
		// Bounded admission, checked before the journal append so a
		// rejected submission leaves no record to compensate.
		s.emit(nil, evQueueRejected, detail{})
		return nil, ErrQueueFull
	}
	job := newJob()
	job.timeout = opts.Timeout
	job.flow = opts.Flow
	// Journal-then-ack: the admission record must be durable before the job
	// is visible or acknowledged. The fsync under s.mu serializes
	// submissions, and that is on a hot path: the campaign pump admits
	// every campaign job through here, one fsync each.
	err = s.emit(job, evAdmitted, detail{attrs: []obs.Attr{
		obs.Str("spec_hash", hash), obs.Str("app", string(n.App)), obs.Str("mode", n.Mode)}})
	if err != nil {
		delete(s.jobs, job.ID)
		s.order = s.order[:len(s.order)-1]
		s.nextID--
		return nil, fmt.Errorf("queue: journal admission: %w", err)
	}
	return job, nil
}

// registerJobLocked installs a job under its ID (recovery preserves the
// crashed daemon's IDs); caller holds s.mu. The job has no state until a
// transition gives it one.
func (s *Scheduler) registerJobLocked(id string, spec runner.ExperimentSpec, hash string) *Job {
	job := &Job{
		ID:       id,
		SpecHash: hash,
		Spec:     spec,
		done:     make(chan struct{}),
		trace:    obs.NewTrace(id, "job", attrsForSpec(spec, hash)...),
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	return job
}

// Recover replays the journal's pending jobs onto the board. Call after
// New and before Start. Poisoned jobs are parked again without running: the
// verdict survives restarts until an operator releases the job.
// Completed-but-unjournaled jobs (crash between the cache put and the done
// record) are healed straight from the cache — guaranteeing an accepted job
// is never run twice to completion. The rest are enqueued again, up to the
// queue bound (the overflow fails); started ones whose periodic checkpoint
// survived resume mid-run (pinned to the local backend — the checkpoint is
// local state), at the precision rung their recorded escalations had
// reached.
func (s *Scheduler) Recover() (requeued, healed int, err error) {
	if s.cfg.Journal == nil {
		return 0, 0, nil
	}
	s.mu.Lock()
	if n := s.cfg.Journal.NextJobNum(); n > s.nextID+1 {
		s.nextID = n - 1
	}
	s.mu.Unlock()

	for _, p := range s.cfg.Journal.Pending() {
		var payload []byte
		inCache := false
		if !p.Poisoned && s.cfg.Cache != nil {
			payload, inCache = s.cfg.Cache.Get(p.SpecHash)
		}
		s.mu.Lock()
		job := s.registerJobLocked(p.ID, p.Spec, p.SpecHash)
		job.recovered = true
		job.cached = inCache
		job.tryResume = p.Started && !s.cfg.DisableLocal
		job.escalations = append([]runner.Escalation(nil), p.Escalations...)
		s.mu.Unlock()
		switch {
		case p.Poisoned:
			s.emit(job, evRecovered, detail{attrs: []obs.Attr{obs.Str("parked", "poisoned")}})
			s.emit(job, evReparked, detail{err: p.ErrMsg})
		case inCache:
			s.emit(job, evRecovered, detail{attrs: []obs.Attr{obs.Str("healed", "cache")}})
			s.emit(job, evHealed, detail{payload: payload})
			healed++
		default:
			resume := []obs.Attr{obs.Str("resume", strconv.FormatBool(job.tryResume))}
			s.emit(job, evRecovered, detail{attrs: resume})
			s.mu.Lock()
			full := s.waiting >= s.cfg.QueueDepth
			if !full {
				s.emit(job, evReplayed, detail{attrs: resume})
			}
			s.mu.Unlock()
			if full {
				s.emit(job, evFailed, detail{err: "recovery: queue full"})
				continue
			}
			requeued++
		}
	}
	return requeued, healed, nil
}

// checkpointSink returns the periodic-checkpoint opener for a job, or nil
// when checkpoints are not configured. Each checkpoint is written to a
// temp file and renamed over <dir>/<jobID>.ckpt on Close, so the file is
// always a complete checkpoint — never a torn one.
func (s *Scheduler) checkpointSink(jobID string) func(step int) (io.WriteCloser, error) {
	if s.cfg.CheckpointDir == "" || s.cfg.CheckpointEvery <= 0 {
		return nil
	}
	final := s.ckptPath(jobID)
	dir := s.cfg.CheckpointDir
	return func(step int) (io.WriteCloser, error) {
		tmp, err := os.CreateTemp(dir, "."+jobID+"-*")
		if err != nil {
			return nil, err
		}
		return &atomicCkpt{f: tmp, final: final}, nil
	}
}

type atomicCkpt struct {
	f     *os.File
	final string
}

func (a *atomicCkpt) Write(p []byte) (int, error) { return a.f.Write(p) }

func (a *atomicCkpt) Close() error {
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		os.Remove(a.f.Name())
		return err
	}
	if err := a.f.Close(); err != nil {
		os.Remove(a.f.Name())
		return err
	}
	return os.Rename(a.f.Name(), a.final)
}

func (s *Scheduler) ckptPath(jobID string) string {
	return filepath.Join(s.cfg.CheckpointDir, jobID+".ckpt")
}

func (s *Scheduler) loadCheckpoint(jobID string) []byte {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	b, err := os.ReadFile(s.ckptPath(jobID))
	if err != nil || len(b) == 0 {
		return nil
	}
	return b
}

func (s *Scheduler) removeCheckpoint(jobID string) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	_ = os.Remove(s.ckptPath(jobID))
}

// Job looks a job up by ID.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs snapshots every admitted job in admission order.
func (s *Scheduler) Jobs() []View {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	views := make([]View, len(jobs))
	for i, j := range jobs {
		views[i] = j.Snapshot()
	}
	return views
}

// Stats snapshots scheduler traffic: the same counters /metrics serves as
// precisiond_jobs_total{event}.
func (s *Scheduler) Stats() Stats {
	n := func(ev event) uint64 { return s.obs.events[ev].Value() }
	s.mu.Lock()
	depth := s.waiting
	s.mu.Unlock()
	return Stats{
		Submitted:     n(evSubmitted),
		DedupHits:     n(evDedupHit),
		CacheHits:     n(evCacheHit),
		Executed:      n(evExecuted),
		Failed:        n(evFailed),
		QueueRejected: n(evQueueRejected),
		Retried:       n(evRetried),
		Escalated:     n(evEscalated),
		TimedOut:      n(evTimedOut),
		Abandoned:     n(evAbandoned),
		Recovered:     n(evRecovered),
		Requeued:      n(evRequeued),
		Poisoned:      n(evPoisoned),
		QueueDepth:    depth,
		Workers:       s.cfg.Workers,
	}
}
