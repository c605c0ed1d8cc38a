package queue

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve/cache"
	"repro/internal/serve/dispatch"
)

// rowHarness is one journaled, cached, instrumented scheduler life; reboot
// starts the next life over the same journal, cache and checkpoint dir, the
// way a restarted daemon does.
type rowHarness struct {
	t       *testing.T
	dir     string
	cache   *cache.Cache
	journal *Journal
	reg     *obs.Registry
	sched   *Scheduler
	cancel  context.CancelFunc
}

func newRowHarness(t *testing.T) *rowHarness {
	t.Helper()
	dir := t.TempDir()
	c, err := cache.Open(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	h := &rowHarness{t: t, dir: dir, cache: c}
	t.Cleanup(h.stop)
	return h
}

func (h *rowHarness) journalPath() string { return filepath.Join(h.dir, "journal.ndjson") }

// boot opens the journal and starts a scheduler with a fresh registry;
// cfg supplies the scripted Run and any bounds.
func (h *rowHarness) boot(cfg Config) {
	h.t.Helper()
	j, err := OpenJournal(h.journalPath())
	if err != nil {
		h.t.Fatal(err)
	}
	h.journal, h.reg = j, obs.NewRegistry()
	cfg.Cache, cfg.Journal, cfg.Obs = h.cache, j, h.reg
	cfg.CheckpointDir = filepath.Join(h.dir, "ckpt")
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	cfg.Retry = fastRetry
	h.sched = New(cfg)
	if _, _, err := h.sched.Recover(); err != nil {
		h.t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	h.sched.Start(ctx)
}

// stop shuts the current life down without terminal records for whatever
// is still live — the crash the journal exists for.
func (h *rowHarness) stop() {
	if h.cancel == nil {
		return
	}
	h.cancel()
	h.sched.Wait()
	h.journal.Close()
	h.cancel = nil
}

func (h *rowHarness) submit(spec runner.ExperimentSpec, opts SubmitOptions) *Job {
	h.t.Helper()
	job, err := h.sched.SubmitOpts(spec, opts)
	if err != nil {
		h.t.Fatal(err)
	}
	return job
}

func (h *rowHarness) recovered(id string) *Job {
	h.t.Helper()
	job, ok := h.sched.Job(id)
	if !ok {
		h.t.Fatalf("job %s lost across restart", id)
	}
	return job
}

// records returns the journal record types written for one job, in order
// (in a second life: the compacted submitted record first).
func (h *rowHarness) records(jobID string) []string {
	h.t.Helper()
	f, err := os.Open(h.journalPath())
	if err != nil {
		h.t.Fatal(err)
	}
	defer f.Close()
	var types []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		var rec struct {
			Type  string `json:"type"`
			JobID string `json:"job_id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			h.t.Fatalf("journal line %q: %v", sc.Text(), err)
		}
		if rec.JobID == jobID {
			types = append(types, rec.Type)
		}
	}
	return types
}

// exposition scrapes the registry into series → value.
func (h *rowHarness) exposition() map[string]uint64 {
	h.t.Helper()
	var b strings.Builder
	if err := h.reg.WritePrometheus(&b); err != nil {
		h.t.Fatal(err)
	}
	out := map[string]uint64{}
	for _, line := range strings.Split(b.String(), "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseUint(value, 10, 64); err == nil {
			out[series] = v
		}
	}
	return out
}

func jobsTotal(label string) string { return `precisiond_jobs_total{event="` + label + `"}` }

// until polls cond, failing the test after 5 s.
func until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func okRun(ctx context.Context, req RunRequest) (*runner.Result, error) {
	return okResult(req.Spec), nil
}

// failFirst fails the first call with err and succeeds afterwards.
func failFirst(err error) RunFunc {
	var calls atomic.Int64
	return func(ctx context.Context, req RunRequest) (*runner.Result, error) {
		if calls.Add(1) == 1 {
			return nil, err
		}
		return okResult(req.Spec), nil
	}
}

// blockRun blocks until released or cancelled.
func blockRun(release <-chan struct{}) RunFunc {
	return func(ctx context.Context, req RunRequest) (*runner.Result, error) {
		select {
		case <-release:
			return okResult(req.Spec), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// rowCase drives a scheduler until one table row has been raised exactly
// once and says what the job's journal and the counters must then hold.
type rowCase struct {
	// drive returns the job the row was raised for (nil for the rows that
	// precede any job).
	drive    func(t *testing.T, h *rowHarness) *Job
	records  []string          // the job's journal record types, in order
	counters map[string]uint64 // every non-zero precisiond_jobs_total series
}

// driveInterrupted runs life 1 up to a started-but-unfinished job and stops
// the scheduler, leaving the job owed to the journal.
func driveInterrupted(t *testing.T, h *rowHarness) *Job {
	t.Helper()
	h.boot(Config{Run: blockRun(nil)})
	job := h.submit(testSpec(10), SubmitOptions{})
	until(t, "the first placement", func() bool { return job.Snapshot().Status == StatusRunning })
	h.stop()
	return job
}

// drivePoisoned parks a job: its failure ledger is seeded with a first
// convicting executor, so the local backend's transient failure is the
// second distinct one.
func drivePoisoned(t *testing.T, h *rowHarness, release <-chan struct{}) *Job {
	t.Helper()
	var calls atomic.Int64
	h.boot(Config{Run: func(ctx context.Context, req RunRequest) (*runner.Result, error) {
		if calls.Add(1) > 1 {
			return okResult(req.Spec), nil
		}
		<-release
		return nil, fmt.Errorf("bad spec, not a bad box: %w", fault.ErrInjected)
	}})
	job := h.submit(testSpec(10), SubmitOptions{})
	job.notePoisonExecutor(runner.KindTransient.String(), "worker-elsewhere")
	return job
}

var okRecords = []string{recSubmitted, recStarted, recDone}

func driveOK(t *testing.T, h *rowHarness) *Job {
	h.boot(Config{Run: okRun})
	job := h.submit(testSpec(10), SubmitOptions{})
	waitDone(t, job)
	return job
}

var okCase = rowCase{drive: driveOK, records: okRecords, counters: map[string]uint64{"submitted": 1, "executed": 1}}

// replayCase interrupts a started job and recovers it in a second life.
var replayCase = rowCase{
	drive: func(t *testing.T, h *rowHarness) *Job {
		first := driveInterrupted(t, h)
		h.boot(Config{Run: okRun})
		job := h.recovered(first.ID)
		waitDone(t, job)
		return job
	},
	records:  okRecords,
	counters: map[string]uint64{"recovered": 1, "executed": 1},
}

var rowCases = map[event]rowCase{
	evSubmitted: okCase,
	evAdmitted:  okCase,
	evAttempt:   okCase,
	evPlaced:    okCase,
	evExecuted:  okCase,
	evDedupHit: {
		drive: func(t *testing.T, h *rowHarness) *Job {
			release := make(chan struct{})
			h.boot(Config{Run: blockRun(release)})
			job := h.submit(testSpec(10), SubmitOptions{})
			if dup := h.submit(testSpec(10), SubmitOptions{}); dup != job {
				t.Fatalf("duplicate got job %s, want %s", dup.ID, job.ID)
			}
			close(release)
			waitDone(t, job)
			return job
		},
		records:  okRecords,
		counters: map[string]uint64{"submitted": 2, "dedup_hit": 1, "executed": 1},
	},
	evCacheHit: {
		drive: func(t *testing.T, h *rowHarness) *Job {
			h.boot(Config{Run: okRun})
			n, _ := testSpec(10).Normalized()
			hash, _ := n.Hash()
			payload, _ := json.Marshal(okResult(n))
			if err := h.cache.Put(hash, payload); err != nil {
				t.Fatal(err)
			}
			job := h.submit(testSpec(10), SubmitOptions{})
			waitDone(t, job)
			if got, _ := job.Result(); string(got) != string(payload) {
				t.Errorf("cache hit served %q, want the stored payload", got)
			}
			return job
		},
		counters: map[string]uint64{"submitted": 1, "cache_hit": 1},
	},
	evQueueRejected: {
		drive: func(t *testing.T, h *rowHarness) *Job {
			release := make(chan struct{})
			h.boot(Config{Run: blockRun(release), QueueDepth: 1})
			running := h.submit(testSpec(10), SubmitOptions{})
			until(t, "the first placement", func() bool { return running.Snapshot().Status == StatusRunning })
			queued := h.submit(testSpec(11), SubmitOptions{})
			if _, err := h.sched.Submit(testSpec(12)); !errors.Is(err, ErrQueueFull) {
				t.Fatalf("over-full submit = %v, want ErrQueueFull", err)
			}
			close(release)
			waitDone(t, running)
			waitDone(t, queued)
			return nil
		},
		counters: map[string]uint64{"submitted": 3, "queue_rejected": 1, "executed": 2},
	},
	evAbandoned: {
		drive: func(t *testing.T, h *rowHarness) *Job {
			if err := fault.Arm("worker.stall=n:1"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(fault.Disarm)
			h.boot(Config{Run: okRun, JobTimeout: 20 * time.Millisecond, AbandonGrace: 20 * time.Millisecond})
			job := h.submit(testSpec(10), SubmitOptions{})
			waitDone(t, job)
			return job
		},
		records:  []string{recSubmitted, recStarted, recStarted, recDone},
		counters: map[string]uint64{"submitted": 1, "abandoned": 1, "retried": 1, "executed": 1},
	},
	evRequeued: {
		drive: func(t *testing.T, h *rowHarness) *Job {
			h.boot(Config{Run: failFirst(fmt.Errorf("worker went silent: %w", dispatch.ErrLeaseExpired))})
			job := h.submit(testSpec(10), SubmitOptions{})
			waitDone(t, job)
			return job
		},
		records:  []string{recSubmitted, recStarted, recStarted, recDone},
		counters: map[string]uint64{"submitted": 1, "requeued": 1, "executed": 1},
	},
	evResumeDiscarded: {
		drive: func(t *testing.T, h *rowHarness) *Job {
			first := driveInterrupted(t, h)
			ckpt := filepath.Join(h.dir, "ckpt", first.ID+".ckpt")
			if err := os.WriteFile(ckpt, []byte("not a checkpoint"), 0o644); err != nil {
				t.Fatal(err)
			}
			h.boot(Config{Run: func(ctx context.Context, req RunRequest) (*runner.Result, error) {
				if req.Resume != nil {
					return nil, errors.New("incompatible checkpoint header")
				}
				return okResult(req.Spec), nil
			}})
			job := h.recovered(first.ID)
			waitDone(t, job)
			if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
				t.Errorf("discarded checkpoint still on disk (stat: %v)", err)
			}
			return job
		},
		records:  []string{recSubmitted, recStarted, recStarted, recDone},
		counters: map[string]uint64{"recovered": 1, "executed": 1},
	},
	evRetried: {
		drive: func(t *testing.T, h *rowHarness) *Job {
			h.boot(Config{Run: failFirst(fmt.Errorf("flaky io: %w", fault.ErrInjected))})
			job := h.submit(testSpec(10), SubmitOptions{})
			waitDone(t, job)
			return job
		},
		records:  []string{recSubmitted, recStarted, recStarted, recDone},
		counters: map[string]uint64{"submitted": 1, "retried": 1, "executed": 1},
	},
	evEscalated: {
		drive: func(t *testing.T, h *rowHarness) *Job {
			h.boot(Config{Run: failFirst(fmt.Errorf("step 4: %w", runner.ErrNumericalFailure))})
			spec := testSpec(10)
			spec.Mode = "min"
			job := h.submit(spec, SubmitOptions{})
			waitDone(t, job)
			return job
		},
		records:  []string{recSubmitted, recStarted, recEscalated, recStarted, recDone},
		counters: map[string]uint64{"submitted": 1, "escalated": 1, "executed": 1},
	},
	evTimedOut: {
		drive: func(t *testing.T, h *rowHarness) *Job {
			h.boot(Config{Run: blockRun(nil), AbandonGrace: time.Second})
			job := h.submit(testSpec(10), SubmitOptions{Timeout: 20 * time.Millisecond})
			waitDone(t, job)
			return job
		},
		records:  []string{recSubmitted, recStarted, recFailed},
		counters: map[string]uint64{"submitted": 1, "timed_out": 1, "failed": 1},
	},
	evFailed: {
		drive: func(t *testing.T, h *rowHarness) *Job {
			h.boot(Config{Run: func(context.Context, RunRequest) (*runner.Result, error) {
				return nil, errors.New("incompatible checkpoint header")
			}})
			job := h.submit(testSpec(10), SubmitOptions{})
			waitDone(t, job)
			return job
		},
		records:  []string{recSubmitted, recStarted, recFailed},
		counters: map[string]uint64{"submitted": 1, "failed": 1},
	},
	evShutdown: {
		drive: func(t *testing.T, h *rowHarness) *Job {
			job := driveInterrupted(t, h)
			waitDone(t, job)
			return job
		},
		records:  []string{recSubmitted, recStarted},
		counters: map[string]uint64{"submitted": 1, "failed": 1},
	},
	evPoisoned: {
		drive: func(t *testing.T, h *rowHarness) *Job {
			release := make(chan struct{})
			job := drivePoisoned(t, h, release)
			close(release)
			waitDone(t, job)
			return job
		},
		records:  []string{recSubmitted, recStarted, recPoisoned},
		counters: map[string]uint64{"submitted": 1, "poisoned": 1},
	},
	evUnpoisoned: {
		drive: func(t *testing.T, h *rowHarness) *Job {
			release := make(chan struct{})
			job := drivePoisoned(t, h, release)
			close(release)
			waitDone(t, job)
			if err := h.sched.RetryPoisoned(job.ID); err != nil {
				t.Fatal(err)
			}
			waitDone(t, job)
			return job
		},
		records:  []string{recSubmitted, recStarted, recPoisoned, recUnpoisoned, recStarted, recDone},
		counters: map[string]uint64{"submitted": 1, "poisoned": 1, "unpoisoned": 1, "executed": 1},
	},
	evRecovered: replayCase,
	evReplayed:  replayCase,
	evHealed: {
		drive: func(t *testing.T, h *rowHarness) *Job {
			first := driveInterrupted(t, h)
			payload, _ := json.Marshal(okResult(first.Spec))
			if err := h.cache.Put(first.SpecHash, payload); err != nil {
				t.Fatal(err)
			}
			h.boot(Config{Run: okRun})
			job := h.recovered(first.ID)
			waitDone(t, job)
			if v := job.Snapshot(); !v.Cached || !v.Recovered {
				t.Errorf("healed job = %+v, want cached + recovered", v)
			}
			return job
		},
		records:  []string{recSubmitted, recDone},
		counters: map[string]uint64{"recovered": 1},
	},
	evReparked: {
		drive: func(t *testing.T, h *rowHarness) *Job {
			release := make(chan struct{})
			first := drivePoisoned(t, h, release)
			close(release)
			waitDone(t, first)
			h.stop()
			h.boot(Config{Run: okRun})
			job := h.recovered(first.ID)
			waitDone(t, job)
			return job
		},
		records:  []string{recSubmitted},
		counters: map[string]uint64{"recovered": 1, "poisoned": 1},
	},
}

// TestTransitionTable drives every row of the job transition table through
// a real scheduler and holds it to the row: the journal gains exactly one
// record of the row's type, the row's precisiond_jobs_total{event} series
// moves, the trace carries the row's event and terminal status, the job
// lands in the row's next state — and Stats() reports what /metrics
// exposes, field for field.
func TestTransitionTable(t *testing.T) {
	for ev := event(0); ev < numEvents; ev++ {
		row := transitions[ev]
		tc, ok := rowCases[ev]
		if !ok {
			t.Errorf("row %s has no case", row.name)
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			h := newRowHarness(t)
			job := tc.drive(t, h)
			h.stop() // quiesce: nothing moves under the assertions

			exp := h.exposition()
			for _, r := range transitions {
				if r.counter == "" {
					continue
				}
				got, exposed := exp[jobsTotal(r.counter)]
				if !exposed {
					t.Errorf("series %s not exposed", jobsTotal(r.counter))
				}
				if want := tc.counters[r.counter]; got != want {
					t.Errorf("%s = %d, want %d", jobsTotal(r.counter), got, want)
				}
			}
			if row.counter != "" && tc.counters[row.counter] == 0 {
				t.Errorf("case never expects the row's own series %s to move", jobsTotal(row.counter))
			}
			if got := exp["precisiond_jobs_poisoned_total"]; got != tc.counters["poisoned"] {
				t.Errorf("precisiond_jobs_poisoned_total = %d, want %d", got, tc.counters["poisoned"])
			}
			c := func(label string) uint64 { return exp[jobsTotal(label)] }
			want := Stats{
				Submitted: c("submitted"), DedupHits: c("dedup_hit"), CacheHits: c("cache_hit"),
				Executed: c("executed"), Failed: c("failed"), QueueRejected: c("queue_rejected"),
				Retried: c("retried"), Escalated: c("escalated"), TimedOut: c("timed_out"),
				Abandoned: c("abandoned"), Recovered: c("recovered"), Requeued: c("requeued"),
				Poisoned:   c("poisoned"),
				QueueDepth: int(exp["precisiond_queue_depth"]),
				Workers:    int(exp["precisiond_workers"]),
			}
			if got := h.sched.Stats(); got != want {
				t.Errorf("Stats() = %+v\n/metrics = %+v", got, want)
			}

			if job == nil {
				if row.record != "" || row.span != "" || row.next != "" {
					t.Fatalf("row %s needs a job to be checked", row.name)
				}
				return
			}
			records := h.records(job.ID)
			if !reflect.DeepEqual(records, tc.records) {
				t.Errorf("journal records = %v, want %v", records, tc.records)
			}
			if row.record != "" {
				n := 0
				for _, r := range records {
					if r == row.record {
						n++
					}
				}
				// An attempt repeats per retry; every other row is raised once.
				if ev != evAttempt && n != 1 || n == 0 {
					t.Errorf("%d %q records for the job, want exactly one: %v", n, row.record, records)
				}
			}
			td := job.Trace()
			checkTraceWellFormed(t, td)
			if row.span != "" && len(findSpans(td, row.span)) != 1 {
				t.Errorf("trace = %v, want one %q event", spanNames(td), row.span)
			}
			if row.status == "" {
				return
			}
			// A released job's root carries its earlier parked status too; the
			// row under test wrote the last one.
			var status string
			for _, a := range td.Spans[0].Attrs {
				if a.Key == "status" {
					status = a.Value
				}
			}
			if status != row.status {
				t.Errorf("root status = %q, want %q", status, row.status)
			}
			if open := td.Spans[0].Open; open != (row.next == StatusPoisoned) {
				t.Errorf("root open = %v after a %s transition", open, row.next)
			}
			if v := job.Snapshot(); v.Status != row.next {
				t.Errorf("job = %+v, want status %s", v, row.next)
			}
		})
	}
}

// TestRecoverOverflowFailsThroughEmit is the regression test for recovery
// overflow: pending jobs beyond the queue bound used to be journaled failed
// and finished by hand — never counted as failed or recovered, their trace
// root left open forever.
func TestRecoverOverflowFailsThroughEmit(t *testing.T) {
	h := newRowHarness(t)
	const depth = 2
	h.boot(Config{Run: blockRun(nil), QueueDepth: depth + 1})
	var ids []string
	for i := 0; i < depth+1; i++ {
		ids = append(ids, h.submit(testSpec(10+i), SubmitOptions{}).ID)
	}
	h.stop()

	h.boot(Config{Run: okRun, QueueDepth: depth})
	st := h.sched.Stats()
	if st.Recovered != depth+1 || st.Failed != 1 {
		t.Fatalf("stats = %+v, want recovered=%d failed=1", st, depth+1)
	}
	overflow := h.recovered(ids[depth])
	waitDone(t, overflow)
	if v := overflow.Snapshot(); v.Status != StatusFailed || !v.Recovered || v.Error != "recovery: queue full" {
		t.Errorf("overflow job = %+v, want failed + recovered", v)
	}
	root := overflow.Trace().Spans[0]
	if root.Open || attrValue(root, "status") != "failed" {
		t.Errorf("overflow root = %+v, want closed with status=failed", root)
	}
	for _, id := range ids[:depth] {
		waitDone(t, h.recovered(id))
	}
	h.stop()
	if got, want := h.records(overflow.ID), []string{recSubmitted, recFailed}; !reflect.DeepEqual(got, want) {
		t.Errorf("overflow journal records = %v, want %v", got, want)
	}
	if got := h.exposition()[jobsTotal("failed")]; got != 1 {
		t.Errorf("%s = %d, want 1", jobsTotal("failed"), got)
	}
}
