package queue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/serve/cache"
	"repro/internal/serve/dispatch"
)

// retainedBytesPerJob is the live-heap ceiling per executed, cached, done
// job: its Job struct (472 B with the spec inline), trace root, done
// channel, ID strings and the scheduler's index entries. Measured at
// 1.13 kB on amd64, also under -race; a job that pins its payload and span
// tree measures 2.7 kB here even with this test's tiny results.
const retainedBytesPerJob = 1400

// TestExecutedJobsReleaseWhatTheCacheHolds runs many tiny executed jobs
// through a cached scheduler and holds a done job to what it retains: no
// payload, no span but the root — yet its Result and Trace still serve the
// bytes and timeline sealed at completion, through the cache. The heap
// growth is shared out over the jobs the scheduler still holds: those in
// the window of finished jobs.
func TestExecutedJobsReleaseWhatTheCacheHolds(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 2000
	}
	// No hot tier: the cache pins nothing in memory, so the heap holds only
	// what the jobs themselves retain.
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	newest := fmt.Sprintf("job-%06d", n) // the last of n unique submissions
	completed := make(chan []byte, 1)
	s := New(Config{Workers: 2, QueueDepth: 64, Cache: c, Run: okRun,
		OnComplete: func(job *Job, res *runner.Result) {
			if job.ID == newest {
				payload, _ := json.Marshal(res) // the bytes emit cached
				completed <- payload
			}
		}})
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); s.Wait() }()
	s.Start(ctx)

	run := func(from, to int) {
		submitAll(t, s, from, to, func(i int) runner.ExperimentSpec { return testSpec(10 + i) })
	}

	const warm = 200 // one-time growth: instruments, pools, first map buckets
	run(0, warm)
	before := liveHeap()
	run(warm, n)
	after := liveHeap()
	held := min(n, FinishedWindow) - warm
	perJob := (float64(after) - float64(before)) / float64(held)
	t.Logf("live heap growth: %.0f B per done job over %d jobs held of %d run", perJob, held, n-warm)
	if perJob > retainedBytesPerJob {
		t.Errorf("done jobs retain %.0f B each, ceiling %d", perJob, retainedBytesPerJob)
	}

	latest, ok := s.Job(newest)
	if !ok {
		t.Fatalf("%s unknown", newest)
	}
	want := <-completed
	got, ok := latest.Result()
	if !ok || string(got) != string(want) {
		t.Fatalf("Result() = %q (ok=%v), want the payload sealed at completion %q", got, ok, want)
	}
	var sealed runner.Result
	if err := json.Unmarshal(want, &sealed); err != nil || sealed.Trace == nil {
		t.Fatalf("sealed payload carries no trace (err %v)", err)
	}
	if td := latest.Trace(); !reflect.DeepEqual(td, *sealed.Trace) {
		t.Errorf("Trace() = %+v, want the snapshot sealed into the payload %+v", td, *sealed.Trace)
	}
	if len(sealed.Trace.Spans) < 3 {
		t.Errorf("sealed trace has %d spans, want the full timeline", len(sealed.Trace.Spans))
	}

	// A put that fails leaves the job holding its payload and timeline.
	if err := fault.Arm("cache.put=always"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disarm()
	kept, err := s.Submit(testSpec(10 + n))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, kept)
	payload, ok := kept.Result()
	if !ok || len(payload) == 0 {
		t.Fatalf("job whose put failed serves no payload (ok=%v)", ok)
	}
	if _, ok := c.Get(kept.SpecHash); ok {
		t.Fatal("the failed put reached the cache after all")
	}
	if td := kept.Trace(); len(findSpans(td, "attempt")) != 1 {
		t.Errorf("job whose put failed lost its spans: %v", spanNames(td))
	}
}

// submitAll submits spec(i) for i in [from, to) with at most 32 jobs in
// flight and waits for them all. It waits without waitDone's timer: a
// pending timer per job would be live heap.
func submitAll(t *testing.T, s *Scheduler, from, to int, spec func(i int) runner.ExperimentSpec) {
	t.Helper()
	var inflight []*Job
	for i := from; i < to; i++ {
		if len(inflight) == 32 {
			<-inflight[0].Done()
			inflight = inflight[1:]
		}
		job, err := s.Submit(spec(i))
		if err != nil {
			t.Fatal(err)
		}
		inflight = append(inflight, job)
	}
	for _, job := range inflight {
		<-job.Done()
	}
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// finishedTableCeiling bounds the live-heap growth from 10⁴ finished jobs to
// any larger number: past FinishedWindow the scheduler holds a fixed set of
// jobs, however many it has served; the plateau itself steps by a few
// hundred kB as maps and pools resize. Growing at the 1.1 kB a done job
// retains, the 3×10⁴ jobs between the two readings would add 33 MB.
const finishedTableCeiling = 1 << 20

// TestTerminalJobTableIsBounded runs a mix of executed and cache-hit jobs
// through a cached scheduler, far past the window of finished jobs, and
// holds the job table to its bound: the live heap stops growing once the
// window is full, the newest finished jobs still serve their result and
// trace, an older one is unknown, and a job parked before the window filled
// is never forgotten. A failed journal append at a full window still rolls
// the admission back without a trace.
func TestTerminalJobTableIsBounded(t *testing.T) {
	n := 40000
	if testing.Short() {
		n = 20000
	}
	const settled = 10000 // the window is long full: the heap's plateau
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// The poison spec fails transiently until healed; with a second
	// executor noted on the job, that parks it.
	poison := testSpec(5)
	var healed atomic.Bool
	release := make(chan struct{})
	s := New(Config{Workers: 2, QueueDepth: 64, Cache: c,
		Run: func(ctx context.Context, req RunRequest) (*runner.Result, error) {
			if req.Spec.Steps == poison.Steps && !healed.Load() {
				<-release
				return nil, fmt.Errorf("bad spec, not a bad box: %w", fault.ErrInjected)
			}
			return okResult(req.Spec), nil
		}})
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); s.Wait() }()
	s.Start(ctx)

	parked, err := s.Submit(poison)
	if err != nil {
		t.Fatal(err)
	}
	parked.notePoisonExecutor(runner.KindTransient.String(), "worker-elsewhere")
	close(release)
	waitDone(t, parked)
	if st := parked.Snapshot().Status; st != StatusPoisoned {
		t.Fatalf("parked job is %s, want poisoned", st)
	}

	// The first 64 specs execute; after them one submission in four
	// executes a new spec and the rest repeat one of those 64, long done: a
	// cache hit, born done.
	mixed := func(i int) runner.ExperimentSpec {
		if i >= 64 && i%4 != 0 {
			return testSpec(10 + i%64)
		}
		return testSpec(10 + i)
	}
	run := func(from, to int) { submitAll(t, s, from, to, mixed) }
	run(0, settled)
	plateau := liveHeap()
	run(settled, n)
	after := liveHeap()
	t.Logf("live heap: %d B after %d jobs, %d B after %d", plateau, settled, after, n)
	if after > plateau+finishedTableCeiling {
		t.Errorf("live heap grew %d B from %d to %d jobs, ceiling %d",
			after-plateau, settled, n, finishedTableCeiling)
	}
	if st := s.Stats(); st.Executed == 0 || st.CacheHits == 0 {
		t.Fatalf("stats %+v: want both executed and cache-hit jobs", st)
	}

	views := s.Jobs()
	if len(views) != FinishedWindow+1 {
		t.Fatalf("scheduler holds %d jobs, want the %d newest finished plus the parked one", len(views), FinishedWindow)
	}
	if views[0].ID != parked.ID || views[0].Status != StatusPoisoned {
		t.Errorf("oldest job held = %s (%s), want the parked %s", views[0].ID, views[0].Status, parked.ID)
	}
	for _, v := range views[1:] {
		job, ok := s.Job(v.ID)
		if !ok {
			t.Fatalf("%s listed but unknown", v.ID)
		}
		if _, ok := job.Result(); !ok || v.Status != StatusDone {
			t.Fatalf("%s (%s, cached %v) in the window serves no result", v.ID, v.Status, v.Cached)
		}
		if td := job.Trace(); len(td.Spans) == 0 || td.JobID != v.ID {
			t.Fatalf("%s in the window serves trace %+v", v.ID, td)
		}
	}
	if newest := fmt.Sprintf("job-%06d", n+1); views[len(views)-1].ID != newest {
		t.Errorf("newest job held = %s, want %s", views[len(views)-1].ID, newest)
	}

	const forgotten = "job-000002" // the first job after the parked one
	if _, ok := s.Job(forgotten); ok {
		t.Errorf("%s is still held after %d newer jobs finished", forgotten, n-1)
	}
	if err := s.RetryPoisoned(forgotten); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("RetryPoisoned(%s) = %v, want ErrUnknownJob", forgotten, err)
	}

	if job, ok := s.Job(parked.ID); !ok || job != parked {
		t.Fatalf("parked %s forgotten", parked.ID)
	}
	healed.Store(true)
	if err := s.RetryPoisoned(parked.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, parked)
	if st := parked.Snapshot().Status; st != StatusDone {
		t.Errorf("released job is %s, want done", st)
	}

	// A journaled scheduler whose window is full of cache hits (which
	// journal nothing) loses one admission to a failed append.
	j := openTestJournal(t, filepath.Join(t.TempDir(), "journal.ndjson"))
	js := New(Config{Workers: 1, Cache: c, Journal: j, Run: okRun})
	jctx, jcancel := context.WithCancel(context.Background())
	defer func() { jcancel(); js.Wait() }()
	js.Start(jctx)
	for i := 0; i <= FinishedWindow; i++ {
		if _, err := js.Submit(testSpec(10 + i%64)); err != nil {
			t.Fatal(err)
		}
	}
	held := len(js.Jobs())
	if err := fault.Arm("journal.sync=n:1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disarm()
	fresh := testSpec(10 + n)
	if job, err := js.Submit(fresh); err == nil {
		t.Fatalf("admission acked as %s despite the failed append", job.ID)
	}
	next := fmt.Sprintf("job-%06d", FinishedWindow+2)
	if _, ok := js.Job(next); ok || len(js.Jobs()) != held {
		t.Fatalf("rolled-back admission left a job behind: %s known %v, %d jobs held, want %d", next, ok, len(js.Jobs()), held)
	}
	job, err := js.Submit(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != next {
		t.Errorf("admission after the rollback got %s, want the rolled-back %s", job.ID, next)
	}
	waitDone(t, job)
}

// TestLateHedgeEventsOnReleasedJob: the hedge winner completes and caches
// the job, which releases its spans; the straggler's upload lands after.
// Its trace graft and hedge events hit handles into the released trace and
// must be dropped without a panic or a race (run under -race), and the
// job's trace stays the one sealed at completion.
func TestLateHedgeEventsOnReleasedJob(t *testing.T) {
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := newFleetHarness(t,
		Config{DisableLocal: true, Retry: fastRetry, Cache: c},
		dispatch.CoordinatorConfig{
			LeaseTTL: 2 * time.Second, PollWait: 150 * time.Millisecond,
			HedgeBudget: 1, HedgeAfter: 50 * time.Millisecond,
		})
	job, err := h.sched.Submit(testSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	w1 := h.registerWorker(t, "straggler")
	g1 := w1.leaseUntilGrant(2 * time.Second)
	w2 := h.registerWorker(t, "rescuer")
	g2 := w2.leaseUntilGrant(5 * time.Second)

	payload := runPayload(t, g1.Spec)
	if status := w2.completeTrace(g2.LeaseID, payload, workerTrace(g2)); status != http.StatusOK {
		t.Fatalf("hedge complete = %d", status)
	}
	waitDone(t, job)
	sealed := job.Trace()
	if _, _, ok := tdFind(sealed, "hedge_attempt"); !ok {
		t.Fatalf("sealed trace has no hedge_attempt span: %v", spanNames(sealed))
	}
	if status := w1.completeTrace(g1.LeaseID, payload, workerTrace(g1)); status != http.StatusOK {
		t.Fatalf("late primary complete = %d", status)
	}
	// Writes straight at the released trace, as the recorders would make them.
	events, graft := hedgeRecorders(job)
	events("fired", w1.id)
	graft(w1.id, workerTrace(g1), len(payload))
	events("lost", w1.id)
	events("verified", w1.id)
	workerTraceRecorder(job.trace.Root())(w1.id, workerTrace(g1), len(payload))

	if td := job.Trace(); !reflect.DeepEqual(td, sealed) {
		t.Errorf("late events changed the trace:\n got %v\nwant %v", spanNames(td), spanNames(sealed))
	}
	if td := job.trace.Snapshot(); len(td.Spans) != 1 {
		t.Errorf("released trace holds %d spans, want the root alone: %v", len(td.Spans), spanNames(td))
	}
}
