package queue

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"runtime"
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
// bytes and timeline sealed at completion, through the cache.
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
	completed := make(chan []byte, 1)
	s := New(Config{Workers: 2, QueueDepth: 64, Cache: c, Run: okRun,
		OnComplete: func(job *Job, res *runner.Result) {
			if job.ID == "job-000001" {
				payload, _ := json.Marshal(res) // the bytes emit cached
				completed <- payload
			}
		}})
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); s.Wait() }()
	s.Start(ctx)

	// run executes jobs [from, to) with at most window in flight. It waits
	// without waitDone's timer: a pending timer per job would be live heap.
	run := func(from, to int) {
		const window = 32
		var inflight []*Job
		for i := from; i < to; i++ {
			if len(inflight) == window {
				<-inflight[0].Done()
				inflight = inflight[1:]
			}
			job, err := s.Submit(testSpec(10 + i))
			if err != nil {
				t.Fatal(err)
			}
			inflight = append(inflight, job)
		}
		for _, job := range inflight {
			<-job.Done()
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	const warm = 200 // one-time growth: instruments, pools, first map buckets
	run(0, warm)
	before := heap()
	run(warm, n)
	after := heap()
	perJob := (float64(after) - float64(before)) / float64(n-warm)
	t.Logf("live heap growth: %.0f B per done job over %d jobs", perJob, n-warm)
	if perJob > retainedBytesPerJob {
		t.Errorf("done jobs retain %.0f B each, ceiling %d", perJob, retainedBytesPerJob)
	}

	first, ok := s.Job("job-000001")
	if !ok {
		t.Fatal("job-000001 unknown")
	}
	want := <-completed
	got, ok := first.Result()
	if !ok || string(got) != string(want) {
		t.Fatalf("Result() = %q (ok=%v), want the payload sealed at completion %q", got, ok, want)
	}
	var sealed runner.Result
	if err := json.Unmarshal(want, &sealed); err != nil || sealed.Trace == nil {
		t.Fatalf("sealed payload carries no trace (err %v)", err)
	}
	if td := first.Trace(); !reflect.DeepEqual(td, *sealed.Trace) {
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
