package campaign

import (
	"context"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve/cache"
	"repro/internal/serve/queue"
)

// recordRun is a stub RunFunc that records execution order and per-hash
// completion counts. With a gate, executions beyond `allow` block until
// release (or their context ends) — how tests freeze a campaign mid-drain.
type recordRun struct {
	mu          sync.Mutex
	order       []int // Steps value of each started execution
	completions map[string]int

	started atomic.Int64
	allow   int64
	gate    chan struct{}
}

func newRecordRun(allow int64) *recordRun {
	return &recordRun{completions: make(map[string]int), allow: allow, gate: make(chan struct{})}
}

func (r *recordRun) fn(ctx context.Context, req queue.RunRequest) (*runner.Result, error) {
	r.mu.Lock()
	r.order = append(r.order, req.Spec.Steps)
	r.mu.Unlock()
	if n := r.started.Add(1); r.allow > 0 && n > r.allow {
		select {
		case <-r.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	h, err := req.Spec.Hash()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.completions[h]++
	r.mu.Unlock()
	return &runner.Result{
		Spec: req.Spec, SpecHash: h, Steps: req.Spec.Steps,
		StateHash: "st-" + h[:16],
	}, nil
}

func (r *recordRun) orderCopy() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.order...)
}

func stepsGrid(tenant string, weight int, firstSteps, n int) Spec {
	vals := make([]any, n)
	for i := range vals {
		vals[i] = firstSteps + i
	}
	return Spec{
		Tenant: tenant, Weight: weight,
		Generator: GeneratorSpec{
			Kind: KindGrid, Base: clamrBase(10),
			Axes: []Axis{{Field: "steps", Values: vals}},
		},
	}
}

func waitCampaign(t *testing.T, c *Campaign) {
	t.Helper()
	select {
	case <-c.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("campaign %s did not finish: %+v", c.ID(), c.View(false))
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Two backlogged tenants with 10:1 weights are admitted — and on a
// single-worker scheduler, executed — in ~10:1 proportion.
func TestWFQFairnessAcrossTenants(t *testing.T) {
	rec := newRecordRun(0)
	sched := queue.New(queue.Config{Workers: 1, QueueDepth: 128, Run: rec.fn})
	m := New(Config{Sched: sched, Slots: 2, Obs: obs.NewRegistry()})

	// Register both campaigns before the pump starts so neither gets a
	// head start the fairness assertion would have to absorb.
	a, err := m.Submit(stepsGrid("alpha", 10, 1001, 30))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(stepsGrid("beta", 1, 2001, 30))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sched.Start(ctx)
	m.Start(ctx)
	waitCampaign(t, a)
	waitCampaign(t, b)

	// While both flows were backlogged — the first 22 admissions, since
	// each campaign holds 30 — WFQ owes beta ~1 in 11 admissions. One
	// worker preserves admission order in execution order.
	order := rec.orderCopy()
	if len(order) != 60 {
		t.Fatalf("executions = %d, want 60", len(order))
	}
	beta := 0
	for _, steps := range order[:22] {
		if steps >= 2000 {
			beta++
		}
	}
	if beta < 1 || beta > 5 {
		t.Errorf("beta got %d of the first 22 admissions, want ~2 (1..5): order=%v", beta, order[:22])
	}
	av, bv := a.View(false), b.View(false)
	if av.Status != StatusCompleted || bv.Status != StatusCompleted {
		t.Errorf("status = %s/%s, want completed/completed", av.Status, bv.Status)
	}
	if av.Aggregates.Completed != 30 || bv.Aggregates.Completed != 30 {
		t.Errorf("completed = %d/%d, want 30/30", av.Aggregates.Completed, bv.Aggregates.Completed)
	}
	checkBooks(t, m)
}

// A campaign killed mid-expansion (no terminal journal record, in-flight
// jobs lost) resumes under its original ID and completes without any
// spec hash being executed twice to completion.
func TestJournalReplayResumesHalfExpandedCampaign(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "wal")
	cdir := filepath.Join(dir, "cache")
	rec := newRecordRun(5) // freeze the drain after 5 completions

	j1, err := queue.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := cache.Open(cdir)
	if err != nil {
		t.Fatal(err)
	}
	sched1 := queue.New(queue.Config{Workers: 2, QueueDepth: 64, Cache: c1, Journal: j1, Run: rec.fn})
	m1 := New(Config{Sched: sched1, Journal: j1, Slots: 2, CursorEvery: 4, Obs: obs.NewRegistry()})
	ctx1, cancel1 := context.WithCancel(context.Background())
	sched1.Start(ctx1)
	m1.Start(ctx1)

	camp, err := m1.Submit(stepsGrid("t", 1, 3001, 12))
	if err != nil {
		t.Fatal(err)
	}
	id := camp.ID()
	waitFor(t, "5 completions", func() bool { return camp.Aggregates().Completed >= 5 })

	// "SIGKILL": stop the first incarnation with the campaign half
	// expanded. Blocked executions abort via their context; nothing
	// terminal is journaled for the campaign.
	cancel1()
	sched1.Wait()
	m1.Wait()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	if got := camp.Aggregates().Completed; got >= 12 {
		t.Fatalf("first incarnation completed %d jobs; wanted a half-drained campaign", got)
	}
	checkBooks(t, m1) // shutdown gave every slot back

	close(rec.gate) // second incarnation runs unthrottled
	j2, err := queue.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	c2, err := cache.Open(cdir)
	if err != nil {
		t.Fatal(err)
	}
	sched2 := queue.New(queue.Config{Workers: 2, QueueDepth: 64, Cache: c2, Journal: j2, Run: rec.fn})
	if _, _, err := sched2.Recover(); err != nil {
		t.Fatal(err)
	}
	m2 := New(Config{Sched: sched2, Journal: j2, Slots: 2, CursorEvery: 4, Obs: obs.NewRegistry()})
	resumed, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d campaigns, want 1", resumed)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer func() { cancel2(); sched2.Wait(); m2.Wait() }()
	sched2.Start(ctx2)
	m2.Start(ctx2)

	camp2, ok := m2.Get(id)
	if !ok {
		t.Fatalf("campaign %s not resumed under its original ID", id)
	}
	waitCampaign(t, camp2)

	v := camp2.View(true)
	if v.Status != StatusCompleted {
		t.Fatalf("status = %s, want completed (%+v)", v.Status, v.Aggregates)
	}
	if got := v.Aggregates.Completed; got != 12 {
		t.Errorf("completed = %d, want 12", got)
	}
	if v.Aggregates.Failed != 0 {
		t.Errorf("failed = %d, want 0", v.Aggregates.Failed)
	}
	if len(v.Jobs) != 12 {
		t.Fatalf("job refs = %d, want 12", len(v.Jobs))
	}
	seenIdx := make(map[int64]bool)
	seenHash := make(map[string]bool)
	for _, ref := range v.Jobs {
		if seenIdx[ref.Index] {
			t.Errorf("index %d expanded twice", ref.Index)
		}
		seenIdx[ref.Index] = true
		if seenHash[ref.SpecHash] {
			t.Errorf("spec hash %s admitted twice in the resumed campaign", ref.SpecHash)
		}
		seenHash[ref.SpecHash] = true
	}
	// The determinism contract across incarnations: a spec that completed
	// before the kill is answered from cache/journal, never re-executed.
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for h, n := range rec.completions {
		if n != 1 {
			t.Errorf("spec %s executed to completion %d times, want 1", h, n)
		}
	}
	if v.Aggregates.ResultDigest == "" {
		t.Error("terminal aggregates missing result_digest")
	}
	checkBooks(t, m2)
}

// A warm re-submit of a completed campaign is answered entirely from the
// cache: every job deduped, aggregates still fully populated.
func TestWarmResubmitDedupsAndStillAggregates(t *testing.T) {
	rec := newRecordRun(0)
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched := queue.New(queue.Config{Workers: 2, QueueDepth: 64, Cache: c, Run: rec.fn})
	m := New(Config{Sched: sched, Slots: 4, Obs: obs.NewRegistry()})
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); sched.Wait(); m.Wait() }()
	sched.Start(ctx)
	m.Start(ctx)

	spec := stepsGrid("t", 1, 4001, 8)
	cold, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, cold)
	warm, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, warm)

	a := warm.Aggregates()
	if a.Deduped != 8 || a.Completed != 8 {
		t.Errorf("warm campaign deduped=%d completed=%d, want 8/8", a.Deduped, a.Completed)
	}
	if a.PerMode["full"] == nil || a.PerMode["full"].Completed != 8 {
		t.Errorf("deduped jobs did not contribute to per-mode aggregates: %+v", a.PerMode)
	}
	if cold.Aggregates().ResultDigest != a.ResultDigest {
		t.Errorf("warm digest %s != cold digest %s", a.ResultDigest, cold.Aggregates().ResultDigest)
	}
	rec.mu.Lock()
	executions := len(rec.order)
	rec.mu.Unlock()
	if executions != 8 {
		t.Errorf("%d executions across cold+warm, want 8", executions)
	}
	checkBooks(t, m)
}

// Over-budget submissions are rejected with ErrBudget (the API's 429).
func TestBudgetRejection(t *testing.T) {
	rec := newRecordRun(1) // first job completes, the rest hold slots
	sched := queue.New(queue.Config{Workers: 1, QueueDepth: 64, Run: rec.fn})
	m := New(Config{Sched: sched, Budget: 10, Slots: 1, Obs: obs.NewRegistry()})
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); sched.Wait(); m.Wait() }()
	sched.Start(ctx)
	m.Start(ctx)

	if _, err := m.Submit(stepsGrid("t", 1, 5001, 11)); err == nil {
		t.Fatal("11-job campaign admitted over a 10-job budget")
	}
	live, err := m.Submit(stepsGrid("t", 1, 5001, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(stepsGrid("t", 1, 6001, 8)); err == nil {
		t.Fatal("second campaign admitted although live remainder exhausts the budget")
	}
	close(rec.gate)
	waitCampaign(t, live)
	checkBooks(t, m)
	// Budget frees as live campaigns drain.
	if _, err := m.Submit(stepsGrid("t", 1, 6001, 8)); err != nil {
		t.Fatalf("post-drain submission rejected: %v", err)
	}
}

// Aggregates computed online match a direct offline pass over the same
// generator (real solver runs, real mass errors and line cuts) — and the
// campaign digest matches the client-side pair digest, the bit-match
// contract the smoke test leans on.
func TestAggregatesMatchDirectRuns(t *testing.T) {
	gs := GeneratorSpec{
		Kind: KindGrid, Base: clamrBase(8),
		Axes: []Axis{{Field: "mode", Values: []any{"mixed", "full"}}},
	}
	gen, err := NewGenerator(gs)
	if err != nil {
		t.Fatal(err)
	}

	// Direct pass: the client-side sweep a campaign replaces.
	type direct struct {
		res  *runner.Result
		hash string
	}
	var runs []direct
	for i := int64(0); i < gen.Total(); i++ {
		spec, err := gen.At(i)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.Run(context.Background(), spec, runner.RunOpts{Workers: 2})
		if err != nil {
			t.Fatalf("direct run %d: %v", i, err)
		}
		h, _ := spec.Hash()
		runs = append(runs, direct{res: res, hash: h})
	}
	var pairs []string
	var wantMassMax float64
	massN := 0
	for _, d := range runs {
		pairs = append(pairs, d.hash+" "+d.res.StateHash)
		if d.res.MassError != nil {
			massN++
			if v := math.Abs(*d.res.MassError); v > wantMassMax {
				wantMassMax = v
			}
		}
	}
	wantDelta := maxAbsDiff(runs[0].res.LineCut.Y, runs[1].res.LineCut.Y)

	// Campaign pass over a real scheduler + cache.
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched := queue.New(queue.Config{Workers: 2, QueueDepth: 16, Cache: c})
	m := New(Config{Sched: sched, Slots: 2, Obs: obs.NewRegistry()})
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); sched.Wait(); m.Wait() }()
	sched.Start(ctx)
	m.Start(ctx)
	camp, err := m.Submit(Spec{Generator: gs})
	if err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, camp)

	a := camp.Aggregates()
	if a.Completed != gen.Total() || a.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0", a.Completed, a.Failed, gen.Total())
	}
	if got := a.ResultDigest; got != ResultDigest(pairs) {
		t.Errorf("campaign digest %s != direct-pass digest %s", got, ResultDigest(pairs))
	}
	if massN > 0 {
		if a.MassError == nil {
			t.Fatal("aggregates missing mass_error")
		}
		if a.MassError.Count != int64(massN) || a.MassError.Max != wantMassMax {
			t.Errorf("mass_error = %+v, want count=%d max=%g", a.MassError, massN, wantMassMax)
		}
	}
	if a.LineCutDelta == nil {
		t.Fatal("aggregates missing line_cut_delta")
	}
	if a.LineCutDelta.Count != 1 || a.LineCutDelta.Max != wantDelta {
		t.Errorf("line_cut_delta = %+v, want count=1 max=%g", a.LineCutDelta, wantDelta)
	}
	for _, mode := range []string{"mixed", "full"} {
		ms := a.PerMode[mode]
		if ms == nil || ms.Jobs != 1 || ms.Completed != 1 {
			t.Errorf("per_mode[%s] = %+v, want jobs=1 completed=1", mode, ms)
		}
	}
	checkBooks(t, m)
}

// Cancelling a live campaign stops expansion; already-admitted jobs
// finish and the campaign reports cancelled.
func TestCancelStopsExpansion(t *testing.T) {
	rec := newRecordRun(1)
	sched := queue.New(queue.Config{Workers: 1, QueueDepth: 64, Run: rec.fn})
	m := New(Config{Sched: sched, Slots: 1, Obs: obs.NewRegistry()})
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); sched.Wait(); m.Wait() }()
	sched.Start(ctx)
	m.Start(ctx)

	camp, err := m.Submit(stepsGrid("t", 1, 7001, 20))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first completion", func() bool { return camp.Aggregates().Completed >= 1 })
	v, err := m.Cancel(camp.ID())
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusCancelled {
		t.Fatalf("status = %s, want cancelled", v.Status)
	}
	close(rec.gate)
	waitCampaign(t, camp)
	waitFor(t, "expansion to stop", func() bool { return camp.Aggregates().Running == 0 })
	if a := camp.Aggregates(); a.Expanded >= 20 {
		t.Errorf("expanded = %d of 20 after cancel; expansion did not stop", a.Expanded)
	}
	// Idempotent second cancel.
	if v, err := m.Cancel(camp.ID()); err != nil || v.Status != StatusCancelled {
		t.Errorf("re-cancel = %v, %v", v.Status, err)
	}
	if _, err := m.Cancel("camp-999999"); err == nil {
		t.Error("cancel of unknown campaign succeeded")
	}
	checkBooks(t, m)
}
