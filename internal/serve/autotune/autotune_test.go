package autotune

import (
	"context"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/precision"
	"repro/internal/runner"
	"repro/internal/serve/queue"
)

// testSpec is the canonical auto-mode request the tests submit.
func testSpec(budget float64) runner.ExperimentSpec {
	return runner.ExperimentSpec{
		App: runner.AppCLAMR, Mode: runner.ModeAuto, Steps: 10,
		NX: 8, NY: 8, MaxMassError: budget,
	}
}

// syntheticVerify returns a VerifyFunc whose probe results carry the given
// per-mode mass error, always shadow-verified.
func syntheticVerify(errFor func(mode string) float64) VerifyFunc {
	return func(_ context.Context, spec runner.ExperimentSpec) (*runner.Result, bool, error) {
		e := errFor(spec.Mode)
		return &runner.Result{
			Spec: spec, Steps: spec.Steps, StateHash: "h-" + spec.Mode, MassError: &e,
		}, true, nil
	}
}

// converge drives the online loop: resolve, "run" at the resolved mode,
// observe, settle probes — until the resolved mode is stable.
func converge(t *testing.T, tn *Tuner, budget float64, errFor func(string) float64, iters int) string {
	t.Helper()
	mode := ""
	for i := 0; i < iters; i++ {
		resolved, err := tn.Resolve(testSpec(budget))
		if err != nil {
			t.Fatalf("resolve: %v", err)
		}
		mode = resolved.Mode
		e := errFor(mode)
		tn.ObserveResult(resolved, &runner.Result{
			Spec: resolved, Steps: resolved.Steps, StateHash: "h-" + mode, MassError: &e,
		})
		tn.Quiesce()
	}
	return mode
}

// TestGreedyParityWithTuner checks the online policy against the answer a
// greedy offline demotion gives on one knob: the cheapest rung whose
// rounding error fits the bound. The knob is one value rounded to binary16
// and binary32, fed to the online table as per-mode mass error; each row
// states the rung the greedy search settles on for its bound.
func TestGreedyParityWithTuner(t *testing.T) {
	const c = 1.37 // representable in neither binary32 nor binary16
	errSingle := math.Abs(float64(float32(c))-c) / c
	errHalf := math.Abs(precision.Half.Demote(c)-c) / c
	if !(errHalf > errSingle && errSingle > 0) {
		t.Fatalf("bad synthetic errors: half=%g single=%g", errHalf, errSingle)
	}

	// The online ladder's half rung carries binary16's error, min and mixed
	// carry binary32's, full is the reference.
	errFor := func(mode string) float64 {
		switch mode {
		case "half":
			return errHalf
		case "min", "mixed":
			return errSingle
		default:
			return 0
		}
	}

	for _, tc := range []struct {
		bound float64
		want  string
	}{
		{errHalf * 2, "half"},
		{errHalf, "half"},
		{(errSingle + errHalf) / 2, "min"},
		{errSingle, "min"},
		{errSingle / 2, "full"},
	} {
		tn := New(Config{Verify: syntheticVerify(errFor), WarmRuns: 1})
		if got := converge(t, tn, tc.bound, errFor, 40); got != tc.want {
			t.Errorf("bound %g: greedy demotion settles at %q, online policy resolved %q",
				tc.bound, tc.want, got)
		}
	}
}

// TestDemotionCommitAndBudget: a shape warms, probes, and commits only the
// rungs whose measured fidelity fits the requesting budget.
func TestDemotionCommitAndBudget(t *testing.T) {
	em := 1e-6
	errFor := func(mode string) float64 {
		if mode == "full" {
			return 0
		}
		return em
	}
	tn := New(Config{Verify: syntheticVerify(errFor), WarmRuns: 1})

	// Budget below the demoted rungs' error: every probe is rejected.
	if got := converge(t, tn, em/10, errFor, 10); got != "full" {
		t.Fatalf("tight budget resolved %q, want full", got)
	}
	// A generous budget demotes all the way down.
	tn = New(Config{Verify: syntheticVerify(errFor), WarmRuns: 1})
	if got := converge(t, tn, em*10, errFor, 30); got != "half" {
		t.Fatalf("loose budget resolved %q, want half", got)
	}

	// Unverified shadow: demotion never commits.
	noShadow := func(_ context.Context, spec runner.ExperimentSpec) (*runner.Result, bool, error) {
		e := errFor(spec.Mode)
		return &runner.Result{Spec: spec, Steps: spec.Steps, MassError: &e, StateHash: "x"}, false, nil
	}
	tn = New(Config{Verify: noShadow, WarmRuns: 1})
	if got := converge(t, tn, em*10, errFor, 10); got != "full" {
		t.Fatalf("unverified shadow resolved %q, want full", got)
	}
}

// TestEscalationRevertsAndFloors: a numerical failure at a committed rung
// reverts the table above it, quarantines the rung (floor + doubled warm),
// and later resolutions never descend past the floor.
func TestEscalationRevertsAndFloors(t *testing.T) {
	errFor := func(string) float64 { return 0 }
	tn := New(Config{Verify: syntheticVerify(errFor), WarmRuns: 1})
	if got := converge(t, tn, 1e-3, errFor, 30); got != "half" {
		t.Fatalf("warm-up resolved %q, want half", got)
	}

	spec := testSpec(1e-3)
	resolved, _ := tn.Resolve(spec)
	tn.ObserveEscalation(resolved, runner.Escalation{FromMode: "half", ToMode: "min", Reason: "guard"})

	views := tn.Snapshot()
	if len(views) != 1 {
		t.Fatalf("got %d entries, want 1", len(views))
	}
	if views[0].Floor != "min" {
		t.Fatalf("floor = %q, want min", views[0].Floor)
	}
	if views[0].Committed == "half" {
		t.Fatal("committed rung survived the escalation that refuted it")
	}
	// The table re-demotes only down to the floor.
	if got := converge(t, tn, 1e-3, errFor, 40); got != "min" {
		t.Fatalf("post-escalation resolved %q, want min (the floor)", got)
	}
}

// TestConcurrentLearnResolve hammers the table from many goroutines — the
// race detector is the assertion.
func TestConcurrentLearnResolve(t *testing.T) {
	errFor := func(string) float64 { return 1e-9 }
	tn := New(Config{Verify: syntheticVerify(errFor), WarmRuns: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				spec := testSpec(1e-3)
				spec.NX = 8 + g%4 // a few distinct shapes
				resolved, err := tn.Resolve(spec)
				if err != nil {
					t.Error(err)
					return
				}
				e := 1e-9
				res := &runner.Result{Spec: resolved, Steps: resolved.Steps, StateHash: "h", MassError: &e}
				tn.ObserveResult(resolved, res)
				tn.Savings(resolved, res)
				if i%10 == 0 {
					tn.Snapshot()
				}
				if i%17 == 0 {
					tn.ObserveEscalation(resolved, runner.Escalation{FromMode: "half", ToMode: "min"})
				}
			}
		}(g)
	}
	wg.Wait()
	tn.Quiesce()
}

// TestJournalRecovery: learned state round-trips through the WAL — a new
// Tuner over a reopened journal resolves exactly like the one that learned.
func TestJournalRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, err := queue.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	errFor := func(string) float64 { return 0 }
	tn := New(Config{Journal: j, Verify: syntheticVerify(errFor), WarmRuns: 1})
	if got := converge(t, tn, 1e-3, errFor, 30); got != "half" {
		t.Fatalf("warm-up resolved %q, want half", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := queue.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recovered := New(Config{Journal: j2, Verify: syntheticVerify(errFor), WarmRuns: 1})
	if err := recovered.Recover(j2); err != nil {
		t.Fatal(err)
	}
	resolved, err := recovered.Resolve(testSpec(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if resolved.Mode != "half" {
		t.Fatalf("recovered table resolved %q, want half (no re-warm-up)", resolved.Mode)
	}
}

// TestRecoverDoneEscalations: escalation history of jobs that finished
// before a crash — previously dropped with the done record — floors the
// recovered table. The shape's row was journaled when an auto submission
// created it; nothing else was ever journaled for it.
func TestRecoverDoneEscalations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, err := queue.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Journal: j}).Resolve(testSpec(0)); err != nil {
		t.Fatal(err)
	}
	spec, err := testSpec(0).Concrete("half").Normalized()
	if err != nil {
		t.Fatal(err)
	}
	hash, _ := spec.Hash()
	if err := j.Submitted("job-000001", hash, spec, 2); err != nil {
		t.Fatal(err)
	}
	if err := j.Escalated("job-000001", runner.Escalation{FromMode: "half", ToMode: "min", Reason: "guard"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Done("job-000001"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := queue.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := len(j2.DoneEscalations()); got != 1 {
		t.Fatalf("DoneEscalations = %d records, want 1", got)
	}
	tn := New(Config{Journal: j2, WarmRuns: 1})
	if err := tn.Recover(j2); err != nil {
		t.Fatal(err)
	}
	views := tn.Snapshot()
	if len(views) != 1 {
		t.Fatalf("got %d entries, want 1", len(views))
	}
	if views[0].Floor != "min" {
		t.Fatalf("recovered floor = %q, want min", views[0].Floor)
	}
}

// TestResolveConcreteHashContract: the spec an auto submission resolves to
// hashes byte-identically to a plain submission of the same shape at the
// same mode — the cache/dedup contract the autotuner must not perturb.
func TestResolveConcreteHashContract(t *testing.T) {
	tn := New(Config{WarmRuns: 1})
	resolved, err := tn.Resolve(testSpec(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	plain := testSpec(0)
	plain.Mode = resolved.Mode
	plainHash, err := plain.Hash()
	if err != nil {
		t.Fatal(err)
	}
	resolvedHash, err := resolved.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if resolvedHash != plainHash {
		t.Fatalf("resolved spec hash %s != plain submission hash %s", resolvedHash, plainHash)
	}
	if resolved.MaxMassError != 0 || resolved.MaxLinecutLinf != 0 {
		t.Fatalf("resolution leaked budgets into the concrete spec: %+v", resolved)
	}
}

// TestSavings prices demoted runs against the full baseline, scaled to the
// run's step count.
func TestSavings(t *testing.T) {
	tn := New(Config{WarmRuns: 100}) // no probes; evidence only
	// An auto submission names the shape: only then do its results count.
	if _, err := tn.Resolve(testSpec(0)); err != nil {
		t.Fatal(err)
	}
	full, err := testSpec(0).Concrete("full").Normalized()
	if err != nil {
		t.Fatal(err)
	}
	tn.ObserveResult(full, &runner.Result{
		Spec: full, Steps: full.Steps, StateHash: "f",
		Energy:  &runner.Energy{Joules: 100, CostDollars: 2},
		LineCut: &analysis.Series{Y: []float64{1, 2, 3}},
	})
	half := full
	half.Mode = "half"
	half.Steps = full.Steps * 2 // savings scale with steps
	res := &runner.Result{
		Spec: half, Steps: half.Steps, StateHash: "h",
		Energy: &runner.Energy{Joules: 30, CostDollars: 0.5},
	}
	joules, dollars, ok := tn.Savings(half, res)
	if !ok {
		t.Fatal("Savings not ok with a full baseline on record")
	}
	if want := 100.0*2 - 30; math.Abs(joules-want) > 1e-9 {
		t.Fatalf("saved joules = %g, want %g", joules, want)
	}
	if want := 2.0*2 - 0.5; math.Abs(dollars-want) > 1e-9 {
		t.Fatalf("saved dollars = %g, want %g", dollars, want)
	}
	if _, _, ok := tn.Savings(full, res); ok {
		t.Fatal("full-mode run reported savings against itself")
	}
}

// TestKeyExcludesModeStepsBudgets: one decision entry serves a sweep that
// varies only steps, mode or budgets.
func TestKeyExcludesModeStepsBudgets(t *testing.T) {
	a := testSpec(1e-3)
	b := testSpec(1e-6)
	b.Steps = 99
	b.Mode = "full"
	ka, err := Key(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := Key(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("keys differ across mode/steps/budget variation:\n  %s\n  %s", ka, kb)
	}
	c := testSpec(1e-3)
	c.NX = 16
	if kc, _ := Key(c); kc == ka {
		t.Fatal("distinct problem shapes collided onto one key")
	}
}

// TestOnlyFrontierRunsWarmTheNextProbe: after a demotion commits, runs
// still finishing at the old rung (full) do not count toward the warm
// streak at the new one; runs at the committed rung do.
func TestOnlyFrontierRunsWarmTheNextProbe(t *testing.T) {
	tn := New(Config{Verify: syntheticVerify(func(string) float64 { return 0 }), WarmRuns: 2})
	auto := testSpec(1e-3)
	observe := func(mode string) {
		t.Helper()
		spec, err := tn.Resolve(auto)
		if err != nil {
			t.Fatal(err)
		}
		spec.Mode = mode
		zero := 0.0
		tn.ObserveResult(spec, &runner.Result{Spec: spec, Steps: spec.Steps, StateHash: "h-" + mode, MassError: &zero})
		tn.Quiesce()
	}
	committed := func() string {
		t.Helper()
		spec, err := tn.Resolve(auto)
		if err != nil {
			t.Fatal(err)
		}
		return spec.Mode
	}
	observe("full")
	observe("full")
	if got := committed(); got != "mixed" {
		t.Fatalf("two warm full runs committed %q, want mixed", got)
	}
	for i := 0; i < 3; i++ {
		observe("full")
	}
	if got := committed(); got != "mixed" {
		t.Fatalf("full runs after the mixed commit warmed a probe: committed %q", got)
	}
	observe("mixed")
	observe("mixed")
	if got := committed(); got != "min" {
		t.Fatalf("two warm mixed runs committed %q, want min", got)
	}
}
