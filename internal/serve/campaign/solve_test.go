package campaign

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve/autotune"
	"repro/internal/serve/cache"
	"repro/internal/serve/dispatch"
	"repro/internal/serve/queue"
)

// TestConcreteCampaignRunsOneSolvePerJob: a concrete campaign on a node
// with the whole service wired — autotuner with a live demotion verifier,
// journal, cache — runs exactly one solve per job and leaves the autotuner
// untouched, because no auto submission ever named its shape. Once one
// does, concrete results of that shape feed the new row.
func TestConcreteCampaignRunsOneSolvePerJob(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "wal")
	j, err := queue.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.Open(filepath.Join(dir, "cache"), cache.WithHotBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	var solves atomic.Int64
	run := func(_ context.Context, req queue.RunRequest) (*runner.Result, error) {
		solves.Add(1)
		res := okRunResult(req.Spec)
		res.LineCut = &runner.Series{Y: []float64{1, 2, 3}}
		return res, nil
	}
	reg := obs.NewRegistry()
	disp := dispatch.New(dispatch.Options{})
	co := dispatch.NewCoordinator(disp, dispatch.CoordinatorConfig{})
	tn := autotune.New(autotune.Config{Journal: j, Verify: co.VerifyDemotion, Obs: reg})
	sched := queue.New(queue.Config{Workers: 2, QueueDepth: 64, Cache: c, Journal: j, Run: run, Dispatch: disp, Tuner: tn})
	m := New(Config{Sched: sched, Journal: j, Slots: 4, CursorEvery: 4, Obs: obs.NewRegistry()})
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); sched.Wait(); m.Wait() }()
	sched.Start(ctx)
	m.Start(ctx)

	// Every mode of one scenario at a few lengths: a single autotune key
	// whose clean results would warm demotion probes if it had a row.
	const n = 12
	camp, err := m.Submit(Spec{Tenant: "t", Generator: GeneratorSpec{
		Kind: KindGrid, Base: clamrBase(10),
		Axes: []Axis{
			{Field: "mode", Values: []any{"min", "mixed", "full"}},
			{Field: "steps", Values: []any{10, 11, 12, 13}},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, camp)
	tn.Quiesce()
	if a := camp.Aggregates(); a.Completed != n || a.Failed != 0 {
		t.Fatalf("campaign completed %d, failed %d; want %d, 0", a.Completed, a.Failed, n)
	}
	if got := solves.Load(); got != n {
		t.Errorf("RunFunc called %d times for %d concrete jobs, want one solve each", got, n)
	}
	if rows := tn.Snapshot(); len(rows) != 0 {
		t.Errorf("autotune table has %d rows after a concrete campaign, want none: %+v", len(rows), rows)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if exp := b.String(); strings.Contains(exp, `decision="probe_`) {
		t.Errorf("a probe decision was counted:\n%s", exp)
	}
	counts := journalTypes(t, jpath)
	for _, typ := range []string{"submitted", "started", "done"} {
		if counts[typ] != n {
			t.Errorf("%d %q records, want %d", counts[typ], typ, n)
		}
	}
	if counts["tuned"] != 0 {
		t.Errorf("%d tuned records, want 0", counts["tuned"])
	}
	for typ := range counts {
		switch typ {
		case "submitted", "started", "done", "campaign", "campaign_cursor", "campaign_done":
		default:
			t.Errorf("unexpected %d %q records in the journal", counts[typ], typ)
		}
	}

	// One auto submission names the shape: it resolves cold to full, runs,
	// and from then on concrete results of the shape feed the row.
	auto := clamrBase(20)
	auto.Mode = runner.ModeAuto
	aj, err := sched.Submit(auto)
	if err != nil {
		t.Fatal(err)
	}
	<-aj.Done()
	concrete, err := sched.Submit(clamrBase(21))
	if err != nil {
		t.Fatal(err)
	}
	<-concrete.Done()
	tn.Quiesce()
	rows := tn.Snapshot()
	if len(rows) != 1 {
		t.Fatalf("autotune rows = %d after one auto submission, want 1", len(rows))
	}
	if r := rows[0]; r.Streak != 2 || r.RefSteps != 21 {
		t.Errorf("row streak %d, ref_steps %d; want 2 (auto + concrete run) and 21 (the concrete full run's reference)",
			r.Streak, r.RefSteps)
	}
	if got := journalTypes(t, jpath)["tuned"]; got < 1 {
		t.Errorf("%d tuned records after the row was created, want it journaled", got)
	}
}

// okRunResult is a deterministic stand-in for a solve.
func okRunResult(spec runner.ExperimentSpec) *runner.Result {
	h, _ := spec.Hash()
	mass := 1e-9
	return &runner.Result{Spec: spec, SpecHash: h, Steps: spec.Steps, StateHash: "st-" + h[:16], MassError: &mass}
}

// journalTypes counts the journal's records by type.
func journalTypes(t *testing.T, path string) map[string]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	counts := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		var rec struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("journal line %q: %v", sc.Text(), err)
		}
		counts[rec.Type]++
	}
	return counts
}
