package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/precision"
)

// TestRunMatchesCoreStudy asserts the daemon's execution path produces the
// same deterministic measurables as the direct study runners cmd/paperbench
// uses — the acceptance contract for serving cached results in their place.
func TestRunMatchesCoreStudy(t *testing.T) {
	spec := clamrTestSpec()
	res, err := Run(context.Background(), spec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.CLAMRConfig(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RunCLAMROpts(precision.Full, cfg, spec.Steps, spec.LineCutN, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters != want.Counters {
		t.Errorf("counters diverge:\n runner %+v\n core   %+v", res.Counters, want.Counters)
	}
	if res.Cells != want.Cells || res.StateBytes != want.StateBytes ||
		res.CheckpointBytes != want.CheckpointBytes {
		t.Errorf("size measurables diverge: %+v vs %+v", res, want)
	}
	if res.MassError == nil || *res.MassError != want.MassError {
		t.Errorf("mass error diverges: %v vs %v", res.MassError, want.MassError)
	}
	if res.LineCut == nil || len(res.LineCut.Y) != len(want.LineCut.Y) {
		t.Fatalf("line cut missing or mis-sized")
	}
	for i := range want.LineCut.Y {
		if res.LineCut.Y[i] != want.LineCut.Y[i] {
			t.Fatalf("line cut diverges at %d: %g vs %g", i, res.LineCut.Y[i], want.LineCut.Y[i])
		}
	}
}

// TestRunDeterministicAcrossReruns asserts the deterministic result portion
// (and the state hash) is identical on rerun — the property that makes
// content-addressed caching sound.
func TestRunDeterministicAcrossReruns(t *testing.T) {
	for _, spec := range []ExperimentSpec{clamrTestSpec(), selfTestSpec()} {
		a, err := Run(context.Background(), spec, RunOpts{})
		if err != nil {
			t.Fatalf("%s: %v", spec.App, err)
		}
		b, err := Run(context.Background(), spec, RunOpts{Workers: 3})
		if err != nil {
			t.Fatalf("%s rerun: %v", spec.App, err)
		}
		ha, err := a.ResultHash()
		if err != nil {
			t.Fatal(err)
		}
		hb, err := b.ResultHash()
		if err != nil {
			t.Fatal(err)
		}
		if ha != hb {
			t.Errorf("%s: result hash changed across reruns/worker counts: %s vs %s", spec.App, ha, hb)
		}
		if a.StateHash != b.StateHash || a.StateHash == "" {
			t.Errorf("%s: state hash changed: %q vs %q", spec.App, a.StateHash, b.StateHash)
		}
	}
}

func TestRunProgressAndCancellation(t *testing.T) {
	spec := clamrTestSpec()
	var steps []int
	res, err := Run(context.Background(), spec, RunOpts{
		Progress: func(step, total int) {
			if total != spec.Steps {
				t.Fatalf("progress total = %d, want %d", total, spec.Steps)
			}
			steps = append(steps, step)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != spec.Steps || steps[len(steps)-1] != spec.Steps {
		t.Fatalf("progress saw steps %v, want 1..%d", steps, spec.Steps)
	}
	if res.SpecHash == "" {
		t.Error("result missing spec hash")
	}

	// Cancel mid-run: the error must wrap context.Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	_, err = Run(ctx, spec, RunOpts{
		Progress: func(step, total int) {
			if step == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

// TestRestartThroughRunner checkpoints an experiment mid-run, resumes it
// through the runner path, and asserts the resumed run's final state hash
// matches an uninterrupted run — restart fidelity for both mini-apps.
func TestRestartThroughRunner(t *testing.T) {
	for _, full := range []ExperimentSpec{clamrTestSpec(), selfTestSpec()} {
		uninterrupted, err := Run(context.Background(), full, RunOpts{})
		if err != nil {
			t.Fatalf("%s uninterrupted: %v", full.App, err)
		}

		// Run the first half and capture its checkpoint.
		half := full
		half.Steps = full.Steps / 2
		var ckpt bytes.Buffer
		if _, err := Run(context.Background(), half, RunOpts{Checkpoint: &ckpt}); err != nil {
			t.Fatalf("%s first half: %v", full.App, err)
		}

		// Resume from the checkpoint to the full step count.
		resumed, err := Run(context.Background(), full, RunOpts{Resume: &ckpt})
		if err != nil {
			t.Fatalf("%s resume: %v", full.App, err)
		}
		if resumed.Steps != uninterrupted.Steps {
			t.Fatalf("%s: resumed to %d steps, want %d", full.App, resumed.Steps, uninterrupted.Steps)
		}
		if resumed.StateHash != uninterrupted.StateHash {
			t.Errorf("%s: restart diverged: state hash %s after resume, %s uninterrupted",
				full.App, resumed.StateHash, uninterrupted.StateHash)
		}
	}
}

// TestTinyRunByteCeiling bounds what one campaign-sized CLAMR run (16²
// cells, one AMR level, five steps) allocates once its shape's template
// is stored: copies share the template's mesh and face list, the state
// hash streams the checkpoint, and mass sums reuse their scratch, so a run
// allocates little beyond its own state. Deep-copying templates and staging
// checkpoints cost 117–162 KB per run.
func TestTinyRunByteCeiling(t *testing.T) {
	const ceiling = 60 << 10
	for _, mode := range []string{"min", "mixed", "full", "half"} {
		spec := ExperimentSpec{App: AppCLAMR, Mode: mode, Steps: 5, NX: 16, NY: 16, MaxLevel: 1}
		run := func(i int) {
			spec.DryTol = 1e-7 * float64(i+1) // unique specs, one shape
			if _, err := Run(context.Background(), spec, RunOpts{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		}
		run(0) // stores the template
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 1; i <= runs; i++ {
			run(i)
		}
		runtime.ReadMemStats(&after)
		if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > ceiling {
			t.Errorf("%s: a tiny run allocates %d B, ceiling %d B", mode, perRun, ceiling)
		}
	}
}

// lineCutResultJSON is a Result with a line cut as marshalled when the
// line cut had its own runner-local type. Cache entries, ETags and
// journaled autotune rows hold these bytes, so they must not move.
const lineCutResultJSON = `{"spec":{"app":"self","mode":"min","steps":2,"line_cut_n":3,"elements":1,"order":2},"spec_hash":"5eed","steps":2,"dof":135,"counters":{"flops16":0,"flops32":0,"flops64":0,"transcendental32":0,"transcendental64":0,"load_bytes":0,"store_bytes":0,"conversions":0,"kernel_launches":0,"alloc_bytes":0,"alloc_count":0},"state_bytes":0,"checkpoint_bytes":0,"state_hash":"00ff","line_cut":{"label":"w","x":[0,0.5,1],"y":[-0.00125,0,3]},"wall_seconds":0}`

func TestLineCutJSONStable(t *testing.T) {
	res := Result{
		Spec:      ExperimentSpec{App: AppSELF, Mode: "min", Steps: 2, Elements: 1, Order: 2, LineCutN: 3},
		SpecHash:  "5eed",
		Steps:     2,
		DOF:       135,
		StateHash: "00ff",
		LineCut:   &analysis.Series{Label: "w", X: []float64{0, 0.5, 1}, Y: []float64{-1.25e-3, 0, 3}},
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != lineCutResultJSON {
		t.Fatalf("Result JSON moved:\n got %s\nwant %s", got, lineCutResultJSON)
	}
	var back Result
	if err := json.Unmarshal([]byte(lineCutResultJSON), &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != lineCutResultJSON {
		t.Fatalf("stored Result JSON does not round-trip:\n got %s\nwant %s", again, lineCutResultJSON)
	}
}
