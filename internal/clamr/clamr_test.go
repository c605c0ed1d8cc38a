package clamr

import (
	"bytes"
	"crypto/sha256"
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/precision"
)

func testConfig(kernel Kernel, maxLevel int) Config {
	return Config{
		NX: 32, NY: 32,
		MaxLevel:    maxLevel,
		Kernel:      kernel,
		AMRInterval: 10,
	}
}

func testIC(cfg Config) InitialCondition {
	b := cfg.Bounds
	if b == (mesh.Bounds{}) {
		b = mesh.UnitBounds
	}
	return DamBreak(b, 10, 2, 0.15, 0.05)
}

func TestDamBreakIC(t *testing.T) {
	ic := DamBreak(mesh.UnitBounds, 10, 2, 0.2, 0.02)
	h, u, v := ic(0.5, 0.5)
	if math.Abs(h-10) > 1e-6 || u != 0 || v != 0 {
		t.Errorf("center: h=%g u=%g v=%g", h, u, v)
	}
	h, _, _ = ic(0.95, 0.95)
	if math.Abs(h-2) > 1e-6 {
		t.Errorf("far field: h=%g", h)
	}
	// Radial symmetry (dyadic offsets so the distances are bit-identical).
	wide := DamBreak(mesh.UnitBounds, 10, 2, 0.2, 0.1)
	h1, _, _ := wide(0.5+0.1875, 0.5)
	h2, _, _ := wide(0.5, 0.5-0.1875)
	if h1 != h2 {
		t.Errorf("IC not radially symmetric: %g vs %g", h1, h2)
	}
	// Sharp variant.
	sharp := DamBreak(mesh.UnitBounds, 10, 2, 0.2, 0)
	if h, _, _ := sharp(0.5, 0.5); h != 10 {
		t.Errorf("sharp inside: %g", h)
	}
	if h, _, _ := sharp(0.9, 0.9); h != 2 {
		t.Errorf("sharp outside: %g", h)
	}
}

func TestRunStableAllModes(t *testing.T) {
	for _, mode := range precision.Ladder {
		cfg := testConfig(KernelFace, 1)
		r, err := New(mode, cfg, testIC(cfg))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := r.Run(50); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		hs := r.HeightF64()
		for i, h := range hs {
			if math.IsNaN(h) || math.IsInf(h, 0) {
				t.Fatalf("%v: cell %d height %g", mode, i, h)
			}
			if h <= 0 || h > 20 {
				t.Fatalf("%v: cell %d height %g out of physical range", mode, i, h)
			}
		}
		if r.StepCount() != 50 {
			t.Errorf("%v: StepCount = %d", mode, r.StepCount())
		}
		if r.Time() <= 0 {
			t.Errorf("%v: Time = %g", mode, r.Time())
		}
	}
}

func TestMassConservation(t *testing.T) {
	for _, kernel := range []Kernel{KernelCell, KernelFace} {
		cfg := testConfig(kernel, 1)
		s, err := NewSolver[float64, float64](cfg, testIC(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(100); err != nil {
			t.Fatal(err)
		}
		if drift := s.MassError(); drift > 1e-11 {
			t.Errorf("%v kernel: mass drift %g after 100 steps (with AMR)", kernel, drift)
		}
	}
	// Single precision drifts more but must stay small.
	cfg := testConfig(KernelFace, 1)
	s32, err := NewSolver[float32, float32](cfg, testIC(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := s32.Run(100); err != nil {
		t.Fatal(err)
	}
	if drift := s32.MassError(); drift > 1e-4 {
		t.Errorf("float32 mass drift %g", drift)
	}
}

func TestKernelsAgree(t *testing.T) {
	cfg := testConfig(KernelCell, 0)
	cfg.AMRInterval = 0
	sCell, err := NewSolver[float64, float64](cfg, testIC(cfg))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Kernel = KernelFace
	sFace, err := NewSolver[float64, float64](cfg, testIC(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := sCell.Run(50); err != nil {
		t.Fatal(err)
	}
	if err := sFace.Run(50); err != nil {
		t.Fatal(err)
	}
	hc, hf := sCell.HeightF64(), sFace.HeightF64()
	if len(hc) != len(hf) {
		t.Fatalf("cell counts diverged: %d vs %d", len(hc), len(hf))
	}
	maxRel := 0.0
	for i := range hc {
		rel := math.Abs(hc[i]-hf[i]) / math.Abs(hc[i])
		if rel > maxRel {
			maxRel = rel
		}
	}
	// The kernels differ only in accumulation order: agreement must be
	// near machine precision.
	if maxRel > 1e-11 {
		t.Errorf("kernels disagree: max rel %g", maxRel)
	}
	if maxRel == 0 {
		t.Log("kernels bitwise identical (unexpected but fine)")
	}
}

func TestMixedTracksFullClosely(t *testing.T) {
	run := func(mode precision.Mode) []float64 {
		cfg := testConfig(KernelFace, 1)
		r, err := New(mode, cfg, testIC(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(100); err != nil {
			t.Fatal(err)
		}
		img, err := r.Mesh().Rasterize(r.HeightF64(), 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	full := run(precision.Full)
	mixed := run(precision.Mixed)
	min := run(precision.Min)
	maxDiff := func(a, b []float64) float64 {
		d := 0.0
		for i := range a {
			if v := math.Abs(a[i] - b[i]); v > d {
				d = v
			}
		}
		return d
	}
	dMixed := maxDiff(full, mixed)
	dMin := maxDiff(full, min)
	// Paper Fig 1: differences are ≥5 orders of magnitude below the ~10
	// solution scale, and mixed is closest to full.
	if dMixed > 1e-3 {
		t.Errorf("|full-mixed| = %g, too large", dMixed)
	}
	if dMin > 1e-2 {
		t.Errorf("|full-min| = %g, too large", dMin)
	}
	// In this solver the deviation from full is dominated by the per-step
	// float32 *storage* rounding, which Min and Mixed share — so unlike
	// the paper's CLAMR (whose long in-step double chains favour Mixed
	// distinctly), Mixed and Min land within a small factor of each other.
	// Assert that, rather than strict ordering.
	if dMixed > 2*dMin {
		t.Errorf("mixed (%g) deviates far more than min (%g) from full", dMixed, dMin)
	}
	if dMin == 0 {
		t.Error("min precision identical to full — precision plumbing broken")
	}
}

func TestSymmetryPreserved(t *testing.T) {
	// The centered dam break must stay x-mirror symmetric; double
	// precision should be symmetric to ~1e-12, single to ~1e-5 relative.
	check := func(mode precision.Mode, tol float64) {
		cfg := testConfig(KernelCell, 0)
		cfg.AMRInterval = 0
		r, err := New(mode, cfg, testIC(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(60); err != nil {
			t.Fatal(err)
		}
		img, err := r.Mesh().Rasterize(r.HeightF64(), 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		maxAsym := 0.0
		for j := 0; j < 64; j++ {
			for i := 0; i < 32; i++ {
				a := img[j*64+i]
				b := img[j*64+63-i]
				if d := math.Abs(a - b); d > maxAsym {
					maxAsym = d
				}
			}
		}
		if maxAsym > tol {
			t.Errorf("%v: asymmetry %g exceeds %g", mode, maxAsym, tol)
		}
	}
	check(precision.Full, 1e-10)
	check(precision.Min, 1e-3)
}

func TestAMRRefinesAroundFront(t *testing.T) {
	cfg := testConfig(KernelFace, 2)
	cfg.AMRInterval = 5
	s, err := NewSolver[float64, float64](cfg, testIC(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if s.Mesh().MaxActiveLevel() < 1 {
		t.Error("initial adaptation did not refine the dam wall")
	}
	cellsBefore := s.Mesh().NumCells()
	if err := s.Run(40); err != nil {
		t.Fatal(err)
	}
	if err := s.Mesh().Validate(); err != nil {
		t.Fatalf("mesh invalid after AMR run: %v", err)
	}
	if s.Mesh().NumCells() == cellsBefore {
		t.Log("cell count unchanged (possible but unusual)")
	}
	if drift := s.MassError(); drift > 1e-11 {
		t.Errorf("AMR mass drift %g", drift)
	}
}

func TestCheckpointSizeRatio(t *testing.T) {
	var bufMin, bufFull bytes.Buffer
	cfg := testConfig(KernelFace, 1)
	rMin, err := New(precision.Min, cfg, testIC(cfg))
	if err != nil {
		t.Fatal(err)
	}
	rFull, err := New(precision.Full, cfg, testIC(cfg))
	if err != nil {
		t.Fatal(err)
	}
	nMin, err := rMin.WriteCheckpoint(&bufMin)
	if err != nil {
		t.Fatal(err)
	}
	nFull, err := rFull.WriteCheckpoint(&bufFull)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(nMin) / float64(nFull)
	// Paper Table III: 86M/128M ≈ 0.67. Ours: (3×4+12)/(3×8+12) = 24/36 ≈ 0.67.
	if ratio < 0.6 || ratio > 0.75 {
		t.Errorf("min/full checkpoint ratio %.3f, want ≈2/3", ratio)
	}
}

func TestCountersAndMemoryScaleWithPrecision(t *testing.T) {
	cfg := testConfig(KernelFace, 0)
	cfg.AMRInterval = 0
	rMin, _ := New(precision.Min, cfg, testIC(cfg))
	rMixed, _ := New(precision.Mixed, cfg, testIC(cfg))
	rFull, _ := New(precision.Full, cfg, testIC(cfg))
	for _, r := range []Runner{rMin, rMixed, rFull} {
		if err := r.Run(5); err != nil {
			t.Fatal(err)
		}
	}
	// Memory: min == mixed < full.
	if rMin.StateBytes() != rMixed.StateBytes() {
		// Mixed carries float64 RHS scratch, so allow it to be larger,
		// but the *state* contribution is equal; total must still be
		// below full.
		if rMixed.StateBytes() >= rFull.StateBytes() {
			t.Errorf("mixed memory %d not below full %d", rMixed.StateBytes(), rFull.StateBytes())
		}
	}
	if rMin.StateBytes() >= rFull.StateBytes() {
		t.Errorf("min memory %d not below full %d", rMin.StateBytes(), rFull.StateBytes())
	}
	// Flop widths: min counts f32, full counts f64, mixed counts f64
	// compute with conversions.
	if rMin.Counters().Flops32 == 0 || rMin.Counters().Flops64 != 0 {
		t.Errorf("min counters wrong: %+v", rMin.Counters())
	}
	if rFull.Counters().Flops64 == 0 || rFull.Counters().Flops32 != 0 {
		t.Errorf("full counters wrong: %+v", rFull.Counters())
	}
	mc := rMixed.Counters()
	if mc.Flops64 == 0 || mc.Conversions == 0 {
		t.Errorf("mixed counters wrong: %+v", mc)
	}
	if rMin.Counters().Conversions != 0 {
		t.Errorf("min recorded conversions: %d", rMin.Counters().Conversions)
	}
	// Traffic: min moves about half the bytes of full.
	minBytes := rMin.Counters().TotalBytes()
	fullBytes := rFull.Counters().TotalBytes()
	ratio := float64(minBytes) / float64(fullBytes)
	if ratio < 0.4 || ratio > 0.7 {
		t.Errorf("min/full traffic ratio %.2f", ratio)
	}
}

func TestHalfModeDegradesGracefully(t *testing.T) {
	cfg := testConfig(KernelFace, 0)
	cfg.AMRInterval = 0
	rHalf, err := New(precision.Half, cfg, testIC(cfg))
	if err != nil {
		t.Fatal(err)
	}
	rFull, err := New(precision.Full, cfg, testIC(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := rHalf.Run(30); err != nil {
		t.Fatal(err)
	}
	if err := rFull.Run(30); err != nil {
		t.Fatal(err)
	}
	hH, hF := rHalf.HeightF64(), rFull.HeightF64()
	maxDiff := 0.0
	for i := range hH {
		if math.IsNaN(hH[i]) {
			t.Fatalf("half mode produced NaN at cell %d", i)
		}
		if d := math.Abs(hH[i] - hF[i]); d > maxDiff {
			maxDiff = d
		}
	}
	// Half precision is visibly worse than full but still bounded.
	if maxDiff > 0.5 {
		t.Errorf("half deviation %g too large", maxDiff)
	}
	if maxDiff < 1e-5 {
		t.Errorf("half deviation %g suspiciously small — demotion not happening?", maxDiff)
	}
	if rHalf.StateBytes() >= rFull.StateBytes() {
		t.Error("half mode memory not below full")
	}
}

func TestRunnerErrorsOnBadConfig(t *testing.T) {
	cfg := Config{NX: 0, NY: 4}
	if _, err := New(precision.Full, cfg, testIC(Config{})); err == nil {
		t.Error("accepted zero-width grid")
	}
	if _, err := New(precision.Mode(42), testConfig(KernelCell, 0), testIC(Config{})); err == nil {
		t.Error("accepted unknown mode")
	}
}

func TestTimerBucketsPopulated(t *testing.T) {
	cfg := testConfig(KernelFace, 1)
	s, err := NewSolver[float64, float64](cfg, testIC(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(12); err != nil {
		t.Fatal(err)
	}
	if s.Timer().Total("finite_diff") <= 0 {
		t.Error("finite_diff phase not timed")
	}
	if s.Timer().Total("timestep") <= 0 {
		t.Error("timestep phase not timed")
	}
	if s.Timer().Total("amr") <= 0 {
		t.Error("amr phase not timed despite AMRInterval=10")
	}
}

func TestKernelString(t *testing.T) {
	if KernelCell.String() != "unvectorized" || KernelFace.String() != "vectorized" {
		t.Error("kernel names wrong")
	}
}

func TestVelocityF64(t *testing.T) {
	cfg := testConfig(KernelFace, 0)
	cfg.AMRInterval = 0
	s, err := NewSolver[float64, float64](cfg, testIC(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	u, v := s.VelocityF64()
	anyMotion := false
	for i := range u {
		if math.IsNaN(u[i]) || math.IsNaN(v[i]) {
			t.Fatalf("velocity NaN at %d", i)
		}
		if u[i] != 0 || v[i] != 0 {
			anyMotion = true
		}
	}
	if !anyMotion {
		t.Error("dam break produced no motion")
	}
}

func BenchmarkFiniteDiff(b *testing.B) {
	for _, kernel := range []Kernel{KernelCell, KernelFace} {
		for _, mode := range precision.Modes {
			cfg := Config{NX: 64, NY: 64, MaxLevel: 1, Kernel: kernel, AMRInterval: 0}
			r, err := New(mode, cfg, DamBreak(mesh.UnitBounds, 10, 2, 0.15, 0.05))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(kernel.String()+"/"+mode.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := r.Step(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func TestBlowUpDetected(t *testing.T) {
	// A Courant number far above the stability limit must blow up and be
	// reported as an error rather than silently producing NaNs.
	cfg := testConfig(KernelFace, 0)
	cfg.AMRInterval = 0
	cfg.Courant = 25
	r, err := New(precision.Full, cfg, testIC(cfg))
	if err != nil {
		t.Fatal(err)
	}
	err = r.Run(200)
	if err == nil {
		t.Fatal("unstable run completed without error")
	}
}

// TestZeroWorkersMeansSerial pins the Config.Workers contract: the zero
// value is normalised to 1 at construction, so a zero-value Config takes the
// serial path and reports exactly what Workers: 1 reports.
func TestZeroWorkersMeansSerial(t *testing.T) {
	type outcome struct {
		workers    int
		counters   metrics.Counters
		stateBytes uint64
		stateHash  [sha256.Size]byte
	}
	for _, kernel := range []Kernel{KernelCell, KernelFace} {
		run := func(workers int) outcome {
			cfg := testConfig(kernel, 1)
			cfg.Workers = workers
			s, err := NewSolver[float32, float64](cfg, testIC(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(20); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := s.WriteCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			return outcome{s.cfg.Workers, s.Counters(), s.StateBytes(), sha256.Sum256(buf.Bytes())}
		}
		if zero, one := run(0), run(1); zero != one {
			t.Errorf("%v: zero-value Workers ran as\n %+v\nWorkers: 1 as\n %+v", kernel, zero, one)
		}
	}
}
