package self

import (
	"bytes"
	"crypto/sha256"
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/precision"
)

func smallConfig() Config {
	return Config{Elements: 3, Order: 4}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Elements: 0, Order: 4},
		{Elements: 4, Order: 0},
		{Elements: 4, Order: 20},
		{Elements: 4, Order: 4, Domain: -1},
	}
	for i, cfg := range bad {
		if _, err := NewSolver[float64, float64](cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	cfg := smallConfig()
	s, err := NewSolver[float64, float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Domain != 1000 || s.cfg.BubbleAmplitude != 0.5 {
		t.Errorf("defaults not applied: %+v", s.cfg)
	}
	if s.NodeCount() != 3*3*3*5*5*5 {
		t.Errorf("NodeCount = %d", s.NodeCount())
	}
	if s.DegreesOfFreedom() != s.NodeCount()*5 {
		t.Errorf("DOF = %d", s.DegreesOfFreedom())
	}
	if s.StableDT() <= 0 {
		t.Error("StableDT not positive")
	}
}

func TestHydrostaticBalance(t *testing.T) {
	// Without a bubble the neutrally stratified atmosphere must stay at
	// rest: the perturbation-pressure formulation makes the background
	// discretely balanced up to rounding.
	cfg := smallConfig()
	cfg.BubbleAmplitude = 1e-30 // effectively no bubble
	s, err := NewSolver[float64, float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	// The EOS pow leaves ~1e-11 relative noise on p ≈ 1e5 Pa, so w picks
	// up O(1e-6) m/s of rounding-level drift — far below the O(1e-2) m/s
	// the bubble induces.
	if w := s.MaxAbsW(); w > 1e-4 {
		t.Errorf("background atmosphere moved: max|w| = %g", w)
	}
}

func TestBubbleRises(t *testing.T) {
	cfg := smallConfig()
	s, err := NewSolver[float64, float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(60); err != nil {
		t.Fatal(err)
	}
	// Vertical velocity above the bubble center must be positive (rising).
	w, err := s.Sample(FieldW, 500, 500, s.cfg.BubbleCenter[2])
	if err != nil {
		t.Fatal(err)
	}
	if w <= 0 {
		t.Errorf("bubble center w = %g, expected rising motion", w)
	}
	// The anomaly is negative (warm = light).
	anom, err := s.Sample(FieldDensityAnomaly, 500, 500, s.cfg.BubbleCenter[2])
	if err != nil {
		t.Fatal(err)
	}
	if anom >= 0 {
		t.Errorf("density anomaly %g not negative at bubble center", anom)
	}
	// θ' of the right magnitude (0.5 K bump, some interpolation overshoot).
	th, err := s.Sample(FieldThetaAnomaly, 500, 500, s.cfg.BubbleCenter[2])
	if err != nil {
		t.Fatal(err)
	}
	if th < 0.2 || th > 1.0 {
		t.Errorf("theta anomaly %g outside plausible range", th)
	}
}

func TestMassConservation(t *testing.T) {
	cfg := smallConfig()
	s64, err := NewSolver[float64, float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	m0 := s64.TotalMass()
	if err := s64.Run(40); err != nil {
		t.Fatal(err)
	}
	if drift := math.Abs(s64.TotalMass()-m0) / m0; drift > 1e-12 {
		t.Errorf("double-precision mass drift %g", drift)
	}
	s32, err := NewSolver[float32, float32](cfg)
	if err != nil {
		t.Fatal(err)
	}
	m0 = s32.TotalMass()
	if err := s32.Run(40); err != nil {
		t.Fatal(err)
	}
	if drift := math.Abs(s32.TotalMass()-m0) / m0; drift > 1e-4 {
		t.Errorf("single-precision mass drift %g", drift)
	}
}

func TestAllModesStable(t *testing.T) {
	for _, mode := range []precision.Mode{precision.Min, precision.Mixed, precision.Full} {
		r, err := New(mode, smallConfig())
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := r.Run(20); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if r.StepCount() != 20 || r.Time() <= 0 {
			t.Errorf("%v: step=%d time=%g", mode, r.StepCount(), r.Time())
		}
	}
	if _, err := New(precision.Half, smallConfig()); err == nil {
		t.Error("half mode accepted for SELF")
	}
	if _, err := New(precision.Mode(42), smallConfig()); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestSingleTracksDouble(t *testing.T) {
	// Paper Fig 4: single and double line-cuts are visually identical;
	// their difference is about two orders below the solution scale.
	runLine := func(mode precision.Mode) []float64 {
		r, err := New(mode, smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(50); err != nil {
			t.Fatal(err)
		}
		_, vals, err := r.LineX(FieldDensityAnomaly, 100)
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	dbl := runLine(precision.Full)
	sgl := runLine(precision.Min)
	scale, maxDiff := 0.0, 0.0
	for i := range dbl {
		if a := math.Abs(dbl[i]); a > scale {
			scale = a
		}
		if d := math.Abs(dbl[i] - sgl[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if scale == 0 {
		t.Fatal("flat line cut")
	}
	if maxDiff == 0 {
		t.Error("single == double bitwise — precision plumbing broken")
	}
	orders := math.Log10(scale / maxDiff)
	if orders < 1.5 {
		t.Errorf("single/double separation only %.1f orders (scale %g, diff %g)", orders, scale, maxDiff)
	}
}

func TestLineCutSymmetry(t *testing.T) {
	// The bubble is centered in x: the x line-cut through its center must
	// be mirror-symmetric up to rounding.
	r, err := New(precision.Full, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(30); err != nil {
		t.Fatal(err)
	}
	_, vals, err := r.LineX(FieldDensityAnomaly, 64)
	if err != nil {
		t.Fatal(err)
	}
	scale, maxAsym := 0.0, 0.0
	for i := range vals {
		if a := math.Abs(vals[i]); a > scale {
			scale = a
		}
	}
	for i := 0; i < len(vals)/2; i++ {
		if d := math.Abs(vals[i] - vals[len(vals)-1-i]); d > maxAsym {
			maxAsym = d
		}
	}
	if maxAsym > 1e-9*scale {
		t.Errorf("double-precision asymmetry %g vs scale %g", maxAsym, scale)
	}
}

func TestMemoryScalesWithPrecision(t *testing.T) {
	rS, err := New(precision.Min, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rD, err := New(precision.Full, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(rS.StateBytes()) / float64(rD.StateBytes())
	// Paper Table V: single uses roughly half the memory of double.
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("single/double memory ratio %.2f", ratio)
	}
}

func TestMathModes(t *testing.T) {
	for _, mm := range []MathMode{MathNative, MathPromoted} {
		cfg := smallConfig()
		cfg.MathMode = mm
		s, err := NewSolver[float32, float32](cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(10); err != nil {
			t.Fatalf("%v: %v", mm, err)
		}
		convs := s.Counters().Conversions
		if mm == MathPromoted && convs == 0 {
			t.Error("promoted mode recorded no conversions")
		}
		if mm == MathNative && convs != 0 {
			t.Errorf("native mode recorded %d conversions", convs)
		}
	}
	if MathNative.String() == MathPromoted.String() {
		t.Error("math mode names collide")
	}
	// Both math modes give nearly identical physics (≤ a few ulp of f32
	// per pow; same solve).
	cfgN := smallConfig()
	cfgN.MathMode = MathNative
	sN, _ := NewSolver[float32, float32](cfgN)
	cfgP := smallConfig()
	cfgP.MathMode = MathPromoted
	sP, _ := NewSolver[float32, float32](cfgP)
	if err := sN.Run(20); err != nil {
		t.Fatal(err)
	}
	if err := sP.Run(20); err != nil {
		t.Fatal(err)
	}
	_, vN, _ := sN.LineX(FieldDensityAnomaly, 50)
	_, vP, _ := sP.LineX(FieldDensityAnomaly, 50)
	for i := range vN {
		if math.Abs(vN[i]-vP[i]) > 1e-4 {
			t.Fatalf("math modes diverged at %d: %g vs %g", i, vN[i], vP[i])
		}
	}
}

func TestSampleErrors(t *testing.T) {
	s, err := NewSolver[float64, float64](smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(FieldDensity, -5, 500, 500); err == nil {
		t.Error("out-of-domain sample accepted")
	}
	if _, err := s.Sample(Field(99), 500, 500, 500); err == nil {
		t.Error("unknown field accepted")
	}
	// Density sample at t=0 matches the hydrostatic background away from
	// the bubble.
	rho, err := s.Sample(FieldDensity, 10, 10, 900)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-rhoBarAt(900))/rhoBarAt(900) > 1e-9 {
		t.Errorf("initial density %g vs background %g", rho, rhoBarAt(900))
	}
}

func TestCountersPopulated(t *testing.T) {
	s, err := NewSolver[float64, float64](smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(3); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.Flops64 == 0 || c.Transcendental64 == 0 || c.TotalBytes() == 0 {
		t.Errorf("counters empty: %+v", c)
	}
	if c.Flops32 != 0 {
		t.Errorf("double solver recorded f32 flops: %+v", c)
	}
	if s.Timer().Total("rhs") <= 0 || s.Timer().Total("rk") <= 0 || s.Timer().Total("filter") <= 0 {
		t.Error("phase timers empty")
	}
}

func TestFilterDisabled(t *testing.T) {
	cfg := smallConfig()
	cfg.FilterInterval = -1
	s, err := NewSolver[float64, float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Short unfiltered runs remain stable on this smooth problem.
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if s.Timer().Total("filter") != 0 {
		t.Error("filter ran despite being disabled")
	}
}

func BenchmarkRHS(b *testing.B) {
	for _, mode := range []precision.Mode{precision.Min, precision.Mixed, precision.Full} {
		r, err := New(mode, Config{Elements: 4, Order: 7})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := r.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestBlowUpDetected(t *testing.T) {
	cfg := smallConfig()
	cfg.DT = 100 // far beyond the acoustic limit
	s, err := NewSolver[float64, float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(50); err == nil {
		t.Fatal("unstable run completed without error")
	}
}

func TestRhoThetaConservation(t *testing.T) {
	s, err := NewSolver[float64, float64](smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	q0 := s.TotalRhoTheta()
	if err := s.Run(30); err != nil {
		t.Fatal(err)
	}
	if drift := math.Abs(s.TotalRhoTheta()-q0) / q0; drift > 1e-12 {
		t.Errorf("ρθ drift %g", drift)
	}
}

func TestSELFFieldDump(t *testing.T) {
	s, err := NewSolver[float64, float64](smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := s.WriteFieldDump(&buf, 48, 48, 12)
	if err != nil {
		t.Fatal(err)
	}
	// 48×48 float64 raw = 18 KiB; at 12 bits/value expect ~3.5 KiB.
	if n < 512 || n > 8*1024 {
		t.Errorf("dump size %d", n)
	}
	if _, err := s.WriteFieldDump(&buf, 48, 48, 99); err == nil {
		t.Error("invalid rate accepted")
	}
}

// TestZeroWorkersMeansSerial pins the Config.Workers contract: the zero
// value is normalised to 1 at construction, so a zero-value Config takes the
// serial path — one chunk of scratch in StateBytes — and reports exactly
// what Workers: 1 reports.
func TestZeroWorkersMeansSerial(t *testing.T) {
	type outcome struct {
		workers    int
		counters   metrics.Counters
		stateBytes uint64
		stateHash  [sha256.Size]byte
	}
	run := func(workers int) outcome {
		cfg := smallConfig()
		cfg.Workers = workers
		s, err := NewSolver[float32, float64](cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(5); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := s.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return outcome{s.cfg.Workers, s.Counters(), s.StateBytes(), sha256.Sum256(buf.Bytes())}
	}
	zero, one := run(0), run(1)
	if zero != one {
		t.Errorf("zero-value Workers ran as\n %+v\nWorkers: 1 as\n %+v", zero, one)
	}
	if two := run(2); two.stateBytes <= one.stateBytes {
		t.Errorf("StateBytes %d at Workers: 2 not above %d at Workers: 1: per-chunk scratch not accounted", two.stateBytes, one.stateBytes)
	}
}
