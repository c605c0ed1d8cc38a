package clamr

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"testing"

	"repro/internal/precision"
)

// TestParallelBitwiseIdentical verifies the claim the Workers option makes:
// parallel sweeps produce bit-identical state to the serial ones at every
// worker count, for both kernels and all precision modes.
func TestParallelBitwiseIdentical(t *testing.T) {
	for _, kernel := range []Kernel{KernelCell, KernelFace} {
		for _, mode := range []precision.Mode{precision.Min, precision.Full} {
			run := func(workers int) []float64 {
				cfg := Config{
					NX: 32, NY: 32, MaxLevel: 1, Kernel: kernel,
					AMRInterval: 10, Workers: workers,
				}
				r, err := New(mode, cfg, testIC(cfg))
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Run(30); err != nil {
					t.Fatal(err)
				}
				return r.HeightF64()
			}
			ref := run(1)
			for _, workers := range []int{2, 3, 8} {
				got := run(workers)
				if len(got) != len(ref) {
					t.Fatalf("%v/%v workers=%d: cell counts diverged", kernel, mode, workers)
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%v/%v workers=%d: cell %d differs: %x vs %x",
							kernel, mode, workers, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// stateHash runs a short simulation and returns a digest of the full
// serialised state (mesh + h, hu, hv at storage precision), so any
// single-bit divergence between worker counts is caught.
func stateHash(t *testing.T, kernel Kernel, mode precision.Mode, workers int) [sha256.Size]byte {
	t.Helper()
	cfg := Config{
		NX: 32, NY: 32, MaxLevel: 1, Kernel: kernel,
		AMRInterval: 10, Workers: workers,
	}
	r, err := New(mode, cfg, testIC(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(30); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := r.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// TestParallelStateHashIdentical is the regression form of the determinism
// contract: the sha256 of the complete serialised state must be
// byte-identical at every worker count, including counts above the pool
// size and above GOMAXPROCS.
func TestParallelStateHashIdentical(t *testing.T) {
	workerCounts := []int{1, 2, 3, 7, runtime.GOMAXPROCS(0)}
	for _, kernel := range []Kernel{KernelCell, KernelFace} {
		for _, mode := range []precision.Mode{precision.Min, precision.Full} {
			ref := stateHash(t, kernel, mode, workerCounts[0])
			for _, workers := range workerCounts[1:] {
				if got := stateHash(t, kernel, mode, workers); got != ref {
					t.Errorf("%v/%v: workers=%d state hash %x, workers=1 %x",
						kernel, mode, workers, got, ref)
				}
			}
		}
	}
}

// TestCLAMRStepZeroAlloc asserts the tentpole property: after warm-up the
// step loop allocates nothing, on both kernels, serial and pooled.
func TestCLAMRStepZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name    string
		kernel  Kernel
		workers int
	}{
		{"face/serial", KernelFace, 1},
		{"face/pooled", KernelFace, 4},
		{"cell/serial", KernelCell, 1},
		{"cell/pooled", KernelCell, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				NX: 32, NY: 32, MaxLevel: 1, Kernel: tc.kernel,
				AMRInterval: 0, Workers: tc.workers,
			}
			s, err := NewSolver[float64, float64](cfg, testIC(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(3); err != nil { // warm pool, staging, timer cells
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(20, func() {
				if err := s.Step(); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("steady-state Step allocated %v objects per call", allocs)
			}
		})
	}
}

// BenchmarkCLAMRStep measures the steady-state step (no AMR) for both
// kernels, serial and pooled; allocs/op is the zero-allocation acceptance
// number.
func BenchmarkCLAMRStep(b *testing.B) {
	for _, bc := range []struct {
		name    string
		kernel  Kernel
		workers int
	}{
		{"face/w1", KernelFace, 1},
		{"face/w4", KernelFace, 4},
		{"cell/w1", KernelCell, 1},
		{"cell/w4", KernelCell, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := Config{NX: 128, NY: 128, MaxLevel: 0, Kernel: bc.kernel, AMRInterval: 0, Workers: bc.workers}
			s, err := NewSolver[float64, float64](cfg, testIC(cfg))
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Run(2); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
