package repro

// One benchmark per table and figure of the paper's evaluation section —
// `go test -bench 'Table|Fig'` regenerates every result at quick scale —
// plus the ablation benches DESIGN.md calls out. Per-iteration custom
// metrics surface the quantities the paper reports (speedups, orders of
// magnitude, savings) so `-bench` output is itself a results summary.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/clamr"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/precision"
	"repro/internal/reduce"
)

// benchExperiment runs one experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := NewSession(QuickScale)
		if _, err := s.RunExperiment(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1CLAMRRuntimeMemory regenerates Table I.
func BenchmarkTable1CLAMRRuntimeMemory(b *testing.B) {
	var titanSpeedup, haswellSpeedup float64
	for i := 0; i < b.N; i++ {
		s := NewSession(QuickScale)
		_, workloads, err := s.clamrWorkloads()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range arch.Table(CLAMRPlatforms, workloads) {
			switch row.Arch {
			case "GTX TITAN X":
				titanSpeedup = row.Speedup
			case "Haswell":
				haswellSpeedup = row.Speedup
			}
		}
	}
	b.ReportMetric(titanSpeedup, "titanX-speedup")
	b.ReportMetric(haswellSpeedup, "haswell-speedup")
}

// BenchmarkTable2CLAMREnergy regenerates Table II.
func BenchmarkTable2CLAMREnergy(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3Vectorization regenerates Table III: finite_diff host
// times per kernel × precision plus checkpoint sizes.
func BenchmarkTable3Vectorization(b *testing.B) {
	var minVec, fullVec, ckptRatio float64
	for i := 0; i < b.N; i++ {
		s := NewSession(QuickScale)
		rMinV, err := s.runCLAMR(Min, clamr.KernelFace, false)
		if err != nil {
			b.Fatal(err)
		}
		rFullV, err := s.runCLAMR(Full, clamr.KernelFace, false)
		if err != nil {
			b.Fatal(err)
		}
		minVec = rMinV.FiniteDiffTime.Seconds()
		fullVec = rFullV.FiniteDiffTime.Seconds()
		ckptRatio = float64(rMinV.CheckpointBytes) / float64(rFullV.CheckpointBytes)
	}
	b.ReportMetric(fullVec/math.Max(minVec, 1e-12), "vec-full/min-time")
	b.ReportMetric(ckptRatio, "ckpt-min/full")
}

// BenchmarkTable4CompilerProfiles regenerates Table IV.
func BenchmarkTable4CompilerProfiles(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkTable5SELFRuntimeMemory regenerates Table V.
func BenchmarkTable5SELFRuntimeMemory(b *testing.B) {
	var titanSpeedup float64
	for i := 0; i < b.N; i++ {
		s := NewSession(QuickScale)
		_, workloads, err := s.selfWorkloads()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range arch.Table(SELFPlatforms, workloads) {
			if row.Arch == "GTX TITAN X" {
				titanSpeedup = row.Speedup
			}
		}
	}
	b.ReportMetric(titanSpeedup, "titanX-speedup")
}

// BenchmarkTable6SELFEnergy regenerates Table VI.
func BenchmarkTable6SELFEnergy(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkTable7CostModel regenerates Table VII.
func BenchmarkTable7CostModel(b *testing.B) { benchExperiment(b, "table7") }

// BenchmarkFig1LineCuts regenerates Figure 1 and reports the
// orders-of-magnitude separation between solution and precision diffs.
func BenchmarkFig1LineCuts(b *testing.B) {
	var orders float64
	for i := 0; i < b.N; i++ {
		s := NewSession(QuickScale)
		out, err := s.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		orders = analysis.OrdersBelow(out.Series[3], out.Series[0]) // Full-Min vs Full
	}
	b.ReportMetric(orders, "full-min-orders-below")
}

// BenchmarkFig2Asymmetry regenerates Figure 2.
func BenchmarkFig2Asymmetry(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3ResolutionTrade regenerates Figure 3.
func BenchmarkFig3ResolutionTrade(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4SELFLineCut regenerates Figure 4.
func BenchmarkFig4SELFLineCut(b *testing.B) {
	var orders float64
	for i := 0; i < b.N; i++ {
		s := NewSession(QuickScale)
		out, err := s.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		orders = analysis.OrdersBelow(out.Series[2], out.Series[0])
	}
	b.ReportMetric(orders, "single-double-orders-below")
}

// BenchmarkFig5SELFAsymmetry regenerates Figure 5.
func BenchmarkFig5SELFAsymmetry(b *testing.B) { benchExperiment(b, "fig5") }

// --- Ablation benches (DESIGN.md §4) ---

// BenchmarkAblationReduce sweeps the global-sum algorithms on an
// ill-conditioned instance, reporting recovered digits — the paper §III.C
// "7 digits → 15 digits" trade against throughput.
func BenchmarkAblationReduce(b *testing.B) {
	xs, exact := reduce.IllConditioned(1<<16, 1e9, 7)
	for _, m := range reduce.Methods {
		b.Run(m.String(), func(b *testing.B) {
			b.SetBytes(int64(len(xs) * 8))
			var got float64
			for i := 0; i < b.N; i++ {
				got = reduce.Sum(xs, m)
			}
			digits := 17.0
			if rel := math.Abs(got-exact) / math.Abs(exact); rel > 0 {
				digits = math.Min(17, -math.Log10(rel))
			}
			b.ReportMetric(digits, "digits")
		})
	}
}

// BenchmarkAblationHalf sweeps the storage/compute precision pairs on the
// dam break, reporting each mode's deviation from full precision — the
// (f16, f32) point shows where the paper's "reduce as far as one can"
// bottoms out.
func BenchmarkAblationHalf(b *testing.B) {
	cfg := clamr.Config{NX: 32, NY: 32, MaxLevel: 0, Kernel: clamr.KernelFace, AMRInterval: 0}
	ic := clamr.DamBreak(mesh.UnitBounds, 10, 2, 0.15, 0.05)
	reference := func() []float64 {
		r, err := clamr.New(precision.Full, cfg, ic)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Run(40); err != nil {
			b.Fatal(err)
		}
		return r.HeightF64()
	}()
	for _, mode := range []precision.Mode{precision.Half, precision.Min, precision.Mixed} {
		b.Run(mode.String(), func(b *testing.B) {
			var maxDiff float64
			for i := 0; i < b.N; i++ {
				r, err := clamr.New(mode, cfg, ic)
				if err != nil {
					b.Fatal(err)
				}
				if err := r.Run(40); err != nil {
					b.Fatal(err)
				}
				hs := r.HeightF64()
				maxDiff = 0
				for j := range hs {
					if d := math.Abs(hs[j] - reference[j]); d > maxDiff {
						maxDiff = d
					}
				}
			}
			b.ReportMetric(math.Log10(10/math.Max(maxDiff, 1e-18)), "orders-below")
		})
	}
}

// BenchmarkAblationLane compares the cell-centric and face-centric kernels
// across grid sizes: where does the memory-lean "vectorized" layout pull
// ahead?
func BenchmarkAblationLane(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		for _, kernel := range []clamr.Kernel{clamr.KernelCell, clamr.KernelFace} {
			name := fmt.Sprintf("n%d/%s", n, kernel)
			b.Run(name, func(b *testing.B) {
				cfg := clamr.Config{NX: n, NY: n, MaxLevel: 0, Kernel: kernel, AMRInterval: 0}
				r, err := clamr.New(precision.Min, cfg, clamr.DamBreak(mesh.UnitBounds, 10, 2, 0.15, 0.05))
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := r.Step(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(r.Mesh().NumCells()), "cells")
			})
		}
	}
}

// BenchmarkAblationAMR checks whether adaptivity changes the precision
// sensitivity: deviation of Min from Full with and without refinement.
func BenchmarkAblationAMR(b *testing.B) {
	for _, amr := range []bool{false, true} {
		name := map[bool]string{false: "uniform", true: "amr"}[amr]
		b.Run(name, func(b *testing.B) {
			cfg := clamr.Config{NX: 32, NY: 32, Kernel: clamr.KernelFace}
			if amr {
				cfg.MaxLevel = 2
				cfg.AMRInterval = 10
			}
			var orders float64
			for i := 0; i < b.N; i++ {
				full, err := core.RunCLAMROpts(precision.Full, cfg, 40, 64, core.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				min, err := core.RunCLAMROpts(precision.Min, cfg, 40, 64, core.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				diff := analysis.Diff(full.LineCut, min.LineCut)
				orders = analysis.OrdersBelow(diff, full.LineCut)
			}
			b.ReportMetric(orders, "orders-below")
		})
	}
}
