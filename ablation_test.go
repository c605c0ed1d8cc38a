package repro

// Ablations for the extension substrates: zfp-style checkpoint compression
// (the storage trade the paper's §VI declines to model, citing [34]) and
// fork-join worker scaling.

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/clamr"
	"repro/internal/cost"
	"repro/internal/mesh"
	"repro/internal/precision"
	"repro/internal/zfp"
)

// BenchmarkAblationCompression compresses a dam-break height field at
// several rates, reporting compression factor vs full-precision storage
// and the introduced error — the data behind a compressed-checkpoint
// column for Table VII.
func BenchmarkAblationCompression(b *testing.B) {
	cfg := clamr.Config{NX: 64, NY: 64, MaxLevel: 1, Kernel: clamr.KernelFace, AMRInterval: 15}
	r, err := clamr.New(precision.Full, cfg, clamr.DamBreak(mesh.UnitBounds, 10, 2, 0.15, 0.05))
	if err != nil {
		b.Fatal(err)
	}
	if err := r.Run(80); err != nil {
		b.Fatal(err)
	}
	const raster = 128
	field, err := r.Mesh().Rasterize(r.HeightF64(), raster, raster)
	if err != nil {
		b.Fatal(err)
	}
	scale := 0.0
	for _, v := range field {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	for _, rate := range []int{8, 16} {
		name := map[int]string{8: "rate8", 16: "rate16"}[rate]
		b.Run(name, func(b *testing.B) {
			var buf []byte
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = zfp.Compress2D(field, raster, raster, rate)
				if err != nil {
					b.Fatal(err)
				}
			}
			got, _, _, err := zfp.Decompress2D(buf)
			if err != nil {
				b.Fatal(err)
			}
			maxErr := 0.0
			for i := range field {
				if d := math.Abs(field[i] - got[i]); d > maxErr {
					maxErr = d
				}
			}
			ratio := float64(raster*raster*8) / float64(len(buf))
			b.ReportMetric(ratio, "compression-x")
			b.ReportMetric(math.Log10(scale/maxErr), "orders-below")
			// Storage-cost impact under the paper's CLAMR scenario.
			plain, _ := cost.AWS2017.Cost(cost.PaperCLAMRScenario(31.3, 0.128))
			compressed, _ := cost.AWS2017.Cost(cost.PaperCLAMRScenario(31.3, 0.128/ratio))
			b.ReportMetric(100*(1-compressed.Storage/plain.Storage), "storage-saving-%")
		})
	}
}

// BenchmarkAblationWorkers measures the parallel scaling of CLAMR's
// cell-centric kernel, the finite-difference sweep Workers chunks (fork-join
// over fixed chunks; bit-identical results; the face kernel is serial by
// construction). SELF's scaling is BenchmarkSELFStep in internal/self. The
// gomaxprocs metric records the host parallelism: on a single-core machine
// extra workers can only add synchronisation overhead — the feature's
// guarantee is determinism, the speedup needs cores.
func BenchmarkAblationWorkers(b *testing.B) {
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	for _, workers := range []int{1, 4} {
		name := map[int]string{1: "clamr-w1", 4: "clamr-w4"}[workers]
		b.Run(name, func(b *testing.B) {
			cfg := clamr.Config{NX: 128, NY: 128, Kernel: clamr.KernelCell, Workers: workers}
			r, err := clamr.New(precision.Full, cfg, clamr.DamBreak(mesh.UnitBounds, 10, 2, 0.15, 0.05))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
