// Package repro is a from-scratch Go reproduction of "Thoughtful Precision
// in Mini-apps" (Fogerty et al., IEEE CLUSTER 2017): two DOE-style
// mini-apps — a cell-based AMR shallow-water code in the mold of CLAMR and
// a 3-D spectral element compressible-flow code in the mold of SELF — run
// at selectable precision (half/minimum/mixed/full), instrumented for
// operation counts and memory traffic, projected onto the paper's CPU/GPU
// test matrix by a roofline machine model, and assessed for solution
// fidelity, energy and cloud cost.
//
// This root package is the public facade: it re-exports the precision
// vocabulary, the two mini-app constructors, the study runners, and the
// experiment harness that regenerates every table and figure of the
// paper's evaluation section (see bench_test.go and cmd/paperbench).
//
// Layout:
//
//	internal/fp16      software IEEE binary16
//	internal/precision precision modes and error metrics
//	internal/reduce    reproducible global sums (§III.C)
//	internal/mesh      cell-based quadtree AMR with hash neighbor finding
//	internal/clamr     shallow-water mini-app (CLAMR analogue)
//	internal/spectral  Legendre/GLL spectral-element machinery
//	internal/self      compressible-flow SEM mini-app (SELF analogue)
//	internal/arch      roofline models of the paper's platforms
//	internal/compiler  GNU/Intel code-generation profiles (Table IV)
//	internal/cost      AWS cost model (Table VII)
//	internal/analysis  line cuts, differences, asymmetry (Figures 1–5)
//	internal/core      study orchestration and precision heuristics
package repro

import (
	"repro/internal/arch"
	"repro/internal/clamr"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/precision"
	"repro/internal/self"
)

// Mode re-exports the precision mode type.
type Mode = precision.Mode

// Precision modes (see internal/precision for the storage/compute pairs).
const (
	Half  = precision.Half
	Min   = precision.Min
	Mixed = precision.Mixed
	Full  = precision.Full
)

// Modes lists the paper's three CLAMR modes; AllModes is the full
// precision ladder, which adds Half below them.
var (
	Modes    = precision.Modes
	AllModes = precision.Ladder
)

// ParseMode parses a mode name ("min", "mixed", "full", "half", plus
// "single"/"double" aliases).
func ParseMode(s string) (Mode, error) { return precision.Parse(s) }

// CLAMRConfig and SELFConfig re-export the mini-app configurations.
type (
	CLAMRConfig = clamr.Config
	SELFConfig  = self.Config
)

// CLAMRRunner and SELFRunner re-export the precision-erased mini-app
// interfaces.
type (
	CLAMRRunner = clamr.Runner
	SELFRunner  = self.Runner
)

// Kernel selection for the CLAMR finite-difference study (Table III).
const (
	KernelUnvectorized = clamr.KernelCell
	KernelVectorized   = clamr.KernelFace
)

// NewDamBreak builds a CLAMR runner on the paper's cylindrical dam-break
// problem at the given precision.
func NewDamBreak(mode Mode, cfg CLAMRConfig) (CLAMRRunner, error) {
	b := cfg.Bounds
	if b == (mesh.Bounds{}) {
		b = mesh.UnitBounds
		cfg.Bounds = b
	}
	ic := clamr.DamBreak(b, 10, 2, 0.15*b.Width(), 0.05*b.Width())
	return clamr.New(mode, cfg, ic)
}

// NewThermalBubble builds a SELF runner on the paper's rising warm-blob
// problem at the given precision.
func NewThermalBubble(mode Mode, cfg SELFConfig) (SELFRunner, error) {
	return self.New(mode, cfg)
}

// RunCLAMRStudy and RunSELFStudy re-export the instrumented study runners.
var (
	RunCLAMRStudy = core.RunCLAMR
	RunSELFStudy  = core.RunSELF
)

// CLAMRResult and SELFResult re-export the study result types.
type (
	CLAMRResult = core.CLAMRResult
	SELFResult  = core.SELFResult
)

// RecommendMode re-exports the paper's §VIII precision-choice heuristic.
var RecommendMode = core.RecommendMode

// Platform specifications of the paper's test matrix.
var (
	CLAMRPlatforms = arch.CLAMRSpecs
	SELFPlatforms  = arch.SELFSpecs
)
