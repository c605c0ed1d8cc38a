// Package repro is a from-scratch Go reproduction of "Thoughtful Precision
// in Mini-apps" (Fogerty et al., IEEE CLUSTER 2017): two DOE-style
// mini-apps — a cell-based AMR shallow-water code in the mold of CLAMR and
// a 3-D spectral element compressible-flow code in the mold of SELF — run
// at selectable precision (half/minimum/mixed/full), instrumented for
// operation counts and memory traffic, projected onto the paper's CPU/GPU
// test matrix by a roofline machine model, and assessed for solution
// fidelity, energy and cloud cost.
//
// This root package is the experiment harness that regenerates every
// table and figure of the paper's evaluation section (experiments.go,
// driven by cmd/paperbench and bench_test.go). DESIGN.md §2 maps the
// internal packages.
package repro

import (
	"repro/internal/arch"
	"repro/internal/precision"
)

// Mode re-exports the precision mode type.
type Mode = precision.Mode

// The precision modes the paper's tables compare (see internal/precision
// for the storage/compute pairs).
const (
	Min   = precision.Min
	Mixed = precision.Mixed
	Full  = precision.Full
)

// Modes lists the paper's three CLAMR modes.
var Modes = precision.Modes

// Platform specifications of the paper's test matrix.
var (
	CLAMRPlatforms = arch.CLAMRSpecs
	SELFPlatforms  = arch.SELFSpecs
)
