package clamr

import (
	"fmt"
	"io"

	"repro/internal/fp16"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/precision"
)

// Runner is the precision-erased interface over Solver instantiations, so
// callers can select the paper's precision modes at run time (the analogue
// of CLAMR's compile options).
type Runner interface {
	// Step advances one timestep; Run advances n.
	Step() error
	Run(n int) error
	// Mesh, Time, StepCount expose simulation state.
	Mesh() *mesh.Mesh
	Time() float64
	StepCount() int
	// HeightF64 widens the height field; Mass and MassError audit
	// conservation with reproducible sums.
	HeightF64() []float64
	Mass() float64
	MassError() float64
	// CheckHealth runs the numerical sentinels (finite state, bounded mass
	// drift); a failure wraps precision.ErrNumericalFailure.
	CheckHealth() error
	// Counters, Timer and StateBytes expose instrumentation.
	Counters() metrics.Counters
	Timer() *metrics.Timer
	StateBytes() uint64
	// WriteCheckpoint serialises the run at storage precision;
	// WriteFieldDump writes a lossy compressed analysis field.
	WriteCheckpoint(w io.Writer) (int64, error)
	WriteFieldDump(w io.Writer, nx, ny, rate int) (int64, error)
}

// New constructs a Runner for the given precision mode:
//
//	Half  — float32 compute with binary16 state demotion each step
//	Min   — float32 storage, float32 compute
//	Mixed — float32 storage, float64 compute
//	Full  — float64 storage, float64 compute
func New(mode precision.Mode, cfg Config, ic InitialCondition) (Runner, error) {
	switch mode {
	case precision.Half:
		inner, err := NewSolver[float32, float32](cfg, ic)
		if err != nil {
			return nil, err
		}
		return newHalfRunner(inner), nil
	case precision.Min:
		return NewSolver[float32, float32](cfg, ic)
	case precision.Mixed:
		return NewSolver[float32, float64](cfg, ic)
	case precision.Full:
		return NewSolver[float64, float64](cfg, ic)
	default:
		return nil, fmt.Errorf("clamr: unknown precision mode %v", mode)
	}
}

// halfRunner stores state in software binary16: it runs the float32 solver
// and rounds the state arrays through fp16 after every step, modelling
// half-precision state arrays with single-precision local computation (the
// (f16, f32) point in the precision ablation).
type halfRunner struct {
	*Solver[float32, float32]
}

// newHalfRunner wraps a freshly constructed min solver: it relabels the
// step-duration metric and demotes the initial state.
func newHalfRunner(inner *Solver[float32, float32]) *halfRunner {
	inner.stepDur = obs.StepDuration("clamr", "half")
	h := &halfRunner{Solver: inner}
	h.demote()
	return h
}

// demote rounds all state arrays through binary16.
func (h *halfRunner) demote() {
	s := h.Solver
	for i := range s.h {
		s.h[i] = fp16.FromFloat32(s.h[i]).Float32()
		s.hu[i] = fp16.FromFloat32(s.hu[i]).Float32()
		s.hv[i] = fp16.FromFloat32(s.hv[i]).Float32()
	}
	s.counters.Conversions += uint64(6 * len(s.h))
}

// Step advances the inner solver and re-demotes storage.
func (h *halfRunner) Step() error {
	if err := h.Solver.Step(); err != nil {
		return err
	}
	h.demote()
	return nil
}

// Run advances n steps with per-step demotion.
func (h *halfRunner) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := h.Step(); err != nil {
			return err
		}
	}
	return nil
}

// CheckHealth loosens the mass-drift tolerance to binary16's quantization
// scale: per-step fp16 demotion walks total mass by ~2⁻¹¹ relative per
// step, so the float32 threshold would flag healthy half-precision runs.
func (h *halfRunner) CheckHealth() error {
	return h.Solver.checkHealthTol(5e-2)
}

// StateBytes reports the binary16 footprint of the state arrays (half the
// float32 working copies the adapter carries).
func (h *halfRunner) StateBytes() uint64 {
	s := h.Solver
	inner := s.StateBytes()
	// Replace the 3 float32 state arrays (4 bytes/elem) with f16 (2).
	return inner - uint64(len(s.h))*3*2
}

// WriteCheckpoint writes the state arrays as binary16 payloads.
func (h *halfRunner) WriteCheckpoint(w io.Writer) (int64, error) {
	s := h.Solver
	cw := newCheckpointWriter(w, s)
	cw.AddF16("h", fp16.FromSlice32(s.h))
	cw.AddF16("hu", fp16.FromSlice32(s.hu))
	cw.AddF16("hv", fp16.FromSlice32(s.hv))
	n, err := cw.Flush()
	if err != nil {
		return n, err
	}
	s.counters.StoreBytes += uint64(n)
	return n, nil
}
