// Package clamr implements a cell-based AMR shallow-water mini-app modeled
// on LANL's CLAMR: the hydrodynamics the paper runs its CLAMR precision
// study on. The solver integrates the 2-D shallow water equations with a
// finite-volume Rusanov scheme on the quadtree mesh of internal/mesh,
// refining on height gradients, with reflective walls — the cylindrical
// dam-break configuration of the paper's §V.A.
//
// Precision follows the paper's compile options exactly, expressed as the
// two generic parameters of Solver[S, C]: S is the storage type of the
// large physical state arrays and C the type local calculations promote to.
//
//	Min   — Solver[float32, float32]
//	Mixed — Solver[float32, float64]
//	Full  — Solver[float64, float64]
//
// Two interchangeable implementations of the dominant finite-difference
// kernel are provided (the paper's Table III vectorization study): a
// cell-centric scalar kernel that gathers neighbors per cell and computes
// each face flux twice (the "unvectorized" profile), and a face-centric
// kernel over precomputed SoA face lists that evaluates each flux once (the
// "vectorized" profile).
package clamr

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/precision"
	"repro/internal/reduce"
)

// Kernel selects the finite-difference implementation.
type Kernel int

const (
	// KernelCell is the cell-centric scalar kernel ("unvectorized").
	KernelCell Kernel = iota
	// KernelFace is the face-centric SoA kernel ("vectorized").
	KernelFace
)

// String names the kernel as the vectorization study labels it.
func (k Kernel) String() string {
	if k == KernelFace {
		return "vectorized"
	}
	return "unvectorized"
}

// Config describes a CLAMR run.
type Config struct {
	// NX, NY are the coarse-grid dimensions.
	NX, NY int
	// MaxLevel is the number of AMR levels above the coarse grid.
	MaxLevel int
	// Bounds is the physical domain; zero value means [0,1]².
	Bounds mesh.Bounds
	// Gravity is the gravitational acceleration (default 9.80).
	Gravity float64
	// Courant is the CFL number (default 0.25).
	Courant float64
	// Kernel selects the finite-difference implementation.
	Kernel Kernel
	// AMRInterval is the number of steps between mesh adaptations;
	// 0 disables AMR after initial refinement.
	AMRInterval int
	// RefineTol and CoarsenTol are relative height-jump thresholds for
	// refinement and coarsening (defaults 0.02 and 0.004).
	RefineTol, CoarsenTol float64
	// InitialAdaptPasses refines the initial condition this many times so
	// the starting mesh resolves the dam wall (default MaxLevel).
	InitialAdaptPasses int
	// Workers runs the chunk-safe passes — the CFL scan, the cell-centric
	// sweep and its update, AMR flagging — fork-join parallel over this
	// many chunks (≤1 = serial; 0 is normalised to 1), dispatched on the
	// shared persistent par pool. They are bit-identical to the serial
	// passes at any worker count (disjoint writes; exact min-reduction).
	// The face-centric sweep is always serial: its face order is part of
	// the result.
	Workers int
	// DryTol is the dry-cell height floor: cells with h ≤ DryTol are
	// treated as dry in the CFL scan, and flux velocity divisions clamp
	// their denominator to at least DryTol, so a subnormal-but-positive
	// height at reduced compute precision cannot overflow hu/h. Zero
	// selects a precision-appropriate default (1e-6 for float32 compute,
	// 1e-12 for float64); negative disables the floor entirely (the bare
	// h ≤ 0 guard of the original kernels).
	DryTol float64
}

func (c *Config) setDefaults() {
	if c.Bounds == (mesh.Bounds{}) {
		c.Bounds = mesh.UnitBounds
	}
	if c.Gravity == 0 {
		c.Gravity = 9.80
	}
	if c.Courant == 0 {
		c.Courant = 0.25
	}
	if c.RefineTol == 0 {
		c.RefineTol = 0.02
	}
	if c.CoarsenTol == 0 {
		c.CoarsenTol = 0.004
	}
	if c.InitialAdaptPasses == 0 {
		c.InitialAdaptPasses = c.MaxLevel
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
}

// InitialCondition maps a physical point to primitive state
// (height, x-velocity, y-velocity).
type InitialCondition func(x, y float64) (h, u, v float64)

// DamBreak returns the paper's cylindrical dam-break initial condition: a
// column of height hIn and radius r centered in the domain over a
// background of height hOut, with a smooth transition of width w to keep
// the initial data resolvable (w ≤ 0 selects a sharp step).
func DamBreak(b mesh.Bounds, hIn, hOut, r, w float64) InitialCondition {
	cx := (b.XMin + b.XMax) / 2
	cy := (b.YMin + b.YMax) / 2
	return func(x, y float64) (float64, float64, float64) {
		d := math.Hypot(x-cx, y-cy)
		if w <= 0 {
			if d < r {
				return hIn, 0, 0
			}
			return hOut, 0, 0
		}
		h := hOut + (hIn-hOut)*0.5*(1-math.Tanh((d-r)/w))
		return h, 0, 0
	}
}

// Solver integrates the shallow water equations with storage precision S
// and compute precision C.
type Solver[S, C precision.Real] struct {
	cfg  Config
	mesh *mesh.Mesh

	// Conserved state: height, x-momentum, y-momentum (the "large physical
	// state arrays" the paper's mixed mode keeps in single precision).
	h, hu, hv []S
	// RHS accumulators. Stored at storage precision like every other large
	// array (the paper's mixed mode promotes only local calculations);
	// flux arithmetic happens in C and rounds on accumulation.
	dh, dhu, dhv []S

	faces     faceList[C]
	time      float64
	step      int
	counters  metrics.Counters
	timer     *metrics.Timer
	alloc     *metrics.AllocTracker
	massDrift float64 // |mass(t)-mass(0)| / mass(0), updated by MassError
	mass0     float64

	// Parallel runtime: the shared persistent pool, a reusable reduction
	// for the CFL scan, and kernels prebound once at construction so the
	// steady-state step loop dispatches without allocating. Per-dispatch
	// parameters travel through curDT.
	pool      *par.Pool
	dtRed     *par.Reducer[float64]
	curDT     C
	dry       C // dry-cell height floor at compute precision
	parUpdate func(lo, hi int)
	parCell   func(lo, hi int)
	parFlag   func(lo, hi int)
	dtProduce func(lo, hi int) float64

	// AMR scratch reused across adaptations: the flag buffer and the
	// ping-pong state buffers ApplyRemapInto writes into.
	flags              []mesh.RefineFlag
	hAlt, huAlt, hvAlt []S
	prolong            func(S) [4]S
	restrict           func([4]S) S

	// Preresolved timer buckets (allocation-free phase timing).
	phDT, phFD, phAMR metrics.PhaseCell
	// Preresolved per-step duration histogram in the process-wide obs
	// registry (allocation-free Observe; served at precisiond's /metrics).
	stepDur *obs.Histogram
}

// NewSolver creates a solver and applies the initial condition, including
// the initial adaptation passes.
func NewSolver[S, C precision.Real](cfg Config, ic InitialCondition) (*Solver[S, C], error) {
	cfg.setDefaults()
	m, err := mesh.New(cfg.NX, cfg.NY, cfg.MaxLevel, cfg.Bounds)
	if err != nil {
		return nil, fmt.Errorf("clamr: %w", err)
	}
	s := &Solver[S, C]{
		cfg:   cfg,
		mesh:  m,
		timer: metrics.NewTimer(),
		alloc: metrics.NewAllocTracker(),
	}
	s.initRuntime()
	s.applyIC(ic)
	// Refine the initial condition so the dam wall is resolved at the
	// finest level before time stepping begins.
	for pass := 0; pass < cfg.InitialAdaptPasses; pass++ {
		if err := s.adapt(); err != nil {
			return nil, err
		}
		s.applyIC(ic) // re-evaluate analytically on the finer mesh
	}
	s.rebuildWorkspace()
	s.mass0 = s.Mass()
	return s, nil
}

// initRuntime wires the solver to the shared persistent pool and sets up
// everything the allocation-free step loop needs: the reusable CFL
// reduction, preresolved timer cells, the dry floor, the remap operators,
// and the prebound parallel kernels. Both construction paths (NewSolver and
// checkpoint restore) call it.
func (s *Solver[S, C]) initRuntime() {
	s.pool = par.Default()
	s.dtRed = par.NewReducer[float64](s.pool)
	s.phDT = s.timer.Cell("timestep")
	s.phFD = s.timer.Cell("finite_diff")
	s.phAMR = s.timer.Cell("amr")
	s.stepDur = obs.StepDuration("clamr", modeLabel[S, C]())
	switch {
	case s.cfg.DryTol > 0:
		s.dry = C(s.cfg.DryTol)
	case s.cfg.DryTol < 0:
		s.dry = 0
	default:
		if precision.Sizeof[C]() == 4 {
			s.dry = C(1e-6)
		} else {
			s.dry = C(1e-12)
		}
	}
	s.prolong = mesh.InjectProlong[S]()
	s.restrict = mesh.MeanRestrict[S]()
	s.bindKernels()
}

// applyIC evaluates the initial condition at every cell center.
func (s *Solver[S, C]) applyIC(ic InitialCondition) {
	n := s.mesh.NumCells()
	s.h = make([]S, n)
	s.hu = make([]S, n)
	s.hv = make([]S, n)
	for i := 0; i < n; i++ {
		x, y := s.mesh.Center(i)
		h, u, v := ic(x, y)
		s.h[i] = S(h)
		s.hu[i] = S(h * u)
		s.hv[i] = S(h * v)
	}
}

// rebuildWorkspace resizes scratch arrays and the face list after the mesh
// changes, and refreshes the memory accounting. All buffers are grow-only
// and the face list rebuilds into its existing backing arrays, so at steady
// state (and across adaptations that do not grow the mesh) the workspace
// allocates nothing.
func (s *Solver[S, C]) rebuildWorkspace() {
	n := s.mesh.NumCells()
	s.dh = growSlice(s.dh, n)
	s.dhu = growSlice(s.dhu, n)
	s.dhv = growSlice(s.dhv, n)
	s.faces.rebuild(s.mesh)

	sBytes := uint64(precision.Sizeof[S]())
	cBytes := uint64(precision.Sizeof[C]())
	for _, label := range []string{"state", "rhs", "mesh", "faces"} {
		s.alloc.Release(label, ^uint64(0))
	}
	s.alloc.Register("state", 3*uint64(n)*sBytes)
	s.alloc.Register("rhs", 3*uint64(n)*sBytes)
	s.alloc.Register("mesh", uint64(n)*uint64(9+8)) // cells + hash entry estimate
	nFaces := uint64(len(s.faces.xl) + len(s.faces.yb) + len(s.faces.bCell))
	s.alloc.Register("faces", nFaces*(2*4+cBytes)+uint64(n)*cBytes)
}

// growSlice returns a slice of length n, reusing xs's backing array when
// its capacity suffices. Contents are unspecified; callers overwrite fully.
func growSlice[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	return xs[:n]
}

// Mesh exposes the underlying AMR mesh.
func (s *Solver[S, C]) Mesh() *mesh.Mesh { return s.mesh }

// Time returns the current simulation time.
func (s *Solver[S, C]) Time() float64 { return s.time }

// StepCount returns the number of completed steps.
func (s *Solver[S, C]) StepCount() int { return s.step }

// Counters returns the accumulated operation counts.
func (s *Solver[S, C]) Counters() metrics.Counters { return s.counters }

// Timer returns the phase timer (buckets: finite_diff, timestep, amr).
func (s *Solver[S, C]) Timer() *metrics.Timer { return s.timer }

// StateBytes returns the tracked resident memory of the solver.
func (s *Solver[S, C]) StateBytes() uint64 { return s.alloc.Current() }

// HeightF64 returns the cell heights widened to float64.
func (s *Solver[S, C]) HeightF64() []float64 {
	out := make([]float64, len(s.h))
	for i, v := range s.h {
		out[i] = float64(v)
	}
	return out
}

// VelocityF64 returns cell velocities (u, v) widened to float64.
func (s *Solver[S, C]) VelocityF64() (u, v []float64) {
	u = make([]float64, len(s.h))
	v = make([]float64, len(s.h))
	for i := range s.h {
		h := float64(s.h[i])
		if h > 0 {
			u[i] = float64(s.hu[i]) / h
			v[i] = float64(s.hv[i]) / h
		}
	}
	return u, v
}

// Mass returns the total water volume ∑ h·A computed with the reproducible
// summation of internal/reduce — the paper's §III.C practice of raising the
// precision of global sums while the rest of the computation runs reduced.
func (s *Solver[S, C]) Mass() float64 {
	terms := make([]float64, len(s.h))
	for i := range s.h {
		terms[i] = float64(s.h[i]) * s.mesh.Area(i)
	}
	return reduce.SumReproducible(terms)
}

// MassError returns |mass(t) − mass(0)| / mass(0).
func (s *Solver[S, C]) MassError() float64 {
	if s.mass0 == 0 {
		return 0
	}
	s.massDrift = math.Abs(s.Mass()-s.mass0) / s.mass0
	return s.massDrift
}

// massTol is the conservation-drift sentinel threshold at storage width.
// These are blow-up detectors, not precision audits: orders of magnitude
// above healthy drift at each width, so a legitimate reduced-precision run
// never trips them while a diverging one does within a guard interval.
func (s *Solver[S, C]) massTol() float64 {
	if precision.Sizeof[S]() == 4 {
		return 1e-2
	}
	return 1e-6
}

// CheckHealth is the step loop's numerical sentinel: every state value must
// be finite and total mass must remain within the storage precision's drift
// tolerance. Failures wrap precision.ErrNumericalFailure so the serving
// layer can escalate the precision mode instead of retrying blindly. Cost
// is one pass over the state arrays plus a reproducible mass sum, so it is
// meant to run every few steps, not every step.
func (s *Solver[S, C]) CheckHealth() error {
	return s.checkHealthTol(s.massTol())
}

func (s *Solver[S, C]) checkHealthTol(massTol float64) error {
	for i := range s.h {
		h, hu, hv := float64(s.h[i]), float64(s.hu[i]), float64(s.hv[i])
		if !isFinite(h) || !isFinite(hu) || !isFinite(hv) {
			return fmt.Errorf("clamr: step %d: non-finite state at cell %d (h=%g hu=%g hv=%g): %w",
				s.step, i, h, hu, hv, precision.ErrNumericalFailure)
		}
	}
	if drift := s.MassError(); drift > massTol {
		return fmt.Errorf("clamr: step %d: mass drift %.3g exceeds tolerance %.3g: %w",
			s.step, drift, massTol, precision.ErrNumericalFailure)
	}
	return nil
}

func isFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// Step advances one timestep: dt from the CFL condition, the finite
// difference sweep, and (on schedule) mesh adaptation.
func (s *Solver[S, C]) Step() error {
	startStep := time.Now()
	dt := s.computeDT()
	if !(dt > 0) || math.IsInf(dt, 0) {
		return fmt.Errorf("clamr: step %d: non-positive or non-finite dt %g (state blew up?): %w",
			s.step, dt, precision.ErrNumericalFailure)
	}
	startFD := time.Now()
	switch s.cfg.Kernel {
	case KernelFace:
		s.finiteDiffFace(C(dt))
	default:
		s.finiteDiffCell(C(dt))
	}
	s.phFD.Observe(startFD)
	s.time += dt
	s.step++
	if s.cfg.AMRInterval > 0 && s.step%s.cfg.AMRInterval == 0 {
		startAMR := time.Now()
		err := s.adapt()
		s.rebuildWorkspace()
		s.phAMR.Observe(startAMR)
		if err != nil {
			s.stepDur.ObserveSince(startStep)
			return err
		}
	}
	s.stepDur.ObserveSince(startStep)
	return nil
}

// Run advances n steps.
func (s *Solver[S, C]) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// computeDT evaluates the CFL timestep at compute precision C via the
// reusable pooled min-reduction (exact minimum — bit-identical at every
// worker count). Cells at or below the dry floor are skipped.
func (s *Solver[S, C]) computeDT() float64 {
	start := time.Now()
	n := s.mesh.NumCells()
	minRatio := s.dtRed.Reduce(s.cfg.Workers, n, s.dtProduce, math.Min, math.Inf(1))
	s.counters.LoadBytes += uint64(n) * 3 * uint64(precision.Sizeof[S]())
	s.counters.AddFlops(precision.Sizeof[C](), uint64(n)*8)
	s.counters.AddTranscendental(precision.Sizeof[C](), uint64(n))
	s.phDT.Observe(start)
	return s.cfg.Courant * minRatio
}

// bindKernels binds the range kernels as method values once, so repeated
// dispatch on the pool allocates nothing. The kernels read per-dispatch
// parameters (curDT, the current face list, the flag buffer) through the
// solver.
func (s *Solver[S, C]) bindKernels() {
	s.parUpdate = s.update
	s.parCell = s.cellSweep
	s.dtProduce = s.cflRatio
	s.parFlag = s.flagCells
}

// update advances cells [lo, hi) by curDT times their accumulated RHS.
func (s *Solver[S, C]) update(lo, hi int) {
	dt := s.curDT
	fl := &s.faces
	for i := lo; i < hi; i++ {
		coef := dt * fl.invArea[i]
		s.h[i] = S(C(s.h[i]) + coef*C(s.dh[i]))
		s.hu[i] = S(C(s.hu[i]) + coef*C(s.dhu[i]))
		s.hv[i] = S(C(s.hv[i]) + coef*C(s.dhv[i]))
	}
}

// cellSweep accumulates the cell-centric RHS of cells [lo, hi).
func (s *Solver[S, C]) cellSweep(lo, hi int) {
	g := C(s.cfg.Gravity)
	m := s.mesh
	for i := lo; i < hi; i++ {
		s.cellRHS(m, g, i)
	}
}

// cflRatio returns the smallest cell-size / wave-speed ratio over the wet
// cells of [lo, hi), at compute precision.
func (s *Solver[S, C]) cflRatio(lo, hi int) float64 {
	g := C(s.cfg.Gravity)
	m := math.Inf(1)
	for i := lo; i < hi; i++ {
		h := C(s.h[i])
		if h <= s.dry {
			continue
		}
		u := C(s.hu[i]) / h
		v := C(s.hv[i]) / h
		c := C(math.Sqrt(float64(g * h)))
		dx, dy := s.mesh.CellSize(s.mesh.Cell(i).Level)
		rx := dx / float64(precision.Abs(u)+c)
		ry := dy / float64(precision.Abs(v)+c)
		if rx < m {
			m = rx
		}
		if ry < m {
			m = ry
		}
	}
	return m
}

// flagCells marks cells [lo, hi) for refinement or coarsening on their
// largest relative height jump to a neighbor.
func (s *Solver[S, C]) flagCells(lo, hi int) {
	for i := lo; i < hi; i++ {
		hi0 := float64(s.h[i])
		maxJump := 0.0
		nb := s.mesh.Neighbors(i)
		for side := mesh.Left; side <= mesh.Top; side++ {
			for _, nIdx := range nb.On(side) {
				if d := math.Abs(float64(s.h[nIdx]) - hi0); d > maxJump {
					maxJump = d
				}
			}
		}
		rel := maxJump / math.Max(hi0, 1e-12)
		var f mesh.RefineFlag
		switch {
		case rel > s.cfg.RefineTol:
			f = mesh.Refine
		case rel < s.cfg.CoarsenTol:
			f = mesh.Coarsen
		}
		s.flags[i] = f
	}
}

// modeLabel maps the storage/compute widths back to the precision-mode
// label the step-duration metric carries. The Half adapter reuses the
// (f32, f32) solver; clamr.New relabels it.
func modeLabel[S, C precision.Real]() string {
	switch {
	case precision.Sizeof[S]() == 8:
		return "full"
	case precision.Sizeof[C]() == 8:
		return "mixed"
	default:
		return "min"
	}
}

// adapt flags cells on relative height jumps (in parallel on the pool) and
// rebuilds state across the resulting remap. The flag buffer and the remap
// destinations are reused: each state array ping-pongs with its *Alt twin,
// so adaptations that do not grow the mesh move no memory through the heap.
func (s *Solver[S, C]) adapt() error {
	n := s.mesh.NumCells()
	s.flags = growSlice(s.flags, n)
	s.pool.ForN(s.cfg.Workers, n, s.parFlag)
	plan, err := s.mesh.Adapt(s.flags)
	if err != nil {
		return fmt.Errorf("clamr: adapt: %w", err)
	}
	s.h, s.hAlt = mesh.ApplyRemapInto(s.hAlt, plan, s.h, s.prolong, s.restrict), s.h
	s.hu, s.huAlt = mesh.ApplyRemapInto(s.huAlt, plan, s.hu, s.prolong, s.restrict), s.hu
	s.hv, s.hvAlt = mesh.ApplyRemapInto(s.hvAlt, plan, s.hv, s.prolong, s.restrict), s.hv
	return nil
}

// newCheckpointWriter starts a checkpoint with the mesh metadata arrays
// (always fixed-width int32) already staged.
func newCheckpointWriter[S, C precision.Real](w io.Writer, s *Solver[S, C]) *checkpoint.Writer {
	cw := checkpoint.NewWriter(w, "clamr", s.step, s.time)
	n := s.mesh.NumCells()
	is := make([]int32, n)
	js := make([]int32, n)
	ls := make([]int32, n)
	for i := 0; i < n; i++ {
		c := s.mesh.Cell(i)
		is[i], js[i], ls[i] = c.I, c.J, int32(c.Level)
	}
	cw.AddI32("cell_i", is)
	cw.AddI32("cell_j", js)
	cw.AddI32("cell_level", ls)
	return cw
}

// WriteFieldDump writes a compressed analysis dump: the height field
// rasterized to nx×ny and encoded with the fixed-rate zfp-style codec at
// `rate` bits per value — the storage-saving option the paper's cost
// section mentions via Lindstrom [34] but leaves unmodeled.
func (s *Solver[S, C]) WriteFieldDump(w io.Writer, nx, ny, rate int) (int64, error) {
	cw := checkpoint.NewWriter(w, "clamr-dump", s.step, s.time)
	field, err := s.mesh.Rasterize(s.HeightF64(), nx, ny)
	if err != nil {
		return 0, fmt.Errorf("clamr: dump: %w", err)
	}
	if err := cw.AddF64Compressed("height", field, nx, ny, rate); err != nil {
		return 0, fmt.Errorf("clamr: dump: %w", err)
	}
	n, err := cw.Flush()
	if err != nil {
		return n, err
	}
	s.counters.StoreBytes += uint64(n)
	return n, nil
}

// WriteCheckpoint serialises mesh and state; state arrays are written at
// the storage precision S, mesh metadata at fixed width — the size model
// behind the paper's Table III checkpoint comparison.
func (s *Solver[S, C]) WriteCheckpoint(w io.Writer) (int64, error) {
	cw := newCheckpointWriter(w, s)
	addState(cw, "h", s.h)
	addState(cw, "hu", s.hu)
	addState(cw, "hv", s.hv)
	nBytes, err := cw.Flush()
	if err != nil {
		return nBytes, err
	}
	s.counters.StoreBytes += uint64(nBytes)
	return nBytes, nil
}

// addState writes a state array at its native storage width.
func addState[S precision.Real](cw *checkpoint.Writer, name string, xs []S) {
	switch any(xs).(type) {
	case []float32:
		cw.AddF32(name, any(xs).([]float32))
	default:
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = float64(x)
		}
		cw.AddF64(name, out)
	}
}
