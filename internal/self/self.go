// Package self implements a 3-D compressible-flow spectral element solver
// modeled on the Spectral Element Libraries in Fortran (SELF), the second
// mini-app of the paper. It solves the compressible Euler equations with
// gravity in the density/momentum/potential-temperature formulation used by
// non-hydrostatic atmospheric SEM codes (the paper's cited Abdi & Giraldo
// configuration), stabilised by a modal cutoff filter — the thermal "warm
// blob rising in a neutrally buoyant fluid" experiment of §V.B.
//
// Discretisation: discontinuous Galerkin spectral elements (DGSEM, strong
// form) on Gauss–Lobatto nodes over a structured hex mesh, Rusanov face
// fluxes, reflective walls, and Williamson's low-storage 3rd-order
// Runge–Kutta in time — a 3rd-order Runge-Kutta integrator as in the paper.
//
// Like the CLAMR twin, the solver is generic over storage type S (the big
// state arrays) and compute type C (local calculations). The paper's SELF
// comparison is Single = (f32,f32) vs Double = (f64,f64); the extra modes
// exist for the precision ablation.
package self

import (
	"fmt"
	"math"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/precision"
	"repro/internal/spectral"
)

// Physical constants (dry air, SI).
const (
	RGas   = 287.0  // gas constant J/(kg·K)
	Cp     = 1004.5 // specific heat at constant pressure
	Cv     = Cp - RGas
	Gamma  = Cp / Cv
	P00    = 1.0e5 // reference surface pressure, Pa
	Grav   = 9.81
	Theta0 = 300.0 // neutral background potential temperature, K
)

// MathMode selects how single-precision transcendental functions are
// generated — the paper's Table IV compiler effect.
type MathMode int

const (
	// MathNative evaluates transcendentals at the compute precision
	// (single-precision kernels for float32) — the Intel-compiler profile.
	MathNative MathMode = iota
	// MathPromoted promotes float32 operands through the float64 libm and
	// converts back — the GNU-compiler profile the paper caught making
	// single precision slower than double.
	MathPromoted
)

// String names the mode after the compiler whose behaviour it models.
func (m MathMode) String() string {
	if m == MathPromoted {
		return "gnu-promoted"
	}
	return "intel-native"
}

// Config describes a SELF run.
type Config struct {
	// Elements is the element count per direction (paper: 20).
	Elements int
	// Order is the polynomial order N; each element has (N+1)³ nodes
	// (paper: 7, i.e. 8×8×8 quadrature points).
	Order int
	// Domain is the cube edge length in metres (default 1000).
	Domain float64
	// DT is the timestep; 0 selects CFL·(stable estimate).
	DT float64
	// CFL for the automatic timestep (default 0.3).
	CFL float64
	// FilterInterval applies the modal filter every k steps (default 1;
	// negative disables).
	FilterInterval int
	// FilterCutoff is the last untouched Legendre mode (default 2N/3).
	FilterCutoff int
	// FilterAlpha and FilterOrder shape the exponential damping
	// (defaults 16 and 4).
	FilterAlpha float64
	FilterOrder int
	// MathMode selects the transcendental code-generation profile.
	MathMode MathMode
	// Workers runs the RHS, update and filter passes fork-join parallel
	// over this many chunks (≤1 = serial; 0 is normalised to 1). All
	// passes write disjoint ranges, so results are bit-identical at any
	// worker count.
	Workers int
	// Bubble parameters: potential-temperature amplitude (K), radius (m)
	// and center; defaults 0.5 K, Domain/4, (L/2, L/2, 0.35L).
	BubbleAmplitude float64
	BubbleRadius    float64
	BubbleCenter    [3]float64
}

func (c *Config) setDefaults() error {
	if c.Elements < 1 {
		return fmt.Errorf("self: element count %d < 1", c.Elements)
	}
	if c.Order < 1 || c.Order > 16 {
		return fmt.Errorf("self: polynomial order %d outside [1,16]", c.Order)
	}
	if c.Domain == 0 {
		c.Domain = 1000
	}
	if c.Domain <= 0 {
		return fmt.Errorf("self: domain %g must be positive", c.Domain)
	}
	if c.CFL == 0 {
		c.CFL = 0.3
	}
	if c.FilterInterval == 0 {
		c.FilterInterval = 1
	}
	if c.FilterCutoff == 0 {
		c.FilterCutoff = 2 * c.Order / 3
	}
	if c.FilterAlpha == 0 {
		c.FilterAlpha = 16
	}
	if c.FilterOrder == 0 {
		c.FilterOrder = 4
	}
	if c.BubbleAmplitude == 0 {
		c.BubbleAmplitude = 0.5
	}
	if c.BubbleRadius == 0 {
		c.BubbleRadius = c.Domain / 4
	}
	if c.BubbleCenter == [3]float64{} {
		c.BubbleCenter = [3]float64{c.Domain / 2, c.Domain / 2, 0.35 * c.Domain}
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return nil
}

// Variable indices into the conserved state.
const (
	iRho  = 0 // density
	iRhoU = 1 // x-momentum
	iRhoV = 2 // y-momentum
	iRhoW = 3 // z-momentum
	iRhoT = 4 // density × potential temperature
	nVars = 5
)

// Solver integrates the compressible equations with storage precision S and
// compute precision C.
type Solver[S, C precision.Real] struct {
	cfg Config

	ne, np  int // elements per direction, nodes per direction (Order+1)
	nNodes  int // total nodes = ne³ · np³
	elemDX  float64
	jacoby  C // 2/elemDX — the 1-D mapping Jacobian factor
	nodes   []float64
	weights []float64
	dmat    []C // (np × np) derivative matrix, row-major
	filter  []C // (np × np) modal filter matrix, row-major

	// Conserved state, one array per variable ("large physical state").
	q [nVars][]S
	// Low-storage RK register and RHS at compute precision.
	g   [nVars][]C
	rhs [nVars][]C
	// Background hydrostatic profiles per global z-level (ne·np entries).
	rhoBar, pBar, exner []C
	zLevels             []float64
	// Scratch: global perturbation pressure, plus one element-local buffer
	// of (nVars+2) np³ tensors per dispatch chunk — the RHS stages fluxes
	// and a derivative in it, the filter ping-pongs two tensors — so
	// parallel sweeps reuse persistent scratch instead of allocating.
	scrP    []C
	scratch [][]C
	// Transcendental dispatch (MathMode × C width).
	powFn    func(x, y C) C
	powConvs uint64 // conversions per pow call (promoted f32 profile)

	// Parallel runtime: the shared persistent pool and kernels prebound
	// once at construction, so the steady-state step loop dispatches
	// without allocating. The RK stage coefficients travel through
	// rkA/rkB/rkDT.
	pool           *par.Pool
	rkA, rkB, rkDT C
	parPressure    func(lo, hi int)
	parClearRHS    func(lo, hi int)
	parRK          func(lo, hi int)
	parElems       func(chunk, lo, hi int)
	parFilter      func(chunk, lo, hi int)

	time     float64
	step     int
	counters metrics.Counters
	timer    *metrics.Timer
	alloc    *metrics.AllocTracker

	// Preresolved timer buckets (allocation-free phase timing).
	phRHS, phRK, phFilter metrics.PhaseCell
	// Preresolved per-step duration histogram in the process-wide obs
	// registry (allocation-free Observe; served at precisiond's /metrics).
	stepDur *obs.Histogram
}

// NewSolver builds the solver, background state and thermal-bubble initial
// condition.
func NewSolver[S, C precision.Real](cfg Config) (*Solver[S, C], error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	nodes, weights, err := spectral.GaussLobatto(cfg.Order)
	if err != nil {
		return nil, fmt.Errorf("self: %w", err)
	}
	np := cfg.Order + 1
	ne := cfg.Elements
	s := &Solver[S, C]{
		cfg:     cfg,
		ne:      ne,
		np:      np,
		nNodes:  ne * ne * ne * np * np * np,
		elemDX:  cfg.Domain / float64(ne),
		nodes:   nodes,
		weights: weights,
		timer:   metrics.NewTimer(),
		alloc:   metrics.NewAllocTracker(),
	}
	s.jacoby = C(2 / s.elemDX)

	d := spectral.DerivativeMatrix(nodes)
	s.dmat = toC[C](d.Data)
	if cfg.FilterInterval > 0 {
		f, err := spectral.CutoffFilter(nodes, cfg.FilterCutoff, cfg.FilterAlpha, cfg.FilterOrder)
		if err != nil {
			return nil, fmt.Errorf("self: %w", err)
		}
		s.filter = toC[C](f.Data)
	}
	s.pool = par.Default()
	s.phRHS = s.timer.Cell("rhs")
	s.phRK = s.timer.Cell("rk")
	s.phFilter = s.timer.Cell("filter")
	modeLabel := "min"
	switch {
	case precision.Sizeof[S]() == 8:
		modeLabel = "full"
	case precision.Sizeof[C]() == 8:
		modeLabel = "mixed"
	}
	s.stepDur = obs.StepDuration("self", modeLabel)
	s.setupMath()
	s.setupBackground()
	s.allocate()
	s.bindKernels()
	s.applyIC()
	return s, nil
}

func toC[C precision.Real](xs []float64) []C {
	out := make([]C, len(xs))
	for i, x := range xs {
		out[i] = C(x)
	}
	return out
}

// allocate creates the state and scratch arrays and registers the memory
// accounting that backs the paper's Table V memory column.
func (s *Solver[S, C]) allocate() {
	n := s.nNodes
	np3 := s.np * s.np * s.np
	for v := 0; v < nVars; v++ {
		s.q[v] = make([]S, n)
		s.g[v] = make([]C, n)
		s.rhs[v] = make([]C, n)
	}
	s.scrP = make([]C, n)
	nChunks := s.cfg.Workers // per-chunk scratch: the chunk count, not the pool size
	s.scratch = make([][]C, nChunks)
	for c := range s.scratch {
		s.scratch[c] = make([]C, (nVars+2)*np3)
	}

	sw, cw := uint64(precision.Sizeof[S]()), uint64(precision.Sizeof[C]())
	s.alloc.Register("state", nVars*uint64(n)*sw)
	s.alloc.Register("rk+rhs", 2*nVars*uint64(n)*cw)
	s.alloc.Register("pressure", uint64(n)*cw)
	s.alloc.Register("background", 3*uint64(len(s.rhoBar))*cw)
	s.alloc.Register("operators", uint64(len(s.dmat)+len(s.filter))*cw)
	s.alloc.Register("scratch", uint64(nChunks)*uint64((nVars+2)*np3)*cw)
}

// setupBackground tabulates the hydrostatic profiles at every global
// z-level: Exner pressure π = 1 − g·z/(cp·θ0), p̄ = p00·π^(cp/R),
// ρ̄ = p00/(R·θ0)·π^(cv/R). These are reference tables, computed in float64
// and stored at compute precision.
func (s *Solver[S, C]) setupBackground() {
	nz := s.ne * s.np
	s.zLevels = make([]float64, nz)
	s.rhoBar = make([]C, nz)
	s.pBar = make([]C, nz)
	s.exner = make([]C, nz)
	for ez := 0; ez < s.ne; ez++ {
		z0 := float64(ez) * s.elemDX
		for k := 0; k < s.np; k++ {
			z := z0 + (s.nodes[k]+1)/2*s.elemDX
			idx := ez*s.np + k
			s.zLevels[idx] = z
			pi := 1 - Grav*z/(Cp*Theta0)
			s.exner[idx] = C(pi)
			s.pBar[idx] = C(P00 * math.Pow(pi, Cp/RGas))
			s.rhoBar[idx] = C(P00 / (RGas * Theta0) * math.Pow(pi, Cv/RGas))
		}
	}
}

// applyIC sets the warm-bubble initial condition: hydrostatic pressure,
// potential temperature θ0 plus a cosine bump, zero velocity. Density
// follows from the equation of state at unchanged pressure, so the warm
// region is lighter and rises.
func (s *Solver[S, C]) applyIC() {
	a := s.cfg.BubbleAmplitude
	rc := s.cfg.BubbleRadius
	ctr := s.cfg.BubbleCenter
	for e := 0; e < s.ne*s.ne*s.ne; e++ {
		ex, ey, ez := s.elemCoords(e)
		base := e * s.np * s.np * s.np
		for k := 0; k < s.np; k++ {
			z := (float64(ez) + (s.nodes[k]+1)/2) * s.elemDX
			zl := ez*s.np + k
			rhoTheta := float64(s.rhoBar[zl]) * Theta0 // = p00/R · π^(cv/R) · θ0/θ0
			for j := 0; j < s.np; j++ {
				y := (float64(ey) + (s.nodes[j]+1)/2) * s.elemDX
				for i := 0; i < s.np; i++ {
					x := (float64(ex) + (s.nodes[i]+1)/2) * s.elemDX
					r := math.Sqrt(sq(x-ctr[0]) + sq(y-ctr[1]) + sq(z-ctr[2]))
					thetaP := 0.0
					if r < rc {
						thetaP = a / 2 * (1 + math.Cos(math.Pi*r/rc))
					}
					theta := Theta0 + thetaP
					rho := rhoTheta / theta // ρθ fixed by p̄ ⇒ ρ = ρθ/θ
					n := base + nodeIndex(s.np, i, j, k)
					s.q[iRho][n] = S(rho)
					s.q[iRhoU][n] = 0
					s.q[iRhoV][n] = 0
					s.q[iRhoW][n] = 0
					s.q[iRhoT][n] = S(rhoTheta)
				}
			}
		}
	}
}

func sq(x float64) float64 { return x * x }

// nodeIndex flattens local node coordinates.
func nodeIndex(np, i, j, k int) int { return i + np*(j+np*k) }

// elemCoords unflattens an element index.
func (s *Solver[S, C]) elemCoords(e int) (ex, ey, ez int) {
	ex = e % s.ne
	ey = (e / s.ne) % s.ne
	ez = e / (s.ne * s.ne)
	return
}

// elemIndex flattens element coordinates.
func (s *Solver[S, C]) elemIndex(ex, ey, ez int) int {
	return ex + s.ne*(ey+s.ne*ez)
}

// StableDT estimates an acoustically stable timestep: CFL × (minimum node
// spacing) / (sound speed + expected advection).
func (s *Solver[S, C]) StableDT() float64 {
	minGap := s.nodes[1] - s.nodes[0] // GLL endpoint gap is the smallest
	dzMin := minGap / 2 * s.elemDX
	c := math.Sqrt(Gamma * RGas * Theta0) // ≈ sound speed at 300 K
	return s.cfg.CFL * dzMin / (c + 20)
}

// Time returns the simulation time, StepCount the completed steps.
func (s *Solver[S, C]) Time() float64         { return s.time }
func (s *Solver[S, C]) StepCount() int        { return s.step }
func (s *Solver[S, C]) NodeCount() int        { return s.nNodes }
func (s *Solver[S, C]) DegreesOfFreedom() int { return s.nNodes * nVars }

// Counters returns accumulated operation counts.
func (s *Solver[S, C]) Counters() metrics.Counters { return s.counters }

// Timer returns the phase timer ("rhs", "rk", "filter").
func (s *Solver[S, C]) Timer() *metrics.Timer { return s.timer }

// StateBytes returns tracked resident memory.
func (s *Solver[S, C]) StateBytes() uint64 { return s.alloc.Current() }

// Williamson low-storage RK3 coefficients.
var lsrkA = [3]float64{0, -5.0 / 9.0, -153.0 / 128.0}
var lsrkB = [3]float64{1.0 / 3.0, 15.0 / 16.0, 8.0 / 15.0}

// Step advances one RK3 timestep (3 RHS evaluations) and applies the modal
// filter on schedule.
func (s *Solver[S, C]) Step() error {
	startStep := time.Now()
	dt := s.cfg.DT
	if dt == 0 {
		dt = s.StableDT()
	}
	cdt := C(dt)
	for stage := 0; stage < 3; stage++ {
		startRHS := time.Now()
		s.computeRHS()
		s.phRHS.Observe(startRHS)
		startRK := time.Now()
		s.rkA, s.rkB, s.rkDT = C(lsrkA[stage]), C(lsrkB[stage]), cdt
		s.pool.ForN(s.cfg.Workers, s.nNodes, s.parRK)
		s.phRK.Observe(startRK)
		s.counters.AddFlops(precision.Sizeof[C](), uint64(s.nNodes)*nVars*4)
	}
	if s.cfg.FilterInterval > 0 && (s.step+1)%s.cfg.FilterInterval == 0 {
		startF := time.Now()
		s.applyFilter()
		s.phFilter.Observe(startF)
	}
	s.time += dt
	s.step++
	s.stepDur.ObserveSince(startStep)
	// Blow-up guard: probe one representative node per step.
	probe := float64(s.q[iRho][s.nNodes/2])
	if math.IsNaN(probe) || probe <= 0 {
		return fmt.Errorf("self: step %d: density %g (unstable): %w",
			s.step, probe, precision.ErrNumericalFailure)
	}
	return nil
}

// CheckHealth is the step loop's numerical sentinel: every conserved value
// must be finite and density strictly positive everywhere (the per-step
// probe only watches one node). Failures wrap precision.ErrNumericalFailure
// so the serving layer can escalate precision. One pass over the state
// arrays — run it every few steps, not every step.
func (s *Solver[S, C]) CheckHealth() error {
	for i, r := range s.q[iRho] {
		rho := float64(r)
		if math.IsNaN(rho) || math.IsInf(rho, 0) || rho <= 0 {
			return fmt.Errorf("self: step %d: density %g at node %d: %w",
				s.step, rho, i, precision.ErrNumericalFailure)
		}
	}
	for v := 1; v < nVars; v++ {
		for i, x := range s.q[v] {
			f := float64(x)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("self: step %d: non-finite %s %g at node %d: %w",
					s.step, stateNames[v], f, i, precision.ErrNumericalFailure)
			}
		}
	}
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
