package repro

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/clamr"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/self"
)

// Scale selects the problem sizes the experiment harness runs. The paper's
// qualitative results (who wins, by what factor) are scale-stable; Quick
// keeps every experiment in CI range, Paper approaches the paper's sizes.
type Scale int

const (
	// QuickScale: seconds per experiment (CI, go test -bench).
	QuickScale Scale = iota
	// StandardScale: tens of seconds.
	StandardScale
	// PaperScale: the paper's problem sizes (1920² CLAMR grid, 20³×8³
	// SELF). Minutes to hours; cmd/paperbench only.
	PaperScale
)

// ParseScale parses "quick", "standard" or "paper".
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "quick", "":
		return QuickScale, nil
	case "standard", "std":
		return StandardScale, nil
	case "paper", "full":
		return PaperScale, nil
	default:
		return QuickScale, fmt.Errorf("unknown scale %q", s)
	}
}

// Session memoizes mini-app runs so the table experiments share them the
// way the paper's tables share measurements.
type Session struct {
	Scale Scale

	ctx       context.Context
	clamrRuns map[string]core.CLAMRResult
	selfRuns  map[string]core.SELFResult
}

// NewSession creates an experiment session at the given scale.
func NewSession(scale Scale) *Session {
	return NewSessionContext(context.Background(), scale)
}

// NewSessionContext creates a session whose mini-app runs stop between
// steps once ctx is cancelled; RunExperiment then returns an error wrapping
// ctx.Err(). This is the plumbing cmd/paperbench and the experiment daemon
// share for SIGINT handling.
func NewSessionContext(ctx context.Context, scale Scale) *Session {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Session{
		Scale:     scale,
		ctx:       ctx,
		clamrRuns: make(map[string]core.CLAMRResult),
		selfRuns:  make(map[string]core.SELFResult),
	}
}

// CLAMRPerfConfig is the Table I–III configuration at this session's scale
// (paper: 1920² coarse grid, 2 AMR levels, 200 iterations).
func (s *Session) CLAMRPerfConfig(kernel clamr.Kernel) (clamr.Config, int) {
	switch s.Scale {
	case PaperScale:
		return clamr.Config{NX: 1920, NY: 1920, MaxLevel: 2, Kernel: kernel, AMRInterval: 20}, 200
	case StandardScale:
		return clamr.Config{NX: 192, NY: 192, MaxLevel: 2, Kernel: kernel, AMRInterval: 20}, 150
	default:
		return clamr.Config{NX: 48, NY: 48, MaxLevel: 1, Kernel: kernel, AMRInterval: 15}, 60
	}
}

// CLAMRFigConfig is the Figure 1–3 configuration at this session's scale
// (paper: 64² grid, 2 AMR levels, 1000 iterations).
func (s *Session) CLAMRFigConfig() (clamr.Config, int) {
	switch s.Scale {
	case PaperScale:
		return clamr.Config{NX: 64, NY: 64, MaxLevel: 2, Kernel: clamr.KernelFace, AMRInterval: 20}, 1000
	case StandardScale:
		return clamr.Config{NX: 64, NY: 64, MaxLevel: 2, Kernel: clamr.KernelFace, AMRInterval: 20}, 300
	default:
		return clamr.Config{NX: 48, NY: 48, MaxLevel: 1, Kernel: clamr.KernelFace, AMRInterval: 15}, 100
	}
}

// SELFStudyConfig is the Table IV–VI / Figure 4–5 configuration at this
// session's scale (paper: 20³ elements at order 7, 100 RK3 steps ≈ 24M DOF).
func (s *Session) SELFStudyConfig(mm self.MathMode) (self.Config, int) {
	switch s.Scale {
	case PaperScale:
		return self.Config{Elements: 20, Order: 7, MathMode: mm}, 100
	case StandardScale:
		return self.Config{Elements: 6, Order: 6, MathMode: mm}, 40
	default:
		return self.Config{Elements: 3, Order: 4, MathMode: mm}, 15
	}
}

// LineCutN is the line-cut sampling resolution at this session's scale.
func (s *Session) LineCutN() int {
	if s.Scale == QuickScale {
		return 96
	}
	return 256
}

// runCLAMR memoizes a (mode, kernel, variant) CLAMR study run.
func (s *Session) runCLAMR(mode Mode, kernel clamr.Kernel, fig bool) (core.CLAMRResult, error) {
	key := fmt.Sprintf("%v/%v/fig=%v", mode, kernel, fig)
	if r, ok := s.clamrRuns[key]; ok {
		return r, nil
	}
	var cfg clamr.Config
	var steps int
	if fig {
		cfg, steps = s.CLAMRFigConfig()
	} else {
		cfg, steps = s.CLAMRPerfConfig(kernel)
	}
	r, err := core.RunCLAMROpts(mode, cfg, steps, s.LineCutN(), core.RunOptions{Ctx: s.ctx})
	if err != nil {
		return core.CLAMRResult{}, fmt.Errorf("clamr %s: %w", key, err)
	}
	s.clamrRuns[key] = r
	return r, nil
}

// runSELF memoizes a (mode, math mode) SELF study run.
func (s *Session) runSELF(mode Mode, mm self.MathMode) (core.SELFResult, error) {
	key := fmt.Sprintf("%v/%v", mode, mm)
	if r, ok := s.selfRuns[key]; ok {
		return r, nil
	}
	cfg, steps := s.SELFStudyConfig(mm)
	r, err := core.RunSELFOpts(mode, cfg, steps, s.LineCutN(), core.RunOptions{Ctx: s.ctx})
	if err != nil {
		return core.SELFResult{}, fmt.Errorf("self %s: %w", key, err)
	}
	s.selfRuns[key] = r
	return r, nil
}

// Output is the result of one experiment: rendered text plus, for figures,
// the underlying series (CSV-able by the caller).
type Output struct {
	Text   string
	Series []analysis.Series
}

// Experiment binds a paper table/figure to its regeneration.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Session) (Output, error)
}

// Experiments lists every table and figure of the paper's evaluation, in
// paper order.
var Experiments = []Experiment{
	{"table1", "Table I: CLAMR runtime and memory across architectures and precisions", (*Session).Table1},
	{"table2", "Table II: estimated CLAMR energy use", (*Session).Table2},
	{"table3", "Table III: CLAMR finite_diff vectorization × precision, checkpoint size", (*Session).Table3},
	{"table4", "Table IV: nonvectorized SELF, GNU vs Intel compiler profiles", (*Session).Table4},
	{"table5", "Table V: SELF runtime and memory across architectures and precisions", (*Session).Table5},
	{"table6", "Table VI: estimated SELF energy use", (*Session).Table6},
	{"table7", "Table VII: AWS cost model", (*Session).Table7},
	{"fig1", "Figure 1: CLAMR line cuts per precision and pairwise differences", (*Session).Fig1},
	{"fig2", "Figure 2: CLAMR height asymmetry per precision", (*Session).Fig2},
	{"fig3", "Figure 3: minimum-precision high-resolution vs full-precision low-resolution", (*Session).Fig3},
	{"fig4", "Figure 4: SELF density-anomaly line cut, single vs double", (*Session).Fig4},
	{"fig5", "Figure 5: SELF perturbation-density asymmetry", (*Session).Fig5},
}

// RunExperiment runs one experiment by ID ("table1".."table7",
// "fig1".."fig5").
func (s *Session) RunExperiment(id string) (Output, error) {
	for _, e := range Experiments {
		if e.ID == id {
			return e.Run(s)
		}
	}
	return Output{}, fmt.Errorf("unknown experiment %q", id)
}

// Paper problem sizes the workload extrapolation targets: CLAMR 1920²
// coarse cells (×1.3 average AMR overhead) for 200 iterations; SELF 20³
// elements × 8³ nodes for 100 RK3 steps.
const (
	paperCLAMRCells = 1920 * 1920 * 1.3
	paperCLAMRSteps = 200
	paperSELFNodes  = 20 * 20 * 20 * 8 * 8 * 8
	paperSELFSteps  = 100
)

// scaleCLAMRWorkload extrapolates a measured run to the paper's problem
// size. The kernels' counters are exact linear tallies in cell-steps, so
// this is exact for the same configuration shape; launches scale with
// steps only and resident state with cells only.
func scaleCLAMRWorkload(r core.CLAMRResult, w arch.Workload) arch.Workload {
	measured := float64(r.Cells) * float64(r.Steps)
	f := paperCLAMRCells * paperCLAMRSteps / measured
	launchesPerStep := float64(w.Counters.KernelLaunches) / float64(r.Steps)
	w.Counters = w.Counters.Scale(f)
	w.Counters.KernelLaunches = uint64(launchesPerStep * paperCLAMRSteps)
	w.SerialOps = uint64(paperCLAMRCells * paperCLAMRSteps)
	w.StateBytes = uint64(float64(w.StateBytes) * paperCLAMRCells / float64(r.Cells))
	return w
}

// scaleSELFWorkload is the SELF counterpart (node-steps).
func scaleSELFWorkload(r core.SELFResult, w arch.Workload) arch.Workload {
	nodes := float64(r.DOF) / 5
	measured := nodes * float64(r.Steps)
	f := paperSELFNodes * paperSELFSteps / measured
	launchesPerStep := float64(w.Counters.KernelLaunches) / float64(r.Steps)
	w.Counters = w.Counters.Scale(f)
	w.Counters.KernelLaunches = uint64(launchesPerStep * paperSELFSteps)
	w.SerialOps = uint64(float64(w.SerialOps) * paperSELFNodes / nodes * paperSELFSteps / float64(r.Steps))
	w.StateBytes = uint64(float64(w.StateBytes) * paperSELFNodes / nodes)
	return w
}

// clamrWorkloads gathers the three precision workloads of the performance
// configuration, extrapolated to the paper's problem size.
func (s *Session) clamrWorkloads() ([]core.CLAMRResult, []arch.Workload, error) {
	results := make([]core.CLAMRResult, 0, 3)
	workloads := make([]arch.Workload, 0, 3)
	for _, mode := range Modes {
		r, err := s.runCLAMR(mode, clamr.KernelFace, false)
		if err != nil {
			return nil, nil, err
		}
		results = append(results, r)
		workloads = append(workloads, scaleCLAMRWorkload(r, r.Workload()))
	}
	return results, workloads, nil
}

// Table1 predicts CLAMR runtime/memory per architecture × precision.
func (s *Session) Table1() (Output, error) {
	results, workloads, err := s.clamrWorkloads()
	if err != nil {
		return Output{}, err
	}
	t := core.Table{
		Title: "Table I — CLAMR runtime (s, modeled) and memory (GB) per architecture",
		Headers: []string{"Arch", "Mem Min", "Mem Mixed", "Mem Full",
			"Run Min", "Run Mixed", "Run Full", "Speedup"},
	}
	for _, row := range arch.Table(CLAMRPlatforms, workloads) {
		t.AddRow(row.Arch,
			core.FormatGB(uint64(row.MemGB[0]*1e9)), core.FormatGB(uint64(row.MemGB[1]*1e9)), core.FormatGB(uint64(row.MemGB[2]*1e9)),
			core.FormatDuration(row.Times[0]), core.FormatDuration(row.Times[1]), core.FormatDuration(row.Times[2]),
			core.FormatSpeedup(row.Speedup))
	}
	text := t.String() + fmt.Sprintf(
		"\nHost measured (this machine): Min %.3gs  Mixed %.3gs  Full %.3gs  (%d cells, %d steps)\n",
		results[0].WallTime.Seconds(), results[1].WallTime.Seconds(), results[2].WallTime.Seconds(),
		results[2].Cells, results[2].Steps)
	return Output{Text: text}, nil
}

// Table2 prices the Table1 rows in joules.
func (s *Session) Table2() (Output, error) {
	_, workloads, err := s.clamrWorkloads()
	if err != nil {
		return Output{}, err
	}
	t := core.Table{
		Title:   "Table II — estimated CLAMR energy use (J) = nominal power × modeled runtime",
		Headers: []string{"Arch", "Min", "Mixed", "Full"},
	}
	for _, row := range arch.Table(CLAMRPlatforms, workloads) {
		t.AddRow(row.Arch,
			core.FormatJoules(row.Energy[0]), core.FormatJoules(row.Energy[1]), core.FormatJoules(row.Energy[2]))
	}
	return Output{Text: t.String()}, nil
}

// Table3 compares the unvectorized and vectorized finite_diff kernels per
// precision (host-measured) and checkpoint sizes.
func (s *Session) Table3() (Output, error) {
	t := core.Table{
		Title:   "Table III — CLAMR finite_diff time (host s) and checkpoint size",
		Headers: []string{"", "Min", "Mixed", "Full"},
	}
	rows := map[clamr.Kernel][]string{}
	var ckpt []string
	for _, kernel := range []clamr.Kernel{clamr.KernelCell, clamr.KernelFace} {
		for _, mode := range Modes {
			r, err := s.runCLAMR(mode, kernel, false)
			if err != nil {
				return Output{}, err
			}
			rows[kernel] = append(rows[kernel], fmt.Sprintf("%.3g", r.FiniteDiffTime.Seconds()))
			if kernel == clamr.KernelFace {
				ckpt = append(ckpt, fmt.Sprintf("%.2fMB", float64(r.CheckpointBytes)/1e6))
			}
		}
	}
	t.AddRow(append([]string{"finite_diff unvectorized"}, rows[clamr.KernelCell]...)...)
	t.AddRow(append([]string{"finite_diff vectorized"}, rows[clamr.KernelFace]...)...)
	t.AddRow(append([]string{"checkpoint file size"}, ckpt...)...)
	return Output{Text: t.String()}, nil
}

// Table4 re-compiles the nonvectorized SELF workload under the GNU and
// Intel profiles and prices them on Haswell.
func (s *Session) Table4() (Output, error) {
	single, err := s.runSELF(Min, self.MathNative)
	if err != nil {
		return Output{}, err
	}
	double, err := s.runSELF(Full, self.MathNative)
	if err != nil {
		return Output{}, err
	}
	wS := scaleSELFWorkload(single, single.Workload())
	wD := scaleSELFWorkload(double, double.Workload())
	wS.Vectorized, wD.Vectorized = false, false
	t := core.Table{
		Title:   "Table IV — nonvectorized SELF runtime (s, modeled on Haswell) per compiler profile",
		Headers: []string{"Compiler", "Single", "Double"},
	}
	for _, p := range compiler.Profiles {
		t.AddRow(p.Name,
			fmt.Sprintf("%.3g", p.Predict(arch.Haswell, wS)),
			fmt.Sprintf("%.3g", p.Predict(arch.Haswell, wD)))
	}
	gnuS, gnuD := compiler.GNU.Predict(arch.Haswell, wS), compiler.GNU.Predict(arch.Haswell, wD)
	note := "\nGNU single > GNU double: " + yesNo(gnuS > gnuD) +
		" (the paper's anomaly; caused here by promotion of single-precision math through the double libm)\n"
	return Output{Text: t.String() + note}, nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// selfWorkloads gathers single and double SELF workloads, extrapolated to
// the paper's problem size.
func (s *Session) selfWorkloads() ([]core.SELFResult, []arch.Workload, error) {
	var results []core.SELFResult
	var workloads []arch.Workload
	for _, mode := range []Mode{Min, Full} {
		r, err := s.runSELF(mode, self.MathNative)
		if err != nil {
			return nil, nil, err
		}
		results = append(results, r)
		workloads = append(workloads, scaleSELFWorkload(r, r.Workload()))
	}
	return results, workloads, nil
}

// Table5 predicts SELF runtime/memory per architecture × precision.
func (s *Session) Table5() (Output, error) {
	results, workloads, err := s.selfWorkloads()
	if err != nil {
		return Output{}, err
	}
	t := core.Table{
		Title:   "Table V — SELF runtime (s, modeled) and memory (GB) per architecture",
		Headers: []string{"Arch", "Mem Single", "Mem Double", "Run Single", "Run Double", "Speedup"},
	}
	for _, row := range arch.Table(SELFPlatforms, workloads) {
		t.AddRow(row.Arch,
			core.FormatGB(uint64(row.MemGB[0]*1e9)), core.FormatGB(uint64(row.MemGB[1]*1e9)),
			core.FormatDuration(row.Times[0]), core.FormatDuration(row.Times[1]),
			core.FormatSpeedup(row.Speedup))
	}
	text := t.String() + fmt.Sprintf(
		"\nHost measured (this machine): Single %.3gs  Double %.3gs  (%d DOF, %d steps)\n",
		results[0].WallTime.Seconds(), results[1].WallTime.Seconds(), results[1].DOF, results[1].Steps)
	return Output{Text: text}, nil
}

// Table6 prices the Table5 rows in joules.
func (s *Session) Table6() (Output, error) {
	_, workloads, err := s.selfWorkloads()
	if err != nil {
		return Output{}, err
	}
	t := core.Table{
		Title:   "Table VI — estimated SELF energy use (J)",
		Headers: []string{"Arch", "Single", "Double"},
	}
	for _, row := range arch.Table(SELFPlatforms, workloads) {
		t.AddRow(row.Arch, core.FormatJoules(row.Energy[0]), core.FormatJoules(row.Energy[1]))
	}
	return Output{Text: t.String()}, nil
}

// Table7 prices the paper's usage scenarios with our measured precision
// ratios applied to the paper's Haswell baselines, so magnitudes stay
// comparable to Table VII while the ratios are this reproduction's.
func (s *Session) Table7() (Output, error) {
	clamrResults, clamrWorkloads, err := s.clamrWorkloads()
	if err != nil {
		return Output{}, err
	}
	_, selfWorkloads, err := s.selfWorkloads()
	if err != nil {
		return Output{}, err
	}
	// Modeled Haswell runtimes → precision ratios.
	cT := make([]float64, 3)
	for i, w := range clamrWorkloads {
		cT[i] = arch.Haswell.Predict(w).Seconds()
	}
	sT := make([]float64, 2)
	for i, w := range selfWorkloads {
		sT[i] = arch.Haswell.Predict(w).Seconds()
	}
	const clamrBaseSec, selfBaseSec = 31.3, 270.4 // paper's Haswell full runs
	ckptRatioMin := float64(clamrResults[0].CheckpointBytes) / float64(clamrResults[2].CheckpointBytes)
	ckptRatioMixed := float64(clamrResults[1].CheckpointBytes) / float64(clamrResults[2].CheckpointBytes)

	type column struct {
		name string
		bd   cost.Breakdown
	}
	var cols []column
	add := func(name string, sc cost.Scenario) error {
		bd, err := cost.AWS2017.Cost(sc)
		if err != nil {
			return err
		}
		cols = append(cols, column{name, bd})
		return nil
	}
	if err := add("CLAMR Min", cost.PaperCLAMRScenario(clamrBaseSec*cT[0]/cT[2], 0.128*ckptRatioMin)); err != nil {
		return Output{}, err
	}
	if err := add("CLAMR Mixed", cost.PaperCLAMRScenario(clamrBaseSec*cT[1]/cT[2], 0.128*ckptRatioMixed)); err != nil {
		return Output{}, err
	}
	if err := add("CLAMR Full", cost.PaperCLAMRScenario(clamrBaseSec, 0.128)); err != nil {
		return Output{}, err
	}
	if err := add("SELF Single", cost.PaperSELFScenario(selfBaseSec*sT[0]/sT[1], 1.0)); err != nil {
		return Output{}, err
	}
	if err := add("SELF Double", cost.PaperSELFScenario(selfBaseSec, 1.0)); err != nil {
		return Output{}, err
	}

	t := core.Table{
		Title:   "Table VII — AWS cost model (paper baselines × this reproduction's ratios)",
		Headers: []string{"Scenario", "Compute $", "Storage $", "Total $"},
	}
	for _, c := range cols {
		t.AddRow(c.name,
			fmt.Sprintf("%.2f", c.bd.Compute),
			fmt.Sprintf("%.2f", c.bd.Storage),
			fmt.Sprintf("%.2f", c.bd.Total))
	}
	sav := fmt.Sprintf("\nCLAMR: min saves %.0f%%, mixed saves %.0f%% vs full;  SELF: single saves %.0f%% vs double\n",
		100*cost.Savings(cols[0].bd, cols[2].bd),
		100*cost.Savings(cols[1].bd, cols[2].bd),
		100*cost.Savings(cols[3].bd, cols[4].bd))
	return Output{Text: t.String() + sav}, nil
}

// Fig1 renders the CLAMR line cuts per precision plus pairwise differences.
func (s *Session) Fig1() (Output, error) {
	cuts := make(map[Mode]analysis.Series, 3)
	for _, mode := range Modes {
		r, err := s.runCLAMR(mode, clamr.KernelFace, true)
		if err != nil {
			return Output{}, err
		}
		cuts[mode] = r.LineCut
	}
	dFullMin := analysis.Diff(cuts[Full], cuts[Min])
	dFullMixed := analysis.Diff(cuts[Full], cuts[Mixed])
	dMixedMin := analysis.Diff(cuts[Mixed], cuts[Min])

	var b strings.Builder
	b.WriteString("Figure 1 — CLAMR height along the center line (all precisions overlap)\n")
	b.WriteString(analysis.ASCIIPlot(14, 72, cuts[Full], cuts[Mixed], cuts[Min]))

	// 2-D context for the cut: the full-precision wave field (re-run; the
	// memoized study result does not retain the mesh).
	cfgFig, stepsFig := s.CLAMRFigConfig()
	if runner, err := core.NewDamBreak(Full, cfgFig); err == nil {
		if err := runner.Run(stepsFig); err == nil {
			const raster = 96
			if field, err := runner.Mesh().Rasterize(runner.HeightF64(), raster, raster); err == nil {
				if hm, err := analysis.Heatmap(field, raster, raster, 16, 64); err == nil {
					b.WriteString("\n2-D height field (full precision):\n")
					b.WriteString(hm)
				}
			}
		}
	}
	fmt.Fprintf(&b, "\nmax|Full-Min|   = %.3g  (%.1f orders below the %.3g solution scale)\n",
		dFullMin.MaxAbs(), analysis.OrdersBelow(dFullMin, cuts[Full]), cuts[Full].MaxAbs())
	fmt.Fprintf(&b, "max|Full-Mixed| = %.3g  (%.1f orders below)\n",
		dFullMixed.MaxAbs(), analysis.OrdersBelow(dFullMixed, cuts[Full]))
	fmt.Fprintf(&b, "max|Mixed-Min|  = %.3g  (%.1f orders below)\n",
		dMixedMin.MaxAbs(), analysis.OrdersBelow(dMixedMin, cuts[Full]))
	return Output{
		Text:   b.String(),
		Series: []analysis.Series{cuts[Full], cuts[Mixed], cuts[Min], dFullMin, dFullMixed, dMixedMin},
	}, nil
}

// Fig2 renders the CLAMR height asymmetry per precision.
func (s *Session) Fig2() (Output, error) {
	var b strings.Builder
	b.WriteString("Figure 2 — CLAMR height asymmetry y(c+d) − y(c−d) per precision\n")
	var series []analysis.Series
	var ref analysis.Series
	for _, mode := range Modes {
		r, err := s.runCLAMR(mode, clamr.KernelFace, true)
		if err != nil {
			return Output{}, err
		}
		asym := analysis.Asymmetry(r.LineCut)
		asym.Label = mode.String()
		series = append(series, asym)
		if mode == Full {
			ref = r.LineCut
		}
		fmt.Fprintf(&b, "%-6s max asymmetry %.3g  (%.1f orders below solution)\n",
			mode.String(), asym.MaxAbs(), analysis.OrdersBelow(asym, r.LineCut))
	}
	_ = ref
	b.WriteString(analysis.ASCIIPlot(12, 72, series...))
	return Output{Text: b.String(), Series: series}, nil
}

// Fig3 compares a minimum-precision high-resolution run against a
// full-precision low-resolution run at (nearly) the same simulation time.
func (s *Session) Fig3() (Output, error) {
	cfgLo, steps := s.CLAMRFigConfig()
	loRes, err := core.RunCLAMROpts(Full, cfgLo, steps, s.LineCutN(), core.RunOptions{Ctx: s.ctx})
	if err != nil {
		return Output{}, err
	}
	// High resolution: double the coarse grid, minimum precision, run to
	// the same simulation time.
	cfgHi := cfgLo
	cfgHi.NX *= 2
	cfgHi.NY *= 2
	loTime, err := s.simTimeOf(cfgLo, steps)
	if err != nil {
		return Output{}, err
	}
	hi, err := core.NewDamBreak(Min, cfgHi)
	if err != nil {
		return Output{}, err
	}
	for hi.Time() < loTime {
		if err := s.ctx.Err(); err != nil {
			return Output{}, fmt.Errorf("fig3 cancelled: %w", err)
		}
		if err := hi.Step(); err != nil {
			return Output{}, err
		}
	}
	hiCut, err := core.CLAMRLineCut(hi, s.LineCutN())
	if err != nil {
		return Output{}, err
	}
	hiCut.Label = "Min-HiRes"
	lo := loRes.LineCut
	lo.Label = "Full-LoRes"

	// Structural richness: total variation of the cut (more resolved
	// detail ⇒ larger total variation at the front).
	tv := func(s analysis.Series) float64 {
		var v float64
		for i := 1; i < s.Len(); i++ {
			v += math.Abs(s.Y[i] - s.Y[i-1])
		}
		return v
	}
	var b strings.Builder
	b.WriteString("Figure 3 — Min-precision high-resolution vs full-precision low-resolution\n")
	b.WriteString(analysis.ASCIIPlot(14, 72, lo, hiCut))
	fmt.Fprintf(&b, "\ntotal variation: Full-LoRes %.4g, Min-HiRes %.4g (more structure: %s)\n",
		tv(lo), tv(hiCut), map[bool]string{true: "Min-HiRes", false: "Full-LoRes"}[tv(hiCut) > tv(lo)])
	fmt.Fprintf(&b, "simulation times: LoRes %.4gs, HiRes %.4gs\n", loTime, hi.Time())
	return Output{Text: b.String(), Series: []analysis.Series{lo, hiCut}}, nil
}

// simTimeOf runs a throwaway full-precision simulation to learn the
// simulation time reached after the given number of steps.
func (s *Session) simTimeOf(cfg clamr.Config, steps int) (float64, error) {
	r, err := core.NewDamBreak(Full, cfg)
	if err != nil {
		return 0, err
	}
	for r.StepCount() < steps {
		if err := s.ctx.Err(); err != nil {
			return 0, fmt.Errorf("fig3 reference cancelled: %w", err)
		}
		if err := r.Step(); err != nil {
			return 0, err
		}
	}
	return r.Time(), nil
}

// Fig4 renders the SELF density-anomaly line cut, single vs double.
func (s *Session) Fig4() (Output, error) {
	single, err := s.runSELF(Min, self.MathNative)
	if err != nil {
		return Output{}, err
	}
	double, err := s.runSELF(Full, self.MathNative)
	if err != nil {
		return Output{}, err
	}
	sc, dc := single.LineCut, double.LineCut
	sc.Label, dc.Label = "Single", "Double"
	diff := analysis.Diff(dc, sc)
	var b strings.Builder
	b.WriteString("Figure 4 — SELF density anomaly along the x center line\n")
	b.WriteString(analysis.ASCIIPlot(14, 72, dc, sc))
	fmt.Fprintf(&b, "\nmax|Double-Single| = %.3g (%.1f orders below the %.3g solution scale)\n",
		diff.MaxAbs(), analysis.OrdersBelow(diff, dc), dc.MaxAbs())
	return Output{Text: b.String(), Series: []analysis.Series{dc, sc, diff}}, nil
}

// Fig5 renders the SELF perturbation-density asymmetry, single vs double,
// including the paper's observation that the single-precision asymmetry is
// biased positive while double oscillates around zero.
func (s *Session) Fig5() (Output, error) {
	single, err := s.runSELF(Min, self.MathNative)
	if err != nil {
		return Output{}, err
	}
	double, err := s.runSELF(Full, self.MathNative)
	if err != nil {
		return Output{}, err
	}
	aS := analysis.Asymmetry(single.LineCut)
	aD := analysis.Asymmetry(double.LineCut)
	aS.Label, aD.Label = "Single", "Double"
	var b strings.Builder
	b.WriteString("Figure 5 — SELF density-anomaly asymmetry\n")
	b.WriteString(analysis.ASCIIPlot(12, 72, aD, aS))
	fmt.Fprintf(&b, "\nDouble: max %.3g, bias %.3g, positive fraction %.2f\n",
		aD.MaxAbs(), aD.Bias(), aD.PositiveFraction())
	fmt.Fprintf(&b, "Single: max %.3g, bias %.3g, positive fraction %.2f\n",
		aS.MaxAbs(), aS.Bias(), aS.PositiveFraction())
	return Output{Text: b.String(), Series: []analysis.Series{aD, aS}}, nil
}
