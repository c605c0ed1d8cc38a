// Package core implements the paper's methodology as a reusable library:
// run a mini-app at each precision mode, collect runtime, memory,
// operation counts, checkpoint size and solution line-cuts, project the
// measured workload onto the paper's architectures, and assemble the
// tables and figures of the evaluation section.
//
// This is the "thoughtful precision" layer: the mini-apps know how to run
// at a precision; this package knows how to *compare* precisions.
package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/clamr"
	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/precision"
	"repro/internal/self"
)

// CLAMRResult captures one CLAMR run.
type CLAMRResult struct {
	Mode            precision.Mode
	Kernel          clamr.Kernel
	Steps           int
	Cells           int
	WallTime        time.Duration
	FiniteDiffTime  time.Duration
	Counters        metrics.Counters
	StateBytes      uint64
	CheckpointBytes int64
	MassError       float64
	LineCut         analysis.Series
	// Phases snapshots the solver's per-phase timer buckets (timestep,
	// finite_diff, amr) in first-use order.
	Phases []metrics.PhaseTotal
}

// RunOptions gives the study runners the execution controls the
// experiment service needs: cancellation, per-step progress, checkpoint
// restart, checkpoint capture, periodic in-flight checkpoints and the
// numerical-guard cadence. The zero value is a plain run from the initial
// condition (guards only ever abort diverging runs; they never perturb
// counters or state).
type RunOptions struct {
	// Ctx cancels the run between steps; nil means context.Background().
	// A cancelled run returns an error wrapping ctx.Err().
	Ctx context.Context
	// Progress, when non-nil, is called after every completed step with the
	// absolute step count and the target step count.
	Progress func(step, total int)
	// Resume, when non-nil, restores the solver from a checkpoint instead
	// of the initial condition; stepping continues until the absolute step
	// count reaches `steps`. Counters restart at zero on resume.
	Resume io.Reader
	// Checkpoint, when non-nil, receives the bytes of the final-state
	// checkpoint (the same bytes CheckpointBytes counts).
	Checkpoint io.Writer
	// GuardEvery runs the solver's numerical sentinels (CheckHealth: finite
	// state, bounded mass drift / positive density) every this many steps
	// and on the final step. 0 selects DefaultGuardEvery; negative disables
	// the sentinels (the per-step dt/probe blow-up checks always run).
	GuardEvery int
	// CheckpointEvery, with CheckpointSink, writes an in-flight checkpoint
	// every this many completed steps (never on the final step — the final
	// checkpoint has its own path). 0 disables. The serving layer uses
	// these so a crash-restarted job resumes mid-run instead of from
	// scratch. Sink failures are ignored: a lost periodic checkpoint only
	// costs restart time, never the run.
	CheckpointEvery int
	// CheckpointSink opens the destination for the periodic checkpoint at
	// the given absolute step; Close commits it (atomically, if the caller
	// cares about torn checkpoints).
	CheckpointSink func(step int) (io.WriteCloser, error)
}

// DefaultGuardEvery is the numerical-sentinel cadence when RunOptions does
// not choose one: cheap enough to be always-on, frequent enough that a
// diverging or deadline-exceeded run is caught within a few steps.
const DefaultGuardEvery = 8

func (o RunOptions) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// stepper is the step-loop surface shared by both mini-app runners.
type stepper interface {
	StepCount() int
	Step() error
	CheckHealth() error
	WriteCheckpoint(w io.Writer) (int64, error)
}

// stepUntil advances the runner to `steps` absolute steps under the
// options' cancellation, guard, checkpoint and progress contract. Both
// mini-app Run(n) methods are plain Step loops, so this is
// result-identical to them: guards abort, they never mutate.
func stepUntil(opts RunOptions, r stepper, steps int) error {
	ctx := opts.ctx()
	guardEvery := opts.GuardEvery
	if guardEvery == 0 {
		guardEvery = DefaultGuardEvery
	}
	for r.StepCount() < steps {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("run cancelled at step %d/%d: %w", r.StepCount(), steps, err)
		}
		if err := r.Step(); err != nil {
			return err
		}
		n := r.StepCount()
		if guardEvery > 0 && (n%guardEvery == 0 || n == steps) {
			if fault.Enabled() {
				if ferr := fault.Error("runner.nan"); ferr != nil {
					return fmt.Errorf("step %d: %w: %w", n, ferr, precision.ErrNumericalFailure)
				}
			}
			if err := r.CheckHealth(); err != nil {
				return err
			}
		}
		if opts.CheckpointEvery > 0 && opts.CheckpointSink != nil && n < steps && n%opts.CheckpointEvery == 0 {
			writePeriodicCheckpoint(opts, r, n)
		}
		if opts.Progress != nil {
			opts.Progress(n, steps)
		}
	}
	return nil
}

// writePeriodicCheckpoint writes one in-flight checkpoint, swallowing sink
// errors (a failed periodic checkpoint must not fail a healthy run).
func writePeriodicCheckpoint(opts RunOptions, r stepper, step int) {
	w, err := opts.CheckpointSink(step)
	if err != nil || w == nil {
		return
	}
	if _, err := r.WriteCheckpoint(w); err != nil {
		w.Close()
		return
	}
	w.Close()
}

// NewDamBreak builds a CLAMR runner on the paper's cylindrical dam-break
// problem at the given precision. A zero cfg.Bounds selects the unit square.
func NewDamBreak(mode precision.Mode, cfg clamr.Config) (clamr.Runner, error) {
	if cfg.Bounds == (mesh.Bounds{}) {
		cfg.Bounds = mesh.UnitBounds
	}
	b := cfg.Bounds
	return clamr.New(mode, cfg, clamr.DamBreak(b, 10, 2, 0.15*b.Width(), 0.05*b.Width()))
}

// RunCLAMROpts executes the dam-break problem at one precision mode and
// collects the paper's measurables. lineCutN > 0 samples the height along
// the horizontal center line at that resolution.
func RunCLAMROpts(mode precision.Mode, cfg clamr.Config, steps, lineCutN int, opts RunOptions) (CLAMRResult, error) {
	var r clamr.Runner
	var err error
	if opts.Resume != nil {
		r, err = clamr.Load(mode, cfg, opts.Resume)
	} else {
		r, err = NewDamBreak(mode, cfg)
	}
	if err != nil {
		return CLAMRResult{}, err
	}
	start := time.Now()
	if err := stepUntil(opts, r, steps); err != nil {
		return CLAMRResult{}, err
	}
	wall := time.Since(start)

	res := CLAMRResult{
		Mode:       mode,
		Kernel:     cfg.Kernel,
		Steps:      steps,
		Cells:      r.Mesh().NumCells(),
		WallTime:   wall,
		Counters:   r.Counters(),
		StateBytes: r.StateBytes(),
		MassError:  r.MassError(),
	}
	res.FiniteDiffTime = r.Timer().Total("finite_diff")
	res.Phases = r.Timer().Totals()

	var sink countingWriter
	var ckptW io.Writer = &sink
	if opts.Checkpoint != nil {
		ckptW = io.MultiWriter(&sink, opts.Checkpoint)
	}
	n, err := r.WriteCheckpoint(ckptW)
	if err != nil {
		return CLAMRResult{}, err
	}
	res.CheckpointBytes = n

	if lineCutN > 0 {
		cut, err := CLAMRLineCut(r, lineCutN)
		if err != nil {
			return CLAMRResult{}, err
		}
		cut.Label = mode.String()
		res.LineCut = cut
	}
	return res, nil
}

// CLAMRLineCut samples the height along the horizontal line through the
// domain center at n points.
func CLAMRLineCut(r clamr.Runner, n int) (analysis.Series, error) {
	m := r.Mesh()
	img, err := m.Rasterize(r.HeightF64(), n, n)
	if err != nil {
		return analysis.Series{}, err
	}
	b := m.Bounds()
	xs := make([]float64, n)
	ys := make([]float64, n)
	row := n / 2
	for i := 0; i < n; i++ {
		xs[i] = b.XMin + (float64(i)+0.5)/float64(n)*b.Width()
		ys[i] = img[row*n+i]
	}
	return analysis.Series{Label: "height", X: xs, Y: ys}, nil
}

// Workload converts the run into an arch.Workload: measured counters plus
// the precision-independent mesh bookkeeping (cells × steps).
func (r CLAMRResult) Workload() arch.Workload {
	return arch.Workload{
		Counters:   r.Counters,
		Vectorized: r.Kernel == clamr.KernelFace,
		SerialOps:  uint64(r.Cells) * uint64(r.Steps),
		StateBytes: r.StateBytes,
	}
}

// countingWriter discards checkpoint bytes while letting WriteCheckpoint
// report sizes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// SELFResult captures one SELF run.
type SELFResult struct {
	Mode       precision.Mode
	MathMode   self.MathMode
	Steps      int
	DOF        int
	WallTime   time.Duration
	Counters   metrics.Counters
	StateBytes uint64
	// CheckpointBytes is the serialized checkpoint size; it is only
	// measured when RunOptions.Checkpoint captures the final state
	// (the plain SELF study does not checkpoint).
	CheckpointBytes int64
	LineCut         analysis.Series
	// Phases snapshots the solver's per-phase timer buckets (rhs, rk,
	// filter) in first-use order.
	Phases []metrics.PhaseTotal
}

// RunSELFOpts executes the thermal-bubble problem at one precision mode.
func RunSELFOpts(mode precision.Mode, cfg self.Config, steps, lineCutN int, opts RunOptions) (SELFResult, error) {
	var r self.Runner
	var err error
	if opts.Resume != nil {
		r, err = self.Load(mode, cfg, opts.Resume)
	} else {
		r, err = self.New(mode, cfg)
	}
	if err != nil {
		return SELFResult{}, err
	}
	start := time.Now()
	if err := stepUntil(opts, r, steps); err != nil {
		return SELFResult{}, err
	}
	wall := time.Since(start)
	res := SELFResult{
		Mode:       mode,
		MathMode:   cfg.MathMode,
		Steps:      steps,
		DOF:        r.DegreesOfFreedom(),
		WallTime:   wall,
		Counters:   r.Counters(),
		StateBytes: r.StateBytes(),
		Phases:     r.Timer().Totals(),
	}
	if opts.Checkpoint != nil {
		n, err := r.WriteCheckpoint(opts.Checkpoint)
		if err != nil {
			return SELFResult{}, err
		}
		res.CheckpointBytes = n
	}
	if lineCutN > 0 {
		xs, ys, err := r.LineX(self.FieldDensityAnomaly, lineCutN)
		if err != nil {
			return SELFResult{}, err
		}
		s, err := analysis.NewSeries(mode.String(), xs, ys)
		if err != nil {
			return SELFResult{}, err
		}
		res.LineCut = s
	}
	return res, nil
}

// Workload converts the run into an arch.Workload. SELF's spectral kernels
// vectorize naturally (dense small matrix sweeps), so the workload is
// marked vectorized; the Table IV study overrides this.
func (r SELFResult) Workload() arch.Workload {
	return arch.Workload{
		Counters:   r.Counters,
		Vectorized: true,
		SerialOps:  uint64(r.DOF) / 16, // light bookkeeping per node
		StateBytes: r.StateBytes,
	}
}

// Table is a formatted results table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row (padded or truncated to the header width).
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// WriteTo writes the rendered table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, t.String())
	return int64(n), err
}

// FormatDuration renders a duration in seconds with three significant
// decimals, matching the paper's table style.
func FormatDuration(d time.Duration) string {
	return fmt.Sprintf("%.3g", d.Seconds())
}

// FormatJoules renders an energy value.
func FormatJoules(j float64) string {
	return fmt.Sprintf("%.0f", j)
}

// FormatGB renders a byte count in GB.
func FormatGB(b uint64) string {
	return fmt.Sprintf("%.2f", float64(b)/1e9)
}

// FormatSpeedup renders a ratio as the paper's percentage speedup
// ("19%", "261%").
func FormatSpeedup(ratio float64) string {
	if ratio <= 0 || math.IsInf(ratio, 0) || math.IsNaN(ratio) {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", (ratio-1)*100)
}
