package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Result is the content-addressable outcome of one experiment. Everything
// except the timing fields is a deterministic function of the spec: the
// solvers are bit-identical across runs and worker counts, so counters,
// mass error, line cuts and the final-state hash can be cached and compared
// byte-for-byte. Timing fields are measured, vary run to run, and are
// excluded from Deterministic / ResultHash; a cached result reports the
// timings of the run that populated the cache.
type Result struct {
	Spec     ExperimentSpec `json:"spec"`
	SpecHash string         `json:"spec_hash"`

	Steps int `json:"steps"`
	// Cells (CLAMR) or DOF (SELF) sizes the final problem.
	Cells int `json:"cells,omitempty"`
	DOF   int `json:"dof,omitempty"`

	Counters metrics.Counters `json:"counters"`
	// StateBytes is the resident-state footprint. It includes per-chunk
	// solver scratch and therefore varies with the worker budget (an
	// execution detail outside the spec), so — like the timings — it is
	// excluded from Deterministic / ResultHash.
	StateBytes      uint64 `json:"state_bytes"`
	CheckpointBytes int64  `json:"checkpoint_bytes"`
	// MassError is CLAMR's conservation audit (always present for CLAMR,
	// including exact zeros; pointer so SELF omits it rather than claiming
	// a spurious 0).
	MassError *float64 `json:"mass_error,omitempty"`
	// StateHash is the SHA-256 of the final-state checkpoint bytes — the
	// strongest equality certificate two runs of one spec can exchange.
	StateHash string           `json:"state_hash"`
	LineCut   *analysis.Series `json:"line_cut,omitempty"`

	// Escalations, set by the serving layer, records the precision climbs
	// that produced this result when the submitted mode tripped a numerical
	// guard: Spec/SpecHash describe the mode that actually ran, Escalations
	// the rungs that failed on the way there. Empty for direct runs, so the
	// field is absent from (and cannot perturb) un-escalated payloads.
	Escalations []Escalation `json:"escalations,omitempty"`

	// Measured timings (non-deterministic; excluded from ResultHash).
	WallSeconds       float64 `json:"wall_seconds"`
	FiniteDiffSeconds float64 `json:"finite_diff_seconds,omitempty"`
	// Phases are the solver's per-phase wall-clock totals (the
	// metrics.Timer buckets) in first-use order. Measured, so excluded from
	// Deterministic / ResultHash like the other timings.
	Phases []metrics.PhaseTotal `json:"phases,omitempty"`
	// Trace, set by the serving layer, is the job's span timeline (queue
	// wait, attempts, retries, escalations, phase aggregates). Measured and
	// service-specific; excluded from Deterministic / ResultHash.
	Trace *obs.TraceData `json:"trace,omitempty"`
	// Energy, set by the serving layer, is the modeled energy/cost
	// accounting for the run: the executing node's arch profile applied to
	// the measured counters. Platform-specific, so excluded from
	// Deterministic / ResultHash like the timings.
	Energy *Energy `json:"energy,omitempty"`
}

// Energy is the modeled per-job energy/cost accounting: roofline-predicted
// runtime on the executing platform, joules at its nominal power, and
// cloud dollars for the compute plus checkpoint storage.
type Energy struct {
	// Arch names the platform profile used (e.g. "Haswell").
	Arch string `json:"arch"`
	// Watts is the platform's nominal power.
	Watts float64 `json:"watts"`
	// ModelSeconds is the roofline-predicted runtime over the measured
	// counters (not the measured wall time — comparable across hosts).
	ModelSeconds float64 `json:"model_seconds"`
	// Joules = Watts × ModelSeconds, the paper's energy estimate.
	Joules float64 `json:"joules"`
	// CostDollars prices the job's compute and checkpoint storage.
	CostDollars float64 `json:"cost_dollars"`
}

// Deterministic returns a copy with the execution-dependent fields zeroed
// (timings and the worker-budget-sensitive StateBytes) — the portion of the
// result that must be identical across reruns of the same spec.
func (r Result) Deterministic() Result {
	r.WallSeconds = 0
	r.FiniteDiffSeconds = 0
	r.StateBytes = 0
	r.Phases = nil
	r.Trace = nil
	r.Energy = nil
	return r
}

// ResultHash is the SHA-256 of the deterministic portion's JSON.
func (r Result) ResultHash() (string, error) {
	data, err := json.Marshal(r.Deterministic())
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// RunOpts carries the execution details that do not participate in the
// spec hash.
type RunOpts struct {
	// Progress is called after every completed step (absolute step, total).
	Progress func(step, total int)
	// Resume restores the solver from a checkpoint instead of the initial
	// condition; stepping continues to the spec's absolute step count.
	Resume io.Reader
	// Checkpoint receives a copy of the final-state checkpoint bytes.
	Checkpoint io.Writer
	// Workers is the solver's parallel chunk budget (≤1 = serial; 0 is
	// normalised to 1 by the solver). Results are bit-identical at every
	// setting.
	Workers int
	// GuardEvery sets the numerical-sentinel cadence (0 = the core
	// default; negative disables the periodic sentinels).
	GuardEvery int
	// CheckpointEvery, with CheckpointSink, writes an in-flight checkpoint
	// every this many steps so a crashed service can resume the job mid-run
	// (0 = none). Periodic checkpoints count toward StoreBytes, so runs of
	// one spec only stay byte-identical at equal cadence settings.
	CheckpointEvery int
	// CheckpointSink opens the periodic checkpoint destination for the
	// given absolute step; Close commits it.
	CheckpointSink func(step int) (io.WriteCloser, error)
}

// Run executes the spec and returns its result. The ctx cancels the run
// between steps (the returned error then wraps ctx.Err()). Failures come
// back as a typed *Error whose Kind the retry policy consumes: spec and
// construction problems are permanent, guard aborts numerical, deadline
// expiry a timeout.
func Run(ctx context.Context, spec ExperimentSpec, opts RunOpts) (*Result, error) {
	n, err := spec.Normalized()
	if err != nil {
		return nil, &Error{Kind: KindPermanent, Op: "spec", Err: err}
	}
	hash, err := n.Hash()
	if err != nil {
		return nil, &Error{Kind: KindPermanent, Op: "spec", Err: err}
	}
	mode, err := n.PrecisionMode()
	if err != nil {
		return nil, &Error{Kind: KindPermanent, Op: "spec", Err: err}
	}

	// The final checkpoint always streams through a hasher so every result
	// carries a state hash; the caller's sink, if any, is teed in.
	hasher := sha256.New()
	var ckpt io.Writer = hasher
	if opts.Checkpoint != nil {
		ckpt = io.MultiWriter(hasher, opts.Checkpoint)
	}
	copts := core.RunOptions{
		Ctx:             ctx,
		Progress:        opts.Progress,
		Resume:          opts.Resume,
		Checkpoint:      ckpt,
		GuardEvery:      opts.GuardEvery,
		CheckpointEvery: opts.CheckpointEvery,
		CheckpointSink:  opts.CheckpointSink,
	}

	res := &Result{Spec: n, SpecHash: hash, Steps: n.Steps}
	switch n.App {
	case AppCLAMR:
		cfg, err := n.CLAMRConfig(opts.Workers)
		if err != nil {
			return nil, &Error{Kind: KindPermanent, Op: "clamr config", Err: err}
		}
		r, err := core.RunCLAMROpts(mode, cfg, n.Steps, n.LineCutN, copts)
		if err != nil {
			return nil, wrapRunError("clamr run", err)
		}
		res.Cells = r.Cells
		res.Counters = r.Counters
		res.StateBytes = r.StateBytes
		res.CheckpointBytes = r.CheckpointBytes
		me := r.MassError
		res.MassError = &me
		res.WallSeconds = r.WallTime.Seconds()
		res.FiniteDiffSeconds = r.FiniteDiffTime.Seconds()
		res.Phases = r.Phases
		if n.LineCutN > 0 {
			lc := r.LineCut
			res.LineCut = &lc
		}
	case AppSELF:
		cfg, err := n.SELFConfig(opts.Workers)
		if err != nil {
			return nil, &Error{Kind: KindPermanent, Op: "self config", Err: err}
		}
		r, err := core.RunSELFOpts(mode, cfg, n.Steps, n.LineCutN, copts)
		if err != nil {
			return nil, wrapRunError("self run", err)
		}
		res.DOF = r.DOF
		res.Counters = r.Counters
		res.StateBytes = r.StateBytes
		res.CheckpointBytes = r.CheckpointBytes
		res.WallSeconds = r.WallTime.Seconds()
		res.Phases = r.Phases
		if n.LineCutN > 0 {
			lc := r.LineCut
			res.LineCut = &lc
		}
	default:
		return nil, &Error{Kind: KindPermanent, Op: "spec", Err: fmt.Errorf("unknown app %q", n.App)}
	}
	res.StateHash = hex.EncodeToString(hasher.Sum(nil))
	return res, nil
}
