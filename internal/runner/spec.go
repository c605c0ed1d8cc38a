// Package runner is the experiment-execution core of the serving stack: a
// canonical, content-addressable description of one mini-app experiment
// (ExperimentSpec), its deterministic execution (Run), and the paper-sweep
// harness cmd/paperbench drives (PaperSweep).
//
// The spec hash is the cache key of the experiment service
// (internal/serve), so its derivation is a compatibility contract:
// normalized spec → fixed-field-order JSON → SHA-256 over a versioned
// preamble. Two specs that normalize identically always hash identically;
// any change to the canonical encoding must bump specHashVersion.
//
// Determinism contract for cache keys: a spec intentionally excludes
// execution details that cannot change results — worker counts (all
// parallel sweeps are bit-identical at any worker count, DESIGN.md §5),
// output destinations, timeouts. It includes every field that feeds the
// numerics: problem shape, precision mode, kernel/math variant, step count
// and line-cut resolution.
package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/clamr"
	"repro/internal/precision"
	"repro/internal/self"
)

// specHashVersion is folded into every spec hash so a change to the
// canonical encoding invalidates old cache entries instead of aliasing them.
const specHashVersion = "precision-spec-v1"

// specHashVersionAuto addresses specs that carry autotune inputs — mode
// "auto" or an accuracy budget. Concrete specs without budgets keep hashing
// under specHashVersion (their canonical JSON is byte-identical to v1 thanks
// to omitempty), so the deterministic cache/dedup contract is untouched.
const specHashVersionAuto = "precision-spec-v2"

// ModeAuto asks the service to resolve the cheapest concrete precision mode
// that the fleet's accumulated fidelity evidence shows meets the spec's
// accuracy budget (internal/serve/autotune). Auto specs are resolved to a
// concrete mode at admission; only concrete specs execute or hit the cache.
const ModeAuto = "auto"

// App names.
const (
	AppCLAMR = "clamr"
	AppSELF  = "self"
)

// ExperimentSpec canonically describes one mini-app experiment: which app,
// at which precision, on which problem, for how many steps. JSON field
// order is fixed by the struct declaration; Normalized canonicalizes the
// enum spellings and zeroes fields foreign to the app so equivalent
// submissions collapse onto one hash.
type ExperimentSpec struct {
	// App is "clamr" or "self".
	App string `json:"app"`
	// Mode is the precision mode: "half", "min", "mixed" or "full"
	// (aliases accepted by precision.Parse normalize onto these).
	Mode string `json:"mode"`
	// Steps is the absolute step count to run to.
	Steps int `json:"steps"`
	// LineCutN samples the solution line cut at this resolution (0 = none).
	LineCutN int `json:"line_cut_n,omitempty"`

	// CLAMR problem shape (zeroed for SELF specs).
	NX          int     `json:"nx,omitempty"`
	NY          int     `json:"ny,omitempty"`
	MaxLevel    int     `json:"max_level,omitempty"`
	Kernel      string  `json:"kernel,omitempty"` // "unvectorized" | "vectorized"
	AMRInterval int     `json:"amr_interval,omitempty"`
	DryTol      float64 `json:"dry_tol,omitempty"`

	// SELF problem shape (zeroed for CLAMR specs).
	Elements int    `json:"elements,omitempty"`
	Order    int    `json:"order,omitempty"`
	MathMode string `json:"math_mode,omitempty"` // "intel-native" | "gnu-promoted"

	// Accuracy budgets for mode "auto" (zero = unconstrained on that
	// axis). MaxMassError bounds the final relative mass error;
	// MaxLinecutLinf bounds the L∞ distance of the line cut from the
	// full-precision reference. Specs carrying either (or mode "auto")
	// hash under specHashVersionAuto; resolution strips them, so the
	// concrete spec that executes keeps its v1 hash.
	MaxMassError   float64 `json:"max_mass_error,omitempty"`
	MaxLinecutLinf float64 `json:"max_linecut_linf,omitempty"`
}

// ParseKernel normalizes a kernel name. Accepted: "", "face", "vectorized"
// (the vectorized face kernel, the default) and "cell", "unvectorized".
func ParseKernel(s string) (clamr.Kernel, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "face", "vectorized":
		return clamr.KernelFace, nil
	case "cell", "unvectorized":
		return clamr.KernelCell, nil
	default:
		return clamr.KernelFace, fmt.Errorf("runner: unknown kernel %q", s)
	}
}

// ParseMathMode normalizes a SELF math-mode name. Accepted: "", "native",
// "intel", "intel-native" and "promoted", "gnu", "gnu-promoted".
func ParseMathMode(s string) (self.MathMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "native", "intel", "intel-native":
		return self.MathNative, nil
	case "promoted", "gnu", "gnu-promoted":
		return self.MathPromoted, nil
	default:
		return self.MathNative, fmt.Errorf("runner: unknown math mode %q", s)
	}
}

// Normalized validates the spec and returns its canonical form: enum
// spellings canonicalized, fields foreign to the app zeroed. The canonical
// form is what CanonicalJSON serializes and Hash addresses.
func (s ExperimentSpec) Normalized() (ExperimentSpec, error) {
	out := ExperimentSpec{
		App:            strings.ToLower(strings.TrimSpace(s.App)),
		Steps:          s.Steps,
		LineCutN:       s.LineCutN,
		MaxMassError:   s.MaxMassError,
		MaxLinecutLinf: s.MaxLinecutLinf,
	}
	if s.MaxMassError < 0 {
		return out, fmt.Errorf("runner: spec: max_mass_error must be non-negative, got %g", s.MaxMassError)
	}
	if s.MaxLinecutLinf < 0 {
		return out, fmt.Errorf("runner: spec: max_linecut_linf must be non-negative, got %g", s.MaxLinecutLinf)
	}
	if s.IsAuto() {
		out.Mode = ModeAuto
	} else {
		mode, err := precision.Parse(s.Mode)
		if err != nil {
			return out, fmt.Errorf("runner: spec: %w", err)
		}
		out.Mode = mode.Name()
	}
	if s.Steps <= 0 {
		return out, fmt.Errorf("runner: spec: steps must be positive, got %d", s.Steps)
	}
	if s.LineCutN < 0 {
		return out, fmt.Errorf("runner: spec: line_cut_n must be non-negative, got %d", s.LineCutN)
	}
	switch out.App {
	case AppCLAMR:
		if s.NX <= 0 || s.NY <= 0 {
			return out, fmt.Errorf("runner: spec: clamr needs positive nx/ny, got %d×%d", s.NX, s.NY)
		}
		if s.MaxLevel < 0 {
			return out, fmt.Errorf("runner: spec: max_level must be non-negative, got %d", s.MaxLevel)
		}
		k, err := ParseKernel(s.Kernel)
		if err != nil {
			return out, err
		}
		out.NX, out.NY = s.NX, s.NY
		out.MaxLevel = s.MaxLevel
		out.Kernel = k.String()
		out.AMRInterval = s.AMRInterval
		out.DryTol = s.DryTol
	case AppSELF:
		if s.Elements <= 0 || s.Order <= 0 {
			return out, fmt.Errorf("runner: spec: self needs positive elements/order, got %d/%d", s.Elements, s.Order)
		}
		mm, err := ParseMathMode(s.MathMode)
		if err != nil {
			return out, err
		}
		out.Elements, out.Order = s.Elements, s.Order
		out.MathMode = mm.String()
	default:
		return out, fmt.Errorf("runner: spec: unknown app %q (want %q or %q)", s.App, AppCLAMR, AppSELF)
	}
	return out, nil
}

// CanonicalJSON returns the deterministic serialization of the normalized
// spec: struct fields in declaration order, canonical enum spellings,
// zero-valued foreign fields omitted.
func (s ExperimentSpec) CanonicalJSON() ([]byte, error) {
	n, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// Hash returns the spec's content address: the lowercase hex SHA-256 of the
// versioned canonical JSON. Equivalent specs (alias spellings, junk foreign
// fields) hash identically; any result-affecting difference hashes apart.
func (s ExperimentSpec) Hash() (string, error) {
	n, err := s.Normalized()
	if err != nil {
		return "", err
	}
	cj, err := json.Marshal(n)
	if err != nil {
		return "", err
	}
	version := specHashVersion
	if n.Mode == ModeAuto || n.MaxMassError != 0 || n.MaxLinecutLinf != 0 {
		version = specHashVersionAuto
	}
	h := sha256.New()
	h.Write([]byte(version))
	h.Write([]byte{'\n'})
	h.Write(cj)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// IsAuto reports whether the spec requests service-side mode resolution.
func (s ExperimentSpec) IsAuto() bool {
	return strings.ToLower(strings.TrimSpace(s.Mode)) == ModeAuto
}

// Concrete returns the spec resolved to the given precision mode, with the
// accuracy budgets stripped: the executable form whose canonical JSON — and
// therefore hash — is byte-identical to a plain v1 submission of the same
// shape at that mode.
func (s ExperimentSpec) Concrete(mode string) ExperimentSpec {
	out := s
	out.Mode = mode
	out.MaxMassError = 0
	out.MaxLinecutLinf = 0
	return out
}

// PrecisionMode returns the spec's parsed precision mode.
func (s ExperimentSpec) PrecisionMode() (precision.Mode, error) {
	return precision.Parse(s.Mode)
}

// CLAMRConfig materializes the CLAMR configuration the spec describes.
// workers sets the parallel chunk budget (≤1 = serial; 0 is normalised to
// 1 by the solver); it is an execution detail, never part of the hash.
func (s ExperimentSpec) CLAMRConfig(workers int) (clamr.Config, error) {
	if s.App != AppCLAMR {
		return clamr.Config{}, fmt.Errorf("runner: spec is for app %q, not clamr", s.App)
	}
	k, err := ParseKernel(s.Kernel)
	if err != nil {
		return clamr.Config{}, err
	}
	return clamr.Config{
		NX: s.NX, NY: s.NY,
		MaxLevel:    s.MaxLevel,
		Kernel:      k,
		AMRInterval: s.AMRInterval,
		DryTol:      s.DryTol,
		Workers:     workers,
	}, nil
}

// SELFConfig materializes the SELF configuration the spec describes.
func (s ExperimentSpec) SELFConfig(workers int) (self.Config, error) {
	if s.App != AppSELF {
		return self.Config{}, fmt.Errorf("runner: spec is for app %q, not self", s.App)
	}
	mm, err := ParseMathMode(s.MathMode)
	if err != nil {
		return self.Config{}, err
	}
	return self.Config{
		Elements: s.Elements,
		Order:    s.Order,
		MathMode: mm,
		Workers:  workers,
	}, nil
}

// CLAMRSpec builds the spec describing a CLAMR study run with the given
// configuration — the inverse of CLAMRConfig, used to mirror the paper
// sweep's session runs onto the experiment service.
func CLAMRSpec(mode precision.Mode, cfg clamr.Config, steps, lineCutN int) ExperimentSpec {
	return ExperimentSpec{
		App:      AppCLAMR,
		Mode:     mode.Name(),
		Steps:    steps,
		LineCutN: lineCutN,
		NX:       cfg.NX, NY: cfg.NY,
		MaxLevel:    cfg.MaxLevel,
		Kernel:      cfg.Kernel.String(),
		AMRInterval: cfg.AMRInterval,
		DryTol:      cfg.DryTol,
	}
}

// SELFSpec builds the spec describing a SELF study run.
func SELFSpec(mode precision.Mode, cfg self.Config, steps, lineCutN int) ExperimentSpec {
	return ExperimentSpec{
		App:      AppSELF,
		Mode:     mode.Name(),
		Steps:    steps,
		LineCutN: lineCutN,
		Elements: cfg.Elements,
		Order:    cfg.Order,
		MathMode: cfg.MathMode.String(),
	}
}
