package campaign

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/precision"
	"repro/internal/runner"
)

// Generator is a validated, pure index→spec mapping. At(i) depends on the
// generator spec and i alone — no internal cursor, no accumulated state —
// so the same generator expands to the same ordered spec sequence on every
// incarnation, which is the contract journal replay relies on.
type Generator struct {
	spec  GeneratorSpec
	total int64
	rungs []string // ladder kind, canonical spellings
}

// NewGenerator validates the spec and returns its expander.
func NewGenerator(gs GeneratorSpec) (*Generator, error) {
	g := &Generator{spec: gs}
	kind := strings.ToLower(strings.TrimSpace(gs.Kind))
	g.spec.Kind = kind
	for _, ax := range gs.Axes {
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("campaign: axis %q has no values", ax.Field)
		}
		if !knownField(ax.Field) {
			return nil, fmt.Errorf("campaign: unknown axis field %q", ax.Field)
		}
	}
	switch kind {
	case KindGrid:
		total := int64(1)
		for _, ax := range gs.Axes {
			n := int64(len(ax.Values))
			if total > math.MaxInt64/n {
				return nil, fmt.Errorf("campaign: grid expansion overflows int64")
			}
			total *= n
		}
		g.total = total
	case KindEnsemble:
		if gs.Draws <= 0 {
			return nil, fmt.Errorf("campaign: ensemble needs positive draws, got %d", gs.Draws)
		}
		if len(gs.Axes) == 0 {
			return nil, fmt.Errorf("campaign: ensemble needs at least one axis to sample")
		}
		g.total = int64(gs.Draws)
	case KindLadder:
		rungs := gs.Rungs
		if len(rungs) == 0 {
			for _, m := range precision.Modes { // the paper's three, in ladder order
				rungs = append(rungs, m.Name())
			}
		}
		for _, r := range rungs {
			// "auto" is a valid rung: the scheduler's autotuner resolves it
			// per-point at admission, so an auto rung in a ladder compares
			// the learned mode against the explicit ones.
			if strings.ToLower(strings.TrimSpace(r)) == runner.ModeAuto {
				g.rungs = append(g.rungs, runner.ModeAuto)
				continue
			}
			m, err := precision.Parse(r)
			if err != nil {
				return nil, fmt.Errorf("campaign: ladder rung: %w", err)
			}
			g.rungs = append(g.rungs, m.Name())
		}
		g.total = int64(len(g.rungs))
	default:
		return nil, fmt.Errorf("campaign: unknown generator kind %q (want %q, %q or %q)",
			gs.Kind, KindGrid, KindEnsemble, KindLadder)
	}
	// Probe the first expansion so a base/axes combination that can never
	// normalize is rejected at submit time, not a million indices later.
	if g.total > 0 {
		spec, err := g.At(0)
		if err != nil {
			return nil, err
		}
		if _, err := spec.Normalized(); err != nil {
			return nil, fmt.Errorf("campaign: first expanded spec invalid: %w", err)
		}
	}
	return g, nil
}

// Total is the exact expansion size.
func (g *Generator) Total() int64 { return g.total }

// Kind returns the canonical generator kind.
func (g *Generator) Kind() string { return g.spec.Kind }

// At materializes spec i. An error means the index decoded to values the
// spec fields cannot hold (e.g. a fractional value on an int field);
// callers record such indices as failed entries and move on.
func (g *Generator) At(i int64) (runner.ExperimentSpec, error) {
	if i < 0 || i >= g.total {
		return runner.ExperimentSpec{}, fmt.Errorf("campaign: index %d out of range [0, %d)", i, g.total)
	}
	spec := g.spec.Base
	switch g.spec.Kind {
	case KindGrid:
		// Mixed-radix decode, axes[0] slowest: the order a nested loop
		// over axes in declaration order would produce.
		rem := i
		for k := len(g.spec.Axes) - 1; k >= 0; k-- {
			ax := g.spec.Axes[k]
			n := int64(len(ax.Values))
			if err := applyField(&spec, ax.Field, ax.Values[rem%n]); err != nil {
				return spec, err
			}
			rem /= n
		}
	case KindEnsemble:
		// One independent, well-mixed stream per index: O(1) random access
		// and draw i is identical no matter which draws ran before it.
		rng := rand.New(rand.NewSource(int64(mix64(uint64(g.spec.Seed) ^ mix64(uint64(i)+1)))))
		for _, ax := range g.spec.Axes {
			if err := applyField(&spec, ax.Field, ax.Values[rng.Intn(len(ax.Values))]); err != nil {
				return spec, err
			}
		}
	case KindLadder:
		spec.Mode = g.rungs[i]
	}
	return spec, nil
}

// mix64 is SplitMix64's finalizer — a cheap, high-quality bijection used
// to decorrelate per-index ensemble seeds.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func knownField(f string) bool {
	switch strings.ToLower(strings.TrimSpace(f)) {
	case "app", "mode", "steps", "line_cut_n",
		"nx", "ny", "max_level", "kernel", "amr_interval", "dry_tol",
		"elements", "order", "math_mode",
		"max_mass_error", "max_linecut_linf":
		return true
	}
	return false
}

// applyField sets one ExperimentSpec field by its JSON name. Values come
// from encoding/json, so numbers arrive as float64; strings are accepted
// for every field and parsed as needed.
func applyField(s *runner.ExperimentSpec, field string, v any) error {
	f := strings.ToLower(strings.TrimSpace(field))
	switch f {
	case "app", "mode", "kernel", "math_mode":
		sv, err := asString(v)
		if err != nil {
			return fmt.Errorf("campaign: axis %q: %w", field, err)
		}
		switch f {
		case "app":
			s.App = sv
		case "mode":
			s.Mode = sv
		case "kernel":
			s.Kernel = sv
		case "math_mode":
			s.MathMode = sv
		}
	case "dry_tol", "max_mass_error", "max_linecut_linf":
		fv, err := asFloat(v)
		if err != nil {
			return fmt.Errorf("campaign: axis %q: %w", field, err)
		}
		switch f {
		case "dry_tol":
			s.DryTol = fv
		case "max_mass_error":
			s.MaxMassError = fv
		case "max_linecut_linf":
			s.MaxLinecutLinf = fv
		}
	default:
		iv, err := asInt(v)
		if err != nil {
			return fmt.Errorf("campaign: axis %q: %w", field, err)
		}
		switch f {
		case "steps":
			s.Steps = iv
		case "line_cut_n":
			s.LineCutN = iv
		case "nx":
			s.NX = iv
		case "ny":
			s.NY = iv
		case "max_level":
			s.MaxLevel = iv
		case "amr_interval":
			s.AMRInterval = iv
		case "elements":
			s.Elements = iv
		case "order":
			s.Order = iv
		default:
			return fmt.Errorf("campaign: unknown axis field %q", field)
		}
	}
	return nil
}

func asString(v any) (string, error) {
	if s, ok := v.(string); ok {
		return s, nil
	}
	return "", fmt.Errorf("want string, got %T", v)
}

func asFloat(v any) (float64, error) {
	switch t := v.(type) {
	case float64:
		return t, nil
	case int:
		return float64(t), nil
	case string:
		return strconv.ParseFloat(t, 64)
	}
	return 0, fmt.Errorf("want number, got %T", v)
}

func asInt(v any) (int, error) {
	switch t := v.(type) {
	case int:
		return t, nil
	case float64:
		if t != math.Trunc(t) {
			return 0, fmt.Errorf("want integer, got %v", t)
		}
		return int(t), nil
	case string:
		return strconv.Atoi(t)
	}
	return 0, fmt.Errorf("want integer, got %T", v)
}
