// Package precision defines the precision vocabulary of the study: the
// floating-point modes the paper compares (minimum, mixed, full, plus a
// half-precision extension), the generic Real constraint the solvers are
// parameterised by, and error-measurement utilities (ulps, relative error,
// agreement digits) used to assess correctness under reduced precision.
//
// The paper's three CLAMR compile options map directly onto (storage,
// compute) type pairs:
//
//	Min   — float32 storage, float32 compute ("single precision throughout")
//	Mixed — float32 storage, float64 compute ("large physical state arrays
//	        in single, local calculations promoted to double")
//	Full  — float64 storage, float64 compute
//
// Half is this repository's forward-looking extension (paper §VIII):
// binary16 storage with float32 compute, using the software half in
// internal/fp16.
package precision

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/fp16"
)

// ErrNumericalFailure marks a run aborted by a numerical guard: a
// non-finite field value, a non-positive density, a blown-up timestep, or
// mass-conservation drift beyond the storage precision's tolerance. The
// solvers wrap it (errors.Is-matchable) so the serving layer can
// distinguish "this precision was not enough for this problem" — and
// escalate along Mode.Next — from plain execution failures.
var ErrNumericalFailure = errors.New("numerical failure")

// Real is the constraint satisfied by the native floating-point types a
// solver can store or compute in.
type Real interface {
	~float32 | ~float64
}

// Sizeof returns the width in bytes of one T (4 or 8), decided by whether
// 2²⁴+1 survives the conversion, so a named type in Real's type set answers
// by its underlying width.
func Sizeof[T Real]() int {
	const odd = 1<<24 + 1
	if float64(T(odd)) != odd {
		return 4
	}
	return 8
}

// Abs returns |x| at x's own precision.
func Abs[T Real](x T) T {
	if x < 0 {
		return -x
	}
	return x
}

// Mode identifies a (storage, compute) precision pairing.
type Mode int

const (
	// Half stores state in software binary16 and computes in float32.
	Half Mode = iota
	// Min stores and computes in float32.
	Min
	// Mixed stores state in float32 and computes locally in float64.
	Mixed
	// Full stores and computes in float64.
	Full
)

// Ladder orders every mode cheapest-first. It is the one definition of
// rung order: escalation after a numerical failure climbs it (Next),
// autotune demotion descends it (Prev), and campaign ladders and client
// tables list modes in it.
var Ladder = []Mode{Half, Min, Mixed, Full}

// Modes lists the paper's three modes in presentation order: the ladder
// without the Half extension.
var Modes = Ladder[1:]

// String returns the mode name as used in the paper's tables.
func (m Mode) String() string {
	switch m {
	case Half:
		return "Half"
	case Min:
		return "Min"
	case Mixed:
		return "Mixed"
	case Full:
		return "Full"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Parse converts a case-insensitive mode name ("min", "mixed", "full",
// "half"; "single" and "double" are accepted as aliases for Min and Full)
// into a Mode.
func Parse(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "half", "fp16", "binary16":
		return Half, nil
	case "min", "minimum", "single", "fp32", "float32":
		return Min, nil
	case "mixed":
		return Mixed, nil
	case "full", "double", "fp64", "float64":
		return Full, nil
	default:
		return Full, fmt.Errorf("precision: unknown mode %q", s)
	}
}

// Name returns the canonical lowercase spelling ("half", "min", "mixed",
// "full") — the form specs, journals and the HTTP API carry, and the one
// Parse maps every alias onto.
func (m Mode) Name() string { return strings.ToLower(m.String()) }

// Rank returns the mode's position on Ladder (0 = cheapest), or -1 for a
// value that is not a mode.
func (m Mode) Rank() int { return slices.Index(Ladder, m) }

// Next returns the next rung up Ladder; ok is false at the top. This is
// the order the serving layer climbs when a reduced-precision run trips
// ErrNumericalFailure — the paper's "thoughtful precision" applied as a
// recovery policy rather than a static choice.
func (m Mode) Next() (Mode, bool) {
	if r := m.Rank(); r >= 0 && r+1 < len(Ladder) {
		return Ladder[r+1], true
	}
	return Full, false
}

// Prev returns the next rung down Ladder — the demotion direction; ok is
// false at the bottom.
func (m Mode) Prev() (Mode, bool) {
	if r := m.Rank(); r > 0 {
		return Ladder[r-1], true
	}
	return Half, false
}

// StorageBytes returns the size in bytes of one stored state scalar.
func (m Mode) StorageBytes() int {
	switch m {
	case Half:
		return 2
	case Min, Mixed:
		return 4
	default:
		return 8
	}
}

// ComputeBytes returns the size in bytes of one compute scalar.
func (m Mode) ComputeBytes() int {
	switch m {
	case Half, Min:
		return 4
	default:
		return 8
	}
}

// StorageMantissaBits returns the significand precision (including the
// implicit bit) of the storage format.
func (m Mode) StorageMantissaBits() int {
	switch m {
	case Half:
		return 11
	case Min, Mixed:
		return 24
	default:
		return 53
	}
}

// ComputeMantissaBits returns the significand precision (including the
// implicit bit) of the compute format.
func (m Mode) ComputeMantissaBits() int {
	if m == Half || m == Min {
		return 24
	}
	return 53
}

// Valid reports whether m is one of the defined modes.
func (m Mode) Valid() bool { return m >= Half && m <= Full }

// Ulp64 returns the unit in the last place of x as a float64: the gap
// between x and the next float64 of larger magnitude.
func Ulp64(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return math.NaN()
	}
	a := math.Abs(x)
	next := math.Nextafter(a, math.Inf(1))
	if math.IsInf(next, 1) {
		return a - math.Nextafter(a, 0)
	}
	return next - a
}

// Ulp32 returns the unit in the last place of x as a float32, widened.
func Ulp32(x float32) float64 {
	if x != x || math.IsInf(float64(x), 0) {
		return math.NaN()
	}
	a := float32(math.Abs(float64(x)))
	next := math.Nextafter32(a, float32(math.Inf(1)))
	if math.IsInf(float64(next), 1) {
		return float64(a) - float64(math.Nextafter32(a, 0))
	}
	return float64(next) - float64(a)
}

// UlpError returns |got-want| measured in ulps of want at 64-bit precision.
// It returns 0 when both are equal (including both zero) and +Inf when want
// is zero but got is not.
func UlpError(got, want float64) float64 {
	if got == want {
		return 0
	}
	if want == 0 {
		return math.Inf(1)
	}
	return math.Abs(got-want) / Ulp64(want)
}

// RelError returns |got-want| / |want|, or |got| when want is zero.
func RelError(got, want float64) float64 {
	d := math.Abs(got - want)
	if want == 0 {
		return d
	}
	return d / math.Abs(want)
}

// AgreementDigits returns the number of decimal digits on which got and
// want agree: -log10 of the relative error, clamped to [0, 17]. Two equal
// values agree to 17 digits (full float64).
func AgreementDigits(got, want float64) float64 {
	r := RelError(got, want)
	if r == 0 {
		return 17
	}
	d := -math.Log10(r)
	return math.Min(17, math.Max(0, d))
}

// RoundMantissa rounds x to a float64 carrying only bits significand bits
// (including the implicit bit), rounding to nearest even. It is used to
// emulate arbitrary intermediate precisions in precision-sensitivity
// experiments. bits must be in [1, 53]; values outside are clamped.
func RoundMantissa(x float64, bitsN int) float64 {
	if bitsN >= 53 || math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
		return x
	}
	if bitsN < 1 {
		bitsN = 1
	}
	// Veltkamp-style splitting: adding and subtracting 2^(52-bits+1)·|x|'s
	// binade forces the low bits to round away.
	frac, exp := math.Frexp(x)
	scale := math.Ldexp(1, bitsN) // frac in [0.5,1): frac*2^bits has `bits` integer bits
	r := math.RoundToEven(frac*scale) / scale
	return math.Ldexp(r, exp)
}

// Demote rounds x through the storage format of mode m and back to
// float64, modelling a store-then-load through reduced-precision memory.
// Half demotion is bit-exact binary16 via internal/fp16.
func (m Mode) Demote(x float64) float64 {
	switch m {
	case Half:
		return fp16.FromFloat64(x).Float64()
	case Min, Mixed:
		return float64(float32(x))
	default:
		return x
	}
}
