// Package reduce implements the global-sum algorithms the paper identifies
// (§III.C) as the most precision-sensitive part of numerical calculations:
// compensated summation (Kahan, Neumaier), pairwise summation, double-double
// accumulation, a pre-rounding reproducible sum in the style of Demmel and
// Nguyen, and an exact Kulisch long accumulator in the style of ExBLAS.
//
// The reproducible methods return bit-identical results under any permutation
// of the input and any degree of parallel decomposition — the property that
// lets the rest of a calculation run at reduced precision while the global
// reductions stay trustworthy.
package reduce

import (
	"math"
	"slices"
)

// Method identifies a summation algorithm.
type Method int

const (
	// Naive is left-to-right recursive summation.
	Naive Method = iota
	// Kahan is classic compensated summation.
	Kahan
	// Neumaier is Kahan-Babuška summation, robust when addends exceed the
	// running sum in magnitude.
	Neumaier
	// Pairwise is recursive pairwise (cascade) summation.
	Pairwise
	// DoubleDouble accumulates in ~106-bit double-double arithmetic.
	DoubleDouble
	// Reproducible is a two-pass pre-rounding sum (Demmel–Nguyen style):
	// permutation-invariant and deterministic in parallel.
	Reproducible
	// LongAcc is an exact Kulisch long-accumulator sum: every float64 is
	// added to a 2144-bit fixed-point register with no rounding at all.
	LongAcc
)

// Methods lists all summation methods in presentation order.
var Methods = []Method{Naive, Kahan, Neumaier, Pairwise, DoubleDouble, Reproducible, LongAcc}

// String returns the method name.
func (m Method) String() string {
	switch m {
	case Naive:
		return "naive"
	case Kahan:
		return "kahan"
	case Neumaier:
		return "neumaier"
	case Pairwise:
		return "pairwise"
	case DoubleDouble:
		return "double-double"
	case Reproducible:
		return "reproducible"
	case LongAcc:
		return "long-accumulator"
	default:
		return "unknown"
	}
}

// IsReproducible reports whether the method yields bit-identical results
// under permutation and parallel decomposition of the input.
func (m Method) IsReproducible() bool { return m == Reproducible || m == LongAcc }

// Sum computes the sum of xs with the given method.
func Sum(xs []float64, m Method) float64 {
	switch m {
	case Naive:
		return SumNaive(xs)
	case Kahan:
		return SumKahan(xs)
	case Neumaier:
		return SumNeumaier(xs)
	case Pairwise:
		return SumPairwise(xs)
	case DoubleDouble:
		return SumDoubleDouble(xs).Float64()
	case Reproducible:
		return SumReproducible(xs)
	case LongAcc:
		acc := NewLongAccumulator()
		for _, x := range xs {
			acc.Add(x)
		}
		return acc.Round()
	default:
		return SumNaive(xs)
	}
}

// SumNaive is left-to-right recursive summation — the baseline whose error
// grows like O(n·u·Σ|x|).
func SumNaive(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// SumKahan is compensated summation: the rounding error of every addition
// is recovered and fed back, giving error independent of n for well-scaled
// data. It loses compensation when an addend exceeds the running sum.
func SumKahan(xs []float64) float64 {
	var s, c float64
	for _, x := range xs {
		y := x - c
		t := s + y
		c = (t - s) - y
		s = t
	}
	return s
}

// SumNeumaier is Kahan–Babuška summation: like Kahan but the branch keeps
// the compensation valid when |x| > |s|.
func SumNeumaier(xs []float64) float64 {
	var s, c float64
	for _, x := range xs {
		t := s + x
		if math.IsInf(t, 0) {
			// Compensation would be Inf-Inf = NaN; the sum has left the
			// finite range, so propagate the infinity IEEE-style.
			s, c = t, 0
			continue
		}
		if math.Abs(s) >= math.Abs(x) {
			c += (s - t) + x
		} else {
			c += (x - t) + s
		}
		s = t
	}
	return s + c
}

// pairwiseBase is the block size below which pairwise summation falls back
// to the naive loop. 128 keeps the recursion shallow while bounding the
// per-block error contribution.
const pairwiseBase = 128

// SumPairwise is cascade summation with O(log n) error growth.
func SumPairwise(xs []float64) float64 {
	if len(xs) <= pairwiseBase {
		return SumNaive(xs)
	}
	mid := len(xs) / 2
	return SumPairwise(xs[:mid]) + SumPairwise(xs[mid:])
}

// SumDoubleDouble accumulates the input in double-double (~106-bit)
// arithmetic and returns the unevaluated pair.
func SumDoubleDouble(xs []float64) DD {
	var acc DD
	for _, x := range xs {
		acc = acc.AddFloat(x)
	}
	return acc
}

// SumReproducible computes a permutation-invariant sum by pre-rounding every
// addend to a common ulp boundary chosen from the global maximum magnitude
// (Demmel & Nguyen's 1-reduction scheme), so that the subsequent additions
// are exact in float64 and therefore order-independent. The discarded low
// bits are themselves summed the same way at a finer boundary, in up to
// three folds, recovering near-full accuracy. xs is not modified.
func SumReproducible(xs []float64) float64 {
	return SumReproducibleInPlace(slices.Clone(xs))
}

// SumReproducibleInPlace is SumReproducible computed in xs itself: the
// folds overwrite it with their remainders instead of a copy. A caller that
// fills a scratch buffer with the addends of one sum saves the copy and the
// allocation; the result is bit-identical.
func SumReproducibleInPlace(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	maxAbs := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > maxAbs || math.IsNaN(a) {
			maxAbs = a
		}
	}
	if maxAbs == 0 || math.IsInf(maxAbs, 0) || math.IsNaN(maxAbs) {
		return SumNaive(xs) // propagate zeros/infs/NaNs conventionally
	}
	n := len(xs)
	// Bits needed so that n additions of pre-rounded values are exact:
	// each addend is a multiple of the slice ulp and |sum| < n·maxAbs,
	// so a float64 holds it exactly if log2(n)+foldBits ≤ 53.
	logN := 0
	for 1<<logN < n {
		logN++
	}
	foldBits := 52 - logN - 1
	if foldBits < 2 {
		// Astronomically long inputs: fall back to double-double, which
		// is order-sensitive only below the 2^-106 level.
		return SumDoubleDouble(xs).Float64()
	}

	const folds = 3
	var total DD
	boundary := math.Ldexp(1, ilogb(maxAbs)-foldBits+1)
	rem := xs
	for f := 0; f < folds; f++ {
		var s float64 // exact: all addends share the boundary's grid
		allZero := true
		for i, x := range rem {
			q := prround(x, boundary)
			s += q
			rem[i] = x - q // exact (Sterbenz-style: q is x rounded to a coarser grid)
			if rem[i] != 0 {
				allZero = false
			}
		}
		total = total.AddFloat(s)
		if allZero {
			break
		}
		// Every float64 is an exact multiple of 2^-1074, so the grid never
		// needs to be finer than that; at that grid the next fold is exact
		// and leaves zero remainders.
		boundary = math.Ldexp(boundary, -foldBits)
		if boundary == 0 {
			boundary = math.Ldexp(1, -1074)
		}
	}
	return total.Float64()
}

// prround rounds x to the nearest multiple of boundary (ties to even).
// boundary must be a power of two.
func prround(x, boundary float64) float64 {
	return math.RoundToEven(x/boundary) * boundary
}

// ilogb returns floor(log2(|x|)) for finite nonzero x.
func ilogb(x float64) int {
	_, e := math.Frexp(x)
	return e - 1
}

// Min returns the minimum of xs (order-independent by construction); it
// returns +Inf for an empty slice. NaNs are ignored unless all entries are
// NaN, in which case NaN is returned.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	sawNumber := false
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		sawNumber = true
		if x < m {
			m = x
		}
	}
	if !sawNumber && len(xs) > 0 {
		return math.NaN()
	}
	return m
}

// Max returns the maximum of xs; -Inf for an empty slice, NaN-insensitive
// like Min.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	sawNumber := false
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		sawNumber = true
		if x > m {
			m = x
		}
	}
	if !sawNumber && len(xs) > 0 {
		return math.NaN()
	}
	return m
}
