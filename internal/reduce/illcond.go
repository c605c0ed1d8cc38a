package reduce

import (
	"math"
	"math/rand"
)

// IllConditioned generates a length-n slice whose naive sum loses roughly
// log10(cond) decimal digits, together with the exact sum (computed with a
// long accumulator). It follows the spirit of Ogita–Rump–Oishi ill-
// conditioned dot-product generation: large cancelling pairs plus a small
// residual signal. Used by the accuracy experiments that reproduce the
// paper's "7 digits → 15 digits" global-sum claim.
func IllConditioned(n int, cond float64, seed int64) (xs []float64, exact float64) {
	if n < 4 {
		n = 4
	}
	rng := rand.New(rand.NewSource(seed))
	xs = make([]float64, 0, n)
	big := cond
	// Cancelling pairs at descending magnitudes.
	for len(xs)+2 <= n/2 {
		v := (rng.Float64() + 0.5) * big
		xs = append(xs, v, -v)
		big = math.Max(big*0.9, 1)
	}
	// Small residual values carrying the true sum.
	for len(xs) < n {
		xs = append(xs, rng.Float64()*2-1)
	}
	// Shuffle so the cancellation is interleaved.
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	acc := NewLongAccumulator()
	for _, x := range xs {
		acc.Add(x)
	}
	return xs, acc.Round()
}
