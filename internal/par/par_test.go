package par

import (
	"math"
	"sync/atomic"
	"testing"
)

// mapReduce is the reference the Reducer is compared against: produce over
// each of `chunks` contiguous ranges, one at a time on the calling
// goroutine, folded in chunk order. No pool, no partial buffer.
func mapReduce[T any](chunks, n int, produce func(lo, hi int) T, combine func(a, b T) T, zero T) T {
	if chunks > n {
		chunks = n
	}
	acc := zero
	for c := 0; c < chunks; c++ {
		acc = combine(acc, produce(Bounds(n, chunks, c)))
	}
	return acc
}

func TestBoundsCoverExactly(t *testing.T) {
	for _, n := range []int{1, 7, 100, 1023} {
		for _, workers := range []int{1, 2, 3, 8, 16} {
			covered := 0
			prevHi := 0
			for w := 0; w < workers; w++ {
				lo, hi := Bounds(n, workers, w)
				if lo != prevHi {
					t.Fatalf("n=%d workers=%d chunk %d starts at %d, want %d", n, workers, w, lo, prevHi)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n || prevHi != n {
				t.Fatalf("n=%d workers=%d covered %d ended %d", n, workers, covered, prevHi)
			}
		}
	}
}

func TestForNVisitsEachIndexOnce(t *testing.T) {
	const n = 10000
	for _, workers := range []int{0, 1, 3, 7, 32} {
		counts := make([]int32, n)
		Default().ForN(workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d index %d visited %d times", workers, i, c)
			}
		}
	}
	// Degenerate inputs.
	called := false
	Default().ForN(4, 0, func(lo, hi int) { called = true })
	if called {
		t.Error("ForN called fn for n=0")
	}
	Default().ForN(100, 3, func(lo, hi int) {}) // workers > n must not panic
}

func TestForNDeterministicOutput(t *testing.T) {
	// A kernel writing only its own range yields bitwise-identical output
	// at every worker count.
	const n = 4096
	run := func(workers int) []float64 {
		out := make([]float64, n)
		Default().ForN(workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x := float64(i) * 0.9999
				out[i] = math.Sin(x) * math.Exp(-x/1000)
			}
		})
		return out
	}
	ref := run(1)
	for _, workers := range []int{2, 5, 13} {
		got := run(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d output differs at %d", workers, i)
			}
		}
	}
}

func TestMapReduceMin(t *testing.T) {
	const n = 100000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Abs(math.Sin(float64(i)*1.7)) + 0.001
	}
	vals[73512] = 1e-9
	produce := func(lo, hi int) float64 {
		m := math.Inf(1)
		for i := lo; i < hi; i++ {
			if vals[i] < m {
				m = vals[i]
			}
		}
		return m
	}
	minOf := func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
	r := NewReducer[float64](Default())
	ref := produce(0, n)
	for _, workers := range []int{0, 1, 2, 4, 9, 64} {
		got := r.Reduce(workers, n, produce, minOf, math.Inf(1))
		if got != ref {
			t.Fatalf("workers=%d min %g want %g", workers, got, ref)
		}
	}
	if got := r.Reduce(4, 0, produce, minOf, math.Inf(1)); !math.IsInf(got, 1) {
		t.Error("empty Reduce did not return zero value")
	}
}

func TestMapReduceSumDeterministicPerWorkerCount(t *testing.T) {
	const n = 50000
	produce := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += 1.0 / float64(i+1)
		}
		return s
	}
	add := func(a, b float64) float64 { return a + b }
	r := NewReducer[float64](Default())
	for _, workers := range []int{1, 3, 8} {
		a := r.Reduce(workers, n, produce, add, 0)
		b := r.Reduce(workers, n, produce, add, 0)
		if a != b {
			t.Fatalf("workers=%d not deterministic: %x vs %x", workers, a, b)
		}
		// Float addition does not commute in rounding, so equality with the
		// reference also pins the fold to chunk order.
		if want := mapReduce(workers, n, produce, add, 0); a != want {
			t.Fatalf("workers=%d sum %x, chunk-order reference %x", workers, a, want)
		}
	}
}
