package reduce_test

import (
	"fmt"

	"repro/internal/reduce"
)

// The paper's §III.C scenario: an ill-conditioned global sum loses half its
// digits under naive summation and recovers them under the reproducible
// methods, which are also bit-stable under permutation.
func ExampleSumReproducible() {
	// 1e17 + 1 − 1e17 + 1: naive left-to-right absorbs the first 1
	// (ulp(1e17) = 16), the reproducible pre-rounding sum does not.
	xs := []float64{1e17, 1, -1e17, 1}
	fmt.Println("naive:       ", reduce.SumNaive(xs))
	fmt.Println("reproducible:", reduce.SumReproducible(xs))
	// Output:
	// naive:        1
	// reproducible: 2
}

func ExampleLongAccumulator() {
	acc := reduce.NewLongAccumulator()
	acc.Add(1e100)
	acc.Add(1)
	acc.Add(-1e100)
	fmt.Println(acc.Round()) // exact: the 1 survives a 10^100 cancellation
	// Output: 1
}

func ExampleDotDD() {
	// A dot product with catastrophic cancellation: double-double keeps it.
	a := []float64{1e20, 1, -1e20}
	b := []float64{1, 1e-20, 1}
	fmt.Println(reduce.DotDD(a, b).Float64())
	// Output: 1e-20
}
