package reduce

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// bigSum computes the exact sum of xs with math/big and rounds it to
// float64 (round-to-nearest-even), serving as the oracle for the exact
// methods.
func bigSum(xs []float64) float64 {
	acc := new(big.Float).SetPrec(4096)
	tmp := new(big.Float).SetPrec(4096)
	for _, x := range xs {
		acc.Add(acc, tmp.SetFloat64(x))
	}
	f, _ := acc.Float64()
	return f
}

func randSlice(n int, seed int64, scale float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = (rng.Float64()*2 - 1) * math.Ldexp(scale, rng.Intn(40)-20)
	}
	return xs
}

func TestTwoSumErrorFree(t *testing.T) {
	if err := quick.Check(func(a, b float64) bool {
		a, b = math.Mod(a, 1e100), math.Mod(b, 1e100)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		s, e := TwoSum(a, b)
		// Verify a + b == s + e exactly in big.Float arithmetic.
		ref := new(big.Float).SetPrec(200).SetFloat64(a)
		ref.Add(ref, new(big.Float).SetPrec(200).SetFloat64(b))
		got := new(big.Float).SetPrec(200).SetFloat64(s)
		got.Add(got, new(big.Float).SetPrec(200).SetFloat64(e))
		return ref.Cmp(got) == 0
	}, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestTwoProdErrorFree(t *testing.T) {
	if err := quick.Check(func(a, b float64) bool {
		a, b = math.Mod(a, 1e80), math.Mod(b, 1e80)
		if math.IsNaN(a) || math.IsNaN(b) || a == 0 || b == 0 {
			return true
		}
		// Skip cases where the product over/underflows: the EFT property
		// only holds in range.
		if pa := math.Abs(a) * math.Abs(b); pa > 1e300 || pa < 1e-300 {
			return true
		}
		p, e := TwoProd(a, b)
		ref := new(big.Float).SetPrec(200).SetFloat64(a)
		ref.Mul(ref, new(big.Float).SetPrec(200).SetFloat64(b))
		got := new(big.Float).SetPrec(200).SetFloat64(p)
		got.Add(got, new(big.Float).SetPrec(200).SetFloat64(e))
		return ref.Cmp(got) == 0
	}, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestFastTwoSum(t *testing.T) {
	// Valid when |a| >= |b|.
	if err := quick.Check(func(a, b float64) bool {
		a, b = math.Mod(a, 1e100), math.Mod(b, 1e100)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if math.Abs(a) < math.Abs(b) {
			a, b = b, a
		}
		s1, e1 := FastTwoSum(a, b)
		s2, e2 := TwoSum(a, b)
		return s1 == s2 && e1 == e2
	}, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestDDArithmetic(t *testing.T) {
	a := DDFromFloat(1).AddFloat(math.Ldexp(1, -80)) // 1 + 2^-80
	b := DDFromFloat(-1)
	diff := a.Add(b)
	if diff.Float64() != math.Ldexp(1, -80) {
		t.Errorf("DD cancellation lost the low part: %g", diff.Float64())
	}
	// (x · y) in DD matches big.Float to ~2^-100 relative.
	x := DD{math.Pi, 1.2246467991473532e-16} // extended pi
	y := DD{math.E, 1.4456468917292502e-16}
	p := x.Mul(y)
	ref := new(big.Float).SetPrec(300)
	ref.Mul(bigFromDD(x), bigFromDD(y))
	got := bigFromDD(p)
	ref.Sub(ref, got)
	refAbs, _ := new(big.Float).Abs(ref).Float64()
	if refAbs > math.Ldexp(1, -95) {
		t.Errorf("DD Mul error too large: %g", refAbs)
	}
	if a.Sub(a).Float64() != 0 {
		t.Error("DD Sub of itself nonzero")
	}
	if a.Neg().Neg() != a {
		t.Error("DD double negation changed value")
	}
	if !b.Less(a) || a.Less(b) {
		t.Error("DD Less inconsistent")
	}
	if a.Neg().Abs() != a {
		t.Error("DD Abs failed")
	}
	if got := DDFromFloat(3).MulFloat(4).Float64(); got != 12 {
		t.Errorf("DD MulFloat = %g", got)
	}
}

func bigFromDD(d DD) *big.Float {
	f := new(big.Float).SetPrec(300).SetFloat64(d.Hi)
	return f.Add(f, new(big.Float).SetPrec(300).SetFloat64(d.Lo))
}

func TestDotDD(t *testing.T) {
	a := []float64{1e20, 1, -1e20}
	b := []float64{1, 1e-20, 1}
	// 1e20 + 1e-20 - 1e20 = 1e-20 — pure cancellation.
	got := DotDD(a, b).Float64()
	if got != 1e-20 {
		t.Errorf("DotDD = %g, want 1e-20", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("DotDD did not panic on length mismatch")
		}
	}()
	DotDD([]float64{1}, []float64{1, 2})
}

func TestLongAccumulatorExact(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		xs := randSlice(2000, seed, 1)
		acc := NewLongAccumulator()
		for _, x := range xs {
			acc.Add(x)
		}
		want := bigSum(xs)
		if got := acc.Round(); got != want {
			t.Fatalf("seed %d: LongAcc = %x, bigSum = %x", seed, got, want)
		}
	}
}

func TestLongAccumulatorExtremes(t *testing.T) {
	cases := [][]float64{
		{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64},
		{math.MaxFloat64, -math.MaxFloat64},
		{5e-324, 5e-324, 5e-324},                    // subnormals
		{5e-324, -5e-324},                           //
		{1e308, 1e-308, -1e308},                     // huge dynamic range
		{1, math.Ldexp(1, -1074), -1},               //
		{math.Ldexp(1, 1000), math.Ldexp(1, -1000)}, //
		{0, math.Copysign(0, -1)},                   //
	}
	for i, xs := range cases {
		acc := NewLongAccumulator()
		for _, x := range xs {
			acc.Add(x)
		}
		want := bigSum(xs)
		if got := acc.Round(); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("case %d: LongAcc = %g, want %g", i, got, want)
		}
	}
	// Overflow beyond float64 range must round to +Inf.
	acc := NewLongAccumulator()
	for i := 0; i < 4; i++ {
		acc.Add(math.MaxFloat64)
	}
	if !math.IsInf(acc.Round(), 1) {
		t.Error("accumulated 4×MaxFloat64 did not round to +Inf")
	}
}

func TestLongAccumulatorSpecials(t *testing.T) {
	acc := NewLongAccumulator()
	acc.Add(math.Inf(1))
	acc.Add(42)
	if !math.IsInf(acc.Round(), 1) {
		t.Error("+Inf did not dominate")
	}
	acc.Add(math.Inf(-1))
	if !math.IsNaN(acc.Round()) {
		t.Error("+Inf + -Inf is not NaN")
	}
	acc.Reset()
	acc.Add(math.NaN())
	if !math.IsNaN(acc.Round()) {
		t.Error("NaN lost")
	}
	acc.Reset()
	if !acc.IsZero() || acc.Signum() != 0 {
		t.Error("reset accumulator not zero")
	}
	acc.Add(-3)
	if acc.Signum() != -1 || acc.IsZero() {
		t.Error("negative accumulator misclassified")
	}
	acc.Add(5)
	if acc.Signum() != 1 {
		t.Error("positive accumulator misclassified")
	}
}

func TestLongAccumulatorMerge(t *testing.T) {
	xs := randSlice(5000, 42, 1e6)
	whole := NewLongAccumulator()
	for _, x := range xs {
		whole.Add(x)
	}
	a, b := NewLongAccumulator(), NewLongAccumulator()
	for i, x := range xs {
		if i%3 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.Round() != whole.Round() {
		t.Error("merged accumulators disagree with the whole")
	}
}

func TestLongAccumulatorAddProduct(t *testing.T) {
	acc := NewLongAccumulator()
	acc.AddProduct(1e20, 1)
	acc.AddProduct(1, 1e-20)
	acc.AddProduct(-1e20, 1)
	if got := acc.Round(); got != 1e-20 {
		t.Errorf("AddProduct dot = %g, want 1e-20", got)
	}
}

func TestSumMethodsOnBenignData(t *testing.T) {
	xs := randSlice(10000, 7, 1)
	want := bigSum(xs)
	for _, m := range Methods {
		got := Sum(xs, m)
		rel := math.Abs(got-want) / math.Abs(want)
		// All methods should be decent on benign data; the exact methods
		// must hit the correctly rounded result.
		limit := 1e-10
		if m.IsReproducible() || m == DoubleDouble {
			limit = 0
		}
		if rel > limit {
			t.Errorf("%v: rel error %g on benign data", m, rel)
		}
	}
}

func TestNeumaierBeatsKahanOnSpikes(t *testing.T) {
	// The classic case: a huge addend swamps the running sum.
	xs := []float64{1, 1e100, 1, -1e100}
	if got := SumNeumaier(xs); got != 2 {
		t.Errorf("Neumaier = %g, want 2", got)
	}
	if got := SumKahan(xs); got == 2 {
		t.Log("Kahan unexpectedly exact on spike data (platform FMA contraction?)")
	}
	if got := SumNaive(xs); got == 2 {
		t.Error("naive sum unexpectedly exact — test data no longer ill-conditioned")
	}
}

func TestSumReproduciblePermutationInvariance(t *testing.T) {
	xs, _ := IllConditioned(4096, 1e12, 11)
	ref := SumReproducible(xs)
	rng := rand.New(rand.NewSource(13))
	perm := make([]float64, len(xs))
	for trial := 0; trial < 20; trial++ {
		copy(perm, xs)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if got := SumReproducible(perm); got != ref {
			t.Fatalf("trial %d: permutation changed the reproducible sum: %x vs %x", trial, got, ref)
		}
		// The naive sum, by contrast, typically moves.
	}
}

func TestLongAccPermutationInvariance(t *testing.T) {
	xs, exact := IllConditioned(2048, 1e15, 17)
	rng := rand.New(rand.NewSource(19))
	perm := make([]float64, len(xs))
	copy(perm, xs)
	for trial := 0; trial < 10; trial++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if got := Sum(perm, LongAcc); got != exact {
			t.Fatalf("long accumulator moved under permutation: %x vs %x", got, exact)
		}
	}
}

func TestIllConditionedRecoversDigits(t *testing.T) {
	// Reproduces the paper's §III.C claim: naive global sums carry ~7
	// digits on ill-conditioned data while reproducible/exact methods
	// recover ~15.
	xs, exact := IllConditioned(20000, 1e9, 31)
	if exact == 0 {
		t.Fatal("degenerate ill-conditioned instance")
	}
	digits := func(got float64) float64 {
		r := math.Abs(got-exact) / math.Abs(exact)
		if r == 0 {
			return 17
		}
		return -math.Log10(r)
	}
	naive := digits(SumNaive(xs))
	repro := digits(SumReproducible(xs))
	exactD := digits(Sum(xs, LongAcc))
	if naive > 12 {
		t.Errorf("naive sum too accurate (%.1f digits) — instance not ill-conditioned", naive)
	}
	if repro < 14 {
		t.Errorf("reproducible sum only %.1f digits", repro)
	}
	if exactD < 15 {
		t.Errorf("long accumulator only %.1f digits", exactD)
	}
}

func TestSumEdgeCases(t *testing.T) {
	for _, m := range Methods {
		if got := Sum(nil, m); got != 0 {
			t.Errorf("%v: empty sum = %g", m, got)
		}
		if got := Sum([]float64{42}, m); got != 42 {
			t.Errorf("%v: singleton sum = %g", m, got)
		}
		if got := Sum([]float64{0, 0, 0}, m); got != 0 {
			t.Errorf("%v: zero sum = %g", m, got)
		}
		if got := Sum([]float64{1, math.Inf(1)}, m); !math.IsInf(got, 1) {
			t.Errorf("%v: +Inf lost: %g", m, got)
		}
		if got := Sum([]float64{math.NaN(), 1}, m); !math.IsNaN(got) {
			t.Errorf("%v: NaN lost: %g", m, got)
		}
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 2}
	if Min(xs) != -1 || Max(xs) != 3 {
		t.Error("Min/Max wrong on simple data")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("Min/Max of empty slices not infinities")
	}
	withNaN := []float64{math.NaN(), 5, math.NaN()}
	if Min(withNaN) != 5 || Max(withNaN) != 5 {
		t.Error("Min/Max did not skip NaNs")
	}
	allNaN := []float64{math.NaN()}
	if !math.IsNaN(Min(allNaN)) || !math.IsNaN(Max(allNaN)) {
		t.Error("Min/Max of all-NaN input is not NaN")
	}
}

func TestMethodStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Methods {
		s := m.String()
		if s == "unknown" || seen[s] {
			t.Errorf("method %d has bad/duplicate name %q", m, s)
		}
		seen[s] = true
	}
	if Method(99).String() != "unknown" {
		t.Error("unknown method not labelled")
	}
	if Naive.IsReproducible() || !LongAcc.IsReproducible() || !Reproducible.IsReproducible() {
		t.Error("IsReproducible misclassified")
	}
}

func TestReproducibleMatchesExactClosely(t *testing.T) {
	// On data without catastrophic cancellation beyond 3 folds, the
	// pre-rounding sum should match the exact sum to the last bit.
	for seed := int64(0); seed < 5; seed++ {
		xs := randSlice(8192, 100+seed, 1)
		want := bigSum(xs)
		if got := SumReproducible(xs); got != want {
			t.Errorf("seed %d: reproducible %x != exact %x", seed, got, want)
		}
	}
}

func BenchmarkSumMethods(b *testing.B) {
	xs := randSlice(1<<16, 1, 1)
	for _, m := range Methods {
		b.Run(m.String(), func(b *testing.B) {
			b.SetBytes(int64(len(xs) * 8))
			var sink float64
			for i := 0; i < b.N; i++ {
				sink = Sum(xs, m)
			}
			_ = sink
		})
	}
}

// TestSumReproducibleInPlaceMatches: summing in place gives the same bits
// as summing a copy, on well-scaled, cancelling, tiny and special inputs,
// and SumReproducible leaves its input as it was.
func TestSumReproducibleInPlaceMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inputs := [][]float64{
		{},
		{0, 0},
		{1, math.Inf(1), 2},
		{math.NaN(), 1},
		{5e-324, 5e-324, -1e-310},
	}
	for _, n := range []int{1, 7, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(80)-40)
		}
		inputs = append(inputs, xs)
	}
	for k, xs := range inputs {
		orig := append([]float64(nil), xs...)
		want := SumReproducible(xs)
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("input %d: SumReproducible modified element %d", k, i)
			}
		}
		got := SumReproducibleInPlace(xs)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("input %d: in place %x, copied %x", k, got, want)
		}
	}
}
