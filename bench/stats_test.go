package main

import (
	"math"
	"testing"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10} // 1..10, unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {95, 10}, {90, 9}, {10, 1}, {1, 1}, {100, 10}, {51, 6},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	// 200 samples put exactly ten beyond p95 — the sizing rule of every
	// workload's foreground stream.
	if got := samplesBeyond(200, 95); got != 10 {
		t.Errorf("samplesBeyond(200, 95) = %d, want 10", got)
	}
	if got := samplesBeyond(99, 95); got != 4 {
		t.Errorf("samplesBeyond(99, 95) = %d, want 4", got)
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4);
// these are its outputs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; got != want {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
