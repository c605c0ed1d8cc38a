package par

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolForNVisitsEachIndexOnce(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	const n = 10000
	for _, chunks := range []int{0, 1, 2, 3, 7, 32} {
		counts := make([]int32, n)
		p.ForN(chunks, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("chunks=%d index %d visited %d times", chunks, i, c)
			}
		}
	}
	called := false
	p.ForN(4, 0, func(lo, hi int) { called = true })
	if called {
		t.Error("ForN called fn for n=0")
	}
	p.ForN(100, 3, func(lo, hi int) {}) // chunks > n must not panic
}

// TestPoolMatchesSpawn verifies the pool and the spawn baseline produce
// byte-identical output for a disjoint-write kernel at every chunk count —
// the determinism contract that lets the solvers swap engines freely.
func TestPoolMatchesSpawn(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	const n = 4096
	kernel := func(out []float64) func(lo, hi int) {
		return func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x := float64(i) * 0.9999
				out[i] = math.Sin(x) * math.Exp(-x/1000)
			}
		}
	}
	for _, chunks := range []int{1, 2, 5, 13, 64} {
		pooled := make([]float64, n)
		spawned := make([]float64, n)
		p.ForN(chunks, n, kernel(pooled))
		SpawnForN(chunks, n, kernel(spawned))
		for i := range pooled {
			if pooled[i] != spawned[i] {
				t.Fatalf("chunks=%d index %d: pool %x spawn %x", chunks, i, pooled[i], spawned[i])
			}
		}
	}
}

func TestPoolForChunksDeliversEveryChunk(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, chunks := range []int{1, 3, 9} {
		const n = 100
		seen := make([]int32, chunks)
		covered := make([]int32, n)
		p.ForChunks(chunks, n, func(c, lo, hi int) {
			atomic.AddInt32(&seen[c], 1)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for c, s := range seen {
			if s != 1 {
				t.Fatalf("chunks=%d chunk %d delivered %d times", chunks, c, s)
			}
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("chunks=%d index %d covered %d times", chunks, i, c)
			}
		}
	}
}

// TestPoolConcurrentDispatchFallsBack checks that overlapping dispatches
// from independent goroutines still complete correctly (the busy pool
// routes the second caller through the spawn fallback).
func TestPoolConcurrentDispatchFallsBack(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	const n = 50000
	var wg sync.WaitGroup
	results := make([][]float64, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]float64, n)
			p.ForN(4, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					out[i] = float64(i) * 1.5
				}
			})
			results[g] = out
		}(g)
	}
	wg.Wait()
	for g := 1; g < 4; g++ {
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d diverged at %d", g, i)
			}
		}
	}
}

func TestReducerMatchesMapReduce(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	r := NewReducer[float64](p)
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
	for _, chunks := range []int{1, 2, 4, 9, 64} {
		want := mapReduce(chunks, n, produce, math.Min, math.Inf(1))
		got := r.Reduce(chunks, n, produce, math.Min, math.Inf(1))
		if got != want {
			t.Fatalf("chunks=%d reducer %g mapreduce %g", chunks, got, want)
		}
	}
	if got := r.Reduce(4, 0, produce, math.Min, math.Inf(1)); !math.IsInf(got, 1) {
		t.Error("empty Reduce did not return zero value")
	}
}

// TestPoolDispatchZeroAlloc is the tentpole guarantee: dispatching prebound
// work on a warm pool allocates nothing, for both ForN and Reducer paths.
func TestPoolDispatchZeroAlloc(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	out := make([]float64, 10000)
	fn := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = float64(i)
		}
	}
	p.ForN(4, len(out), fn) // warm
	if allocs := testing.AllocsPerRun(100, func() { p.ForN(4, len(out), fn) }); allocs != 0 {
		t.Errorf("pool ForN dispatch allocated %v objects per call", allocs)
	}

	r := NewReducer[float64](p)
	produce := func(lo, hi int) float64 {
		m := math.Inf(1)
		for i := lo; i < hi; i++ {
			if out[i] < m {
				m = out[i]
			}
		}
		return m
	}
	r.Reduce(4, len(out), produce, math.Min, math.Inf(1)) // warm
	if allocs := testing.AllocsPerRun(100, func() {
		r.Reduce(4, len(out), produce, math.Min, math.Inf(1))
	}); allocs != 0 {
		t.Errorf("Reducer dispatch allocated %v objects per call", allocs)
	}
}

func TestPoolCloseReleasesWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(8)
	p.ForN(8, 1000, func(lo, hi int) {})
	p.Close()
	deadline := 200
	for runtime.NumGoroutine() > before && deadline > 0 {
		runtime.Gosched()
		deadline--
	}
	// Closed pool must still serve work via the fallback.
	sum := int64(0)
	p.ForN(4, 100, func(lo, hi int) {
		atomic.AddInt64(&sum, int64(hi-lo))
	})
	if sum != 100 {
		t.Fatalf("closed-pool fallback covered %d of 100", sum)
	}
}

// BenchmarkParDispatch measures fork-join overhead: persistent pool vs the
// spawn-per-call baseline, at the chunk counts and trip counts the ISSUE
// calls out. The kernel body is a pure streaming write so small n exposes
// dispatch cost and large n shows it amortizing away.
func BenchmarkParDispatch(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{
		{"n4", 4}, // empty body: pure dispatch overhead
		{"n1e3", 1_000},
		{"n1e5", 100_000},
		{"n1e7", 10_000_000},
	} {
		out := make([]float64, bc.n)
		body := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = float64(i)
			}
		}
		workers := 4
		b.Run("pool/"+bc.name, func(b *testing.B) {
			p := NewPool(workers)
			defer p.Close()
			p.ForN(workers, bc.n, body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ForN(workers, bc.n, body)
			}
		})
		b.Run("spawn/"+bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SpawnForN(workers, bc.n, body)
			}
		})
	}
}
