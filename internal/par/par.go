// Package par provides the deterministic fork-join helpers the mini-apps
// parallelise their kernels with: fixed contiguous chunking (no work
// stealing), so a computation that writes disjoint index ranges produces
// bit-identical results at every worker count.
//
// One engine runs that contract: the persistent Pool (long-lived workers
// parked on an epoch/notify protocol, allocation-free dispatch), with
// Reducer folding per-chunk partials on it. The spawn-per-call SpawnForN
// (one goroutine per chunk) is what a Pool falls back to when it is busy or
// closed, and the dispatch-overhead baseline the pool is benchmarked
// against.
package par

import (
	"runtime"
	"sync"
)

// Bounds returns the half-open range of chunk w when n items are split
// into `workers` nearly equal contiguous chunks. It depends only on
// (n, workers, w).
func Bounds(n, workers, w int) (lo, hi int) {
	return n * w / workers, n * (w + 1) / workers
}

// SpawnForN is the original spawn-per-call fork-join: one goroutine per
// chunk, created and joined on every invocation. It is the dispatch-overhead
// baseline the pool is benchmarked against, and the fallback used when a
// pool is busy or closed. Chunking and results match Pool.ForN exactly.
func SpawnForN(workers, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo, hi := Bounds(n, workers, w)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// spawnChunks is the spawn-per-call fallback for Pool.ForChunks: chunk
// indices and bounds are identical, only the execution vehicle differs.
func spawnChunks(chunks, n int, fn func(chunk, lo, hi int)) {
	var wg sync.WaitGroup
	wg.Add(chunks)
	for c := 0; c < chunks; c++ {
		lo, hi := Bounds(n, chunks, c)
		go func(c, lo, hi int) {
			defer wg.Done()
			fn(c, lo, hi)
		}(c, lo, hi)
	}
	wg.Wait()
}
