package par

import (
	"runtime"
	"sync"
)

// Pool is a persistent deterministic worker pool: a fixed set of long-lived
// goroutines parked on an epoch/notify protocol, woken per dispatch and
// parked again when the fork-join completes. Dispatching on a warm pool
// costs two mutex sections and a broadcast instead of `workers` goroutine
// spawns, and — crucially for the mini-apps' steady-state loops — allocates
// nothing.
//
// Determinism contract: work is split into `chunks` fixed contiguous ranges
// by Bounds(n, chunks, c). Which worker executes a chunk is
// scheduling-dependent, but the chunk→index-range map depends only on
// (n, chunks), so any computation with disjoint writes (or per-chunk
// partials) is bit-identical at every pool size and across runs.
//
// A Pool's dispatches are serialized internally. If a dispatch arrives while
// another is in flight (concurrent solvers sharing the Default pool, or a
// nested ForN from inside a kernel), the call transparently falls back to
// the spawn-per-call path — same chunking, same results, just without the
// warm-worker speedup.
type Pool struct {
	size int

	// runMu serializes dispatches; TryLock failure selects the spawn
	// fallback instead of queueing, which keeps nested dispatch safe.
	runMu sync.Mutex

	// mu guards the job slots and epoch; workers park on cond until the
	// epoch advances past the one they last served.
	mu     sync.Mutex
	cond   *sync.Cond
	epoch  uint64
	closed bool

	// Current job, valid for one epoch. Exactly one of fnRange/fnChunk is
	// non-nil.
	nChunks int
	n       int
	fnRange func(lo, hi int)
	fnChunk func(chunk, lo, hi int)

	// wg counts worker completions of the current epoch.
	wg sync.WaitGroup
}

// NewPool starts a pool with `size` lanes of parallelism (size ≤ 0 selects
// GOMAXPROCS). The dispatching goroutine itself serves lane 0 — warm caches,
// one fewer wake/park round-trip — so only size−1 goroutines are parked.
// They cost nothing until the first dispatch.
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	p := &Pool{size: size}
	p.cond = sync.NewCond(&p.mu)
	for w := 1; w < size; w++ {
		go p.worker(w)
	}
	return p
}

// Size returns the number of persistent workers.
func (p *Pool) Size() int { return p.size }

// Close permanently releases the pool's workers. Dispatching on a closed
// pool falls back to the spawn-per-call path. The Default pool is never
// closed.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// worker is the body of one persistent goroutine: wait for a new epoch,
// execute every chunk assigned to this worker id (strided so all chunk
// counts are served regardless of pool size), signal completion, park again.
func (p *Pool) worker(id int) {
	var seen uint64
	for {
		p.mu.Lock()
		for p.epoch == seen && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		seen = p.epoch
		nChunks, n := p.nChunks, p.n
		fnRange, fnChunk := p.fnRange, p.fnChunk
		p.mu.Unlock()

		p.lane(id, nChunks, n, fnRange, fnChunk)
		p.wg.Done()
	}
}

// lane executes every chunk assigned to lane id: chunks id, id+size, …
// strided so any chunk count is served by any pool size.
func (p *Pool) lane(id, nChunks, n int, fnRange func(lo, hi int), fnChunk func(chunk, lo, hi int)) {
	for c := id; c < nChunks; c += p.size {
		lo, hi := Bounds(n, nChunks, c)
		if fnRange != nil {
			if lo < hi {
				fnRange(lo, hi)
			}
		} else {
			fnChunk(c, lo, hi)
		}
	}
}

// dispatch publishes one job, serves lane 0 on the calling goroutine, and
// blocks until the parked workers have served the rest. Caller must hold
// runMu. Because the next dispatch cannot begin before wg.Wait returns,
// every worker observes every epoch exactly once.
func (p *Pool) dispatch(nChunks, n int, fnRange func(lo, hi int), fnChunk func(chunk, lo, hi int)) {
	p.wg.Add(p.size - 1)
	p.mu.Lock()
	p.nChunks, p.n = nChunks, n
	p.fnRange, p.fnChunk = fnRange, fnChunk
	p.epoch++
	p.mu.Unlock()
	p.cond.Broadcast()
	p.lane(0, nChunks, n, fnRange, fnChunk)
	p.wg.Wait()
}

// tryDispatch runs the job on the pool if it is idle and open, else reports
// false so the caller can take the spawn fallback.
func (p *Pool) tryDispatch(nChunks, n int, fnRange func(lo, hi int), fnChunk func(chunk, lo, hi int)) bool {
	if !p.runMu.TryLock() {
		return false
	}
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		p.runMu.Unlock()
		return false
	}
	p.dispatch(nChunks, n, fnRange, fnChunk)
	p.runMu.Unlock()
	return true
}

// ForN runs fn over [0, n) split into `chunks` contiguous ranges
// (chunks ≤ 0 selects the pool size; chunks is clamped to n). chunks == 1
// runs inline.
//
// fn is called once per non-empty chunk; to dispatch without allocating,
// pass a closure that lives across calls (prebound on the solver) rather
// than a fresh literal capturing locals.
func (p *Pool) ForN(chunks, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunks <= 0 {
		chunks = p.size
	}
	if chunks > n {
		chunks = n
	}
	if chunks == 1 {
		fn(0, n)
		return
	}
	if !p.tryDispatch(chunks, n, fn, nil) {
		SpawnForN(chunks, n, fn)
	}
}

// ForChunks runs fn(chunk, lo, hi) for every chunk in [0, chunks) with
// (lo, hi) = Bounds(n, chunks, chunk). Unlike ForN the chunk count is not
// clamped and empty chunks are still delivered, so per-chunk scratch and
// reduction partials stay index-stable. chunks == 1 runs inline.
func (p *Pool) ForChunks(chunks, n int, fn func(chunk, lo, hi int)) {
	if chunks <= 0 {
		return
	}
	if chunks == 1 {
		fn(0, 0, n)
		return
	}
	if !p.tryDispatch(chunks, n, nil, fn) {
		spawnChunks(chunks, n, fn)
	}
}

// defaultPool is the shared package pool the solvers dispatch on. Sized to
// GOMAXPROCS at first use.
var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the shared package-level pool, creating it on first use.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}

// pad keeps per-chunk reduction partials on separate cache lines so workers
// publishing partials do not false-share.
type pad[T any] struct {
	v T
	_ [64]byte
}

// Reducer binds a pool to a reusable, padded per-chunk partial buffer so
// repeated reductions (one per timestep, thousands of steps) allocate
// nothing at steady state. A Reducer is not safe for concurrent use; give
// each solver its own.
type Reducer[T any] struct {
	pool     *Pool
	partials []pad[T]
	produce  func(lo, hi int) T
	job      func(chunk, lo, hi int)
}

// NewReducer returns a Reducer dispatching on p.
func NewReducer[T any](p *Pool) *Reducer[T] {
	r := &Reducer[T]{pool: p}
	r.job = func(chunk, lo, hi int) {
		r.partials[chunk].v = r.produce(lo, hi)
	}
	return r
}

// Reduce evaluates produce over `chunks` contiguous ranges of [0, n) and
// folds the per-chunk partials in chunk order with combine. With an
// order-insensitive combine (min, max, exact accumulators) the result is
// bit-identical for every chunk count; with float addition it is
// deterministic for a fixed chunk count. produce and combine should be
// prebound closures for the call to stay allocation-free.
func (r *Reducer[T]) Reduce(chunks, n int, produce func(lo, hi int) T, combine func(a, b T) T, zero T) T {
	if n <= 0 {
		return zero
	}
	if chunks <= 0 {
		chunks = r.pool.size
	}
	if chunks > n {
		chunks = n
	}
	if chunks == 1 {
		return combine(zero, produce(0, n))
	}
	if cap(r.partials) < chunks {
		r.partials = make([]pad[T], chunks)
	}
	r.partials = r.partials[:chunks]
	r.produce = produce
	r.pool.ForChunks(chunks, n, r.job)
	r.produce = nil
	acc := zero
	for c := 0; c < chunks; c++ {
		acc = combine(acc, r.partials[c].v)
	}
	return acc
}
