package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve/cache"
	"repro/internal/serve/queue"
)

// benchCache holds one ~64 KiB payload, the size of a quick-scale sweep
// entry with its trace, under the returned spec hash.
func benchCache(tb testing.TB, opts ...cache.Option) (*cache.Cache, string) {
	c, err := cache.Open(tb.TempDir(), opts...)
	if err != nil {
		tb.Fatal(err)
	}
	payload := bytes.Repeat([]byte(`{"field":0.123456789,"trace":"x"}`), 2048)
	sum := sha256.Sum256([]byte("bench-spec"))
	hash := hex.EncodeToString(sum[:])
	if err := c.Put(hash, payload); err != nil {
		tb.Fatal(err)
	}
	return c, hash
}

// bench304 returns one matching revalidation of the bench payload.
func bench304(tb testing.TB) func() {
	c, hash := benchCache(tb, cache.WithHotBytes(1<<20))
	srv := New(queue.New(queue.Config{Workers: 1, Cache: c}), c)
	req := httptest.NewRequest(http.MethodGet, "/v1/results/"+hash, nil)
	req.Header.Set("If-None-Match", `"`+hash+`"`)
	return func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotModified {
			tb.Fatalf("status %d, want 304", rec.Code)
		}
	}
}

// benchFetch returns one cache fetch of the bench payload from tier want.
func benchFetch(tb testing.TB, want cache.Source, opts ...cache.Option) func() {
	c, hash := benchCache(tb, opts...)
	return func() {
		if _, src, ok := c.Fetch(hash); !ok || src != want {
			tb.Fatalf("fetch = %q, %v", src, ok)
		}
	}
}

// BenchmarkReadPath304 measures tier 1: a revalidation that matches moves
// zero payload bytes — the whole request is header parsing plus a string
// compare, whatever the payload size.
func BenchmarkReadPath304(b *testing.B) {
	revalidate := bench304(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		revalidate()
	}
}

// A 304 stays within 20% of the 12 allocs/op it was committed at.
func TestReadPath304AllocCeiling(t *testing.T) {
	if n := testing.AllocsPerRun(100, bench304(t)); n > 14 {
		t.Errorf("304 revalidation: %v allocs/op, ceiling 14", n)
	}
}

// The read path's wall-clock contract, as ratios measured on this machine:
// a hot-tier hit is at least 10x faster than the disk read it spares, and a
// 304 costs no more than that disk read (DESIGN.md §11).
func TestReadPathRatios(t *testing.T) {
	if testing.Short() {
		t.Skip("times three benchmarks")
	}
	nsPerOp := func(op func()) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op()
			}
		})
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	hot := nsPerOp(benchFetch(t, cache.SourceHot, cache.WithHotBytes(1<<20)))
	disk := nsPerOp(benchFetch(t, cache.SourceDisk))
	etag := nsPerOp(bench304(t))
	t.Logf("hot %.0f ns/op, cold disk %.0f ns/op, 304 %.0f ns/op", hot, disk, etag)
	if hot*10 > disk {
		t.Errorf("hot-tier hit (%.0f ns) is not 10x faster than a cold disk hit (%.0f ns)", hot, disk)
	}
	if etag > disk {
		t.Errorf("a 304 (%.0f ns) costs more than the cold disk read it replaces (%.0f ns)", etag, disk)
	}
}
