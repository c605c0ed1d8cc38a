package cache

import (
	"bytes"
	"testing"
)

// benchPayload approximates a real result payload: a quick-scale sweep
// entry with its embedded trace runs a few tens of KB.
func benchPayload() []byte {
	return bytes.Repeat([]byte(`{"field":0.123456789,"trace":"x"}`), 2048) // ~64 KiB
}

// benchFetch stores the bench payload in a cache opened with opts and
// returns one Fetch of it, checked against the tier that must serve it. A
// hot-tier bench reads the key twice first: the second read admits it.
func benchFetch(tb testing.TB, want Source, opts ...Option) func() {
	c, err := Open(tb.TempDir(), opts...)
	if err != nil {
		tb.Fatal(err)
	}
	key := testKey("bench")
	if err := c.Put(key, benchPayload()); err != nil {
		tb.Fatal(err)
	}
	if want == SourceHot {
		c.Fetch(key)
		c.Fetch(key)
	}
	return func() {
		if _, src, ok := c.Fetch(key); !ok || src != want {
			tb.Fatalf("fetch = %q, %v", src, ok)
		}
	}
}

// BenchmarkReadPathColdDisk measures a tier-3 read: hot tier disabled, so
// every Fetch pays the file read plus header and digest verification —
// the per-hit cost of the pre-tiering read path.
func BenchmarkReadPathColdDisk(b *testing.B) {
	fetch := benchFetch(b, SourceDisk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
}

// BenchmarkReadPathHotTier measures a tier-0 read: the same payload served
// from the in-memory LRU — one map lookup, zero I/O, zero re-verification.
func BenchmarkReadPathHotTier(b *testing.B) {
	fetch := benchFetch(b, SourceHot, WithHotBytes(1<<20))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
}

// Allocations per read are machine-independent: a hot hit allocates
// nothing, and a disk fill — path, open, stat and the read buffer; the
// header and digest checks allocate nothing — stays at the 9 allocs/op it
// was measured at (DESIGN.md §11).
func TestReadPathAllocCeilings(t *testing.T) {
	if n := testing.AllocsPerRun(100, benchFetch(t, SourceHot, WithHotBytes(1<<20))); n != 0 {
		t.Errorf("hot-tier fetch: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, benchFetch(t, SourceDisk)); n > 9 {
		t.Errorf("cold-disk fetch: %v allocs/op, ceiling 9", n)
	}
}
