package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestSingleflightCollapsesStampede holds the flight leader inside its disk
// read (the entry is swapped for a FIFO, so the read blocks until the test
// feeds it) while a stampede of readers piles onto the same uncached key,
// then releases it and checks exactly one below-hot read happened: one disk
// read, everyone else served from memory with byte-identical payloads.
func TestSingleflightCollapsesStampede(t *testing.T) {
	dir := t.TempDir()
	writer, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("stampede")
	payload := bytes.Repeat([]byte("stampede-payload "), 64)
	if err := writer.Put(key, payload); err != nil {
		t.Fatal(err)
	}

	c, err := Open(dir, WithHotBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	entry, err := os.ReadFile(c.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(c.path(key)); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(c.path(key), 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}

	const stampede = 16
	results := make([][]byte, stampede)
	var wg sync.WaitGroup
	fetch := func(i int) {
		defer wg.Done()
		got, _, ok := c.Fetch(key)
		if !ok {
			t.Errorf("reader %d: miss", i)
			return
		}
		results[i] = got
	}

	wg.Add(1)
	go fetch(0)
	// Wait until the leader has registered its flight; it then blocks
	// opening the FIFO until the write below.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.flightMu.Lock()
		n := len(c.flights)
		c.flightMu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never registered its flight")
		}
	}
	for i := 1; i < stampede; i++ {
		wg.Add(1)
		go fetch(i)
	}
	time.Sleep(50 * time.Millisecond) // let the stampede join the flight
	if err := os.WriteFile(c.path(key), entry, 0o644); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for i, got := range results {
		if !bytes.Equal(got, payload) {
			t.Fatalf("reader %d: payload differs", i)
		}
	}
	s := c.Stats()
	if s.DiskHits != 1 {
		t.Errorf("DiskHits = %d, want exactly 1", s.DiskHits)
	}
	if s.HotHits != stampede-1 {
		t.Errorf("HotHits = %d, want %d (flight followers)", s.HotHits, stampede-1)
	}
	if s.Misses != 0 {
		t.Errorf("Misses = %d, want 0", s.Misses)
	}
	if s.Hits != s.HotHits+s.DiskHits {
		t.Errorf("Hits = %d, want HotHits+DiskHits = %d", s.Hits, s.HotHits+s.DiskHits)
	}
	// The fill populated the hot tier: one more read stays in memory.
	if _, src, ok := c.Fetch(key); !ok || src != SourceHot {
		t.Errorf("post-fill Fetch source = %q, %v; want hot hit", src, ok)
	}
}

func TestHotTierEvictionUnderByteCap(t *testing.T) {
	h := NewHotTier(100)
	pay := func(c byte) []byte { return bytes.Repeat([]byte{c}, 40) }
	h.Put(testKey("a"), pay('a'))
	h.Put(testKey("b"), pay('b'))
	if h.Len() != 2 || h.Bytes() != 80 {
		t.Fatalf("len=%d bytes=%d, want 2/80", h.Len(), h.Bytes())
	}
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	if _, ok := h.Get(testKey("a")); !ok {
		t.Fatal("a missing")
	}
	h.Put(testKey("c"), pay('c'))
	if h.Bytes() > h.MaxBytes() {
		t.Fatalf("bytes=%d over cap %d", h.Bytes(), h.MaxBytes())
	}
	if _, ok := h.Get(testKey("b")); ok {
		t.Fatal("LRU victim b still resident")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := h.Get(testKey(k)); !ok {
			t.Fatalf("%s evicted, want resident", k)
		}
	}
	// A payload larger than the whole cap is not admitted and evicts nothing.
	h.Put(testKey("huge"), bytes.Repeat([]byte{'h'}, 101))
	if _, ok := h.Get(testKey("huge")); ok {
		t.Fatal("oversized payload admitted")
	}
	if h.Len() != 2 {
		t.Fatalf("oversized put disturbed residents: len=%d", h.Len())
	}
	// Re-putting a key refreshes recency instead of double-counting bytes.
	h.Put(testKey("a"), pay('a'))
	if h.Bytes() != 80 {
		t.Fatalf("re-put double-counted: bytes=%d", h.Bytes())
	}
}

func TestCacheEvictsThroughWriteThrough(t *testing.T) {
	c, err := Open(t.TempDir(), WithHotBytes(1024))
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 400)
	keys := []string{testKey("1"), testKey("2"), testKey("3")}
	for _, k := range keys {
		if err := c.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.HotBytes > s.HotMaxBytes {
		t.Fatalf("hot tier over cap: %d > %d", s.HotBytes, s.HotMaxBytes)
	}
	if s.HotEntries != 2 {
		t.Fatalf("HotEntries = %d, want 2 (one evicted)", s.HotEntries)
	}
	// The evicted key is still a hit — from disk — and refills the tier.
	if _, src, ok := c.Fetch(keys[0]); !ok || src != SourceDisk {
		t.Fatalf("evicted key Fetch = %q, %v; want disk hit", src, ok)
	}
	if _, src, ok := c.Fetch(keys[0]); !ok || src != SourceHot {
		t.Fatalf("refilled key Fetch = %q, %v; want hot hit", src, ok)
	}
}

// TestCorruptEntryDoesNotPoisonHotTier corrupts the disk entry behind the
// hot tier's back and checks the degradation contract: the read is a miss,
// the entry is quarantined, and no stale or corrupt bytes remain in memory.
func TestCorruptEntryDoesNotPoisonHotTier(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, WithHotBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("poison")
	payload := []byte("good bytes")
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	// Simulate an eviction so the next read must go to disk.
	c.Hot().Remove(key)

	path := filepath.Join(dir, key[:2], key+".res")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, src, ok := c.Fetch(key); ok || src != SourceMiss {
		t.Fatalf("corrupt entry served (source %q)", src)
	}
	if c.Hot().Len() != 0 {
		t.Fatal("corrupt read left bytes in the hot tier")
	}
	// Degraded to a miss, not an outage: Fetch again is still a clean miss
	// (the entry was quarantined), and a fresh put serves hot again.
	if _, _, ok := c.Fetch(key); ok {
		t.Fatal("quarantined entry served")
	}
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, src, ok := c.Fetch(key)
	if !ok || src != SourceHot || !bytes.Equal(got, payload) {
		t.Fatalf("re-put Fetch = %q, %q, %v", got, src, ok)
	}
	if s := c.Stats(); s.CorruptDropped != 1 {
		t.Errorf("CorruptDropped = %d, want 1", s.CorruptDropped)
	}
}

func TestFetchSourcesConcurrently(t *testing.T) {
	// A broad race exerciser: concurrent Put/Fetch across overlapping keys
	// with a small hot tier forcing constant eviction and refill.
	c, err := Open(t.TempDir(), WithHotBytes(2048))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := testKey(fmt.Sprintf("k%d", i%3))
			payload := bytes.Repeat([]byte{byte('a' + i%3)}, 700)
			for j := 0; j < 40; j++ {
				if err := c.Put(key, payload); err != nil {
					t.Error(err)
					return
				}
				if got, _, ok := c.Fetch(key); ok && !bytes.Equal(got, payload) {
					t.Errorf("torn read on %s", key[:8])
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
