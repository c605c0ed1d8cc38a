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
	"unsafe"
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

// readTwice reads key twice, the second read admitting it to the hot tier.
func readTwice(t *testing.T, c *Cache, key string) {
	t.Helper()
	for i, want := range []Source{SourceDisk, SourceDisk} {
		if _, src, ok := c.Fetch(key); !ok || src != want {
			t.Fatalf("read %d of %s = %q, %v; want %q", i+1, key[:8], src, ok, want)
		}
	}
}

func TestPutThenOneReadNeverGoesHot(t *testing.T) {
	c, err := Open(t.TempDir(), WithHotBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		key := testKey(fmt.Sprintf("once-%d", i))
		if err := c.Put(key, []byte("result read once")); err != nil {
			t.Fatal(err)
		}
		if s := c.Stats(); s.HotEntries != 0 {
			t.Fatalf("a put went hot: %d entries", s.HotEntries)
		}
		if _, src, ok := c.Fetch(key); !ok || src != SourceDisk {
			t.Fatalf("first read = %q, %v; want a disk hit", src, ok)
		}
	}
	if s := c.Stats(); s.HotEntries != 0 || s.HotBytes != 0 {
		t.Fatalf("64 results read once each left %d entries, %d bytes hot", s.HotEntries, s.HotBytes)
	}
}

func TestSecondReadAdmits(t *testing.T) {
	c, err := Open(t.TempDir(), WithHotBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("twice")
	payload := []byte("result read twice")
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	readTwice(t, c, key)
	got, src, ok := c.Fetch(key)
	if !ok || src != SourceHot || !bytes.Equal(got, payload) {
		t.Fatalf("third read = %q, %q, %v; want the payload from the hot tier", got, src, ok)
	}
	if s := c.Stats(); s.HotEntries != 1 || s.HotBytes != int64(len(payload)) {
		t.Fatalf("hot tier holds %d entries, %d bytes; want 1, %d", s.HotEntries, s.HotBytes, len(payload))
	}
}

// TestFetchOnceIsNoEvidenceOfReuse: reads a caller promises not to repeat
// neither admit nor count toward admission.
func TestFetchOnceIsNoEvidenceOfReuse(t *testing.T) {
	c, err := Open(t.TempDir(), WithHotBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("land")
	if err := c.Put(key, []byte("campaign result")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, src, ok := c.FetchOnce(key); !ok || src != SourceDisk {
			t.Fatalf("FetchOnce = %q, %v; want a disk hit", src, ok)
		}
	}
	readTwice(t, c, key) // the first Fetch is still a first read
	if _, src, _ := c.Fetch(key); src != SourceHot {
		t.Fatalf("read after two Fetches = %q, want hot", src)
	}
}

// The doorkeeper is a fixed array: recording a key allocates nothing, so
// its memory cannot grow with the number of keys read.
func TestDoorkeeperSizeIsFixed(t *testing.T) {
	if size := unsafe.Sizeof(doorkeeper{}); size != 32<<10 {
		t.Fatalf("doorkeeper is %d bytes, want 32 KiB of slots", size)
	}
	var d doorkeeper
	keys := make([]string, 4*doorSlots)
	for i := range keys {
		keys[i] = testKey(fmt.Sprintf("door-%d", i))
	}
	i := 0
	if n := testing.AllocsPerRun(len(keys), func() { d.secondRead(keys[i%len(keys)]); i++ }); n != 0 {
		t.Fatalf("recording a key allocates %v times", n)
	}
	// Four times as many keys as slots went through; the last one is
	// still remembered.
	if !d.secondRead(keys[(i-1)%len(keys)]) {
		t.Fatal("the most recent key was forgotten")
	}
}

func TestCacheEvictsAdmittedEntries(t *testing.T) {
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
		readTwice(t, c, k)
	}
	s := c.Stats()
	if s.HotBytes > s.HotMaxBytes {
		t.Fatalf("hot tier over cap: %d > %d", s.HotBytes, s.HotMaxBytes)
	}
	if s.HotEntries != 2 {
		t.Fatalf("HotEntries = %d, want 2 (one evicted)", s.HotEntries)
	}
	// The evicted key is still a hit — from disk — and, having been read
	// twice before, refills the tier at once.
	if _, src, ok := c.Fetch(keys[0]); !ok || src != SourceDisk {
		t.Fatalf("evicted key Fetch = %q, %v; want disk hit", src, ok)
	}
	if _, src, ok := c.Fetch(keys[0]); !ok || src != SourceHot {
		t.Fatalf("refilled key Fetch = %q, %v; want hot hit", src, ok)
	}
}

// TestCorruptEntryDoesNotPoisonHotTier corrupts a disk entry between its
// first read and the read that would admit it, and checks the degradation
// contract: the read is a miss, the entry is quarantined, and no corrupt
// bytes reach memory.
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
	if _, src, ok := c.Fetch(key); !ok || src != SourceDisk {
		t.Fatalf("first read = %q, %v; want a disk hit", src, ok)
	}

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
	if s := c.Stats(); s.HotEntries != 0 {
		t.Fatal("corrupt read left bytes in the hot tier")
	}
	// Degraded to a miss, not an outage: Fetch again is still a clean miss
	// (the entry was quarantined), and a fresh put is admitted by its next
	// read (the key's first read is remembered) and then served hot.
	if _, _, ok := c.Fetch(key); ok {
		t.Fatal("quarantined entry served")
	}
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if _, src, ok := c.Fetch(key); !ok || src != SourceDisk {
		t.Fatalf("re-put read = %q, %v; want a disk hit", src, ok)
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
