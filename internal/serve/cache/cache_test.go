package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/fault"
)

func testKey(seed string) string {
	sum := sha256.Sum256([]byte(seed))
	return hex.EncodeToString(sum[:])
}

func TestPutGetRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("a")
	payload := []byte(`{"result":42}`)
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q", got, ok, payload)
	}
	// Byte-identity on repeated reads.
	again, ok := c.Get(key)
	if !ok || !bytes.Equal(again, got) {
		t.Fatal("second read differs")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Puts != 1 || s.Entries != 1 || s.Bytes == 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRejectsInvalidKeys(t *testing.T) {
	c, _ := Open(t.TempDir())
	for _, key := range []string{"", "short", "../../etc/passwd", testKey("x")[:40] + "Z" + testKey("x")[41:]} {
		if err := c.Put(key, []byte("p")); err == nil {
			t.Errorf("Put accepted key %q", key)
		}
		if _, ok := c.Get(key); ok {
			t.Errorf("Get accepted key %q", key)
		}
	}
}

func TestCorruptEntriesAreDroppedAsMisses(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	key := testKey("victim")
	if err := c.Put(key, []byte("precious bytes")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key[:2], key+".res")

	corruptions := []func(t *testing.T){
		func(t *testing.T) { // flipped payload byte
			data, _ := os.ReadFile(path)
			data[len(data)-1] ^= 0xff
			os.WriteFile(path, data, 0o644)
		},
		func(t *testing.T) { // truncation
			data, _ := os.ReadFile(path)
			os.WriteFile(path, data[:len(data)/2], 0o644)
		},
		func(t *testing.T) { // wrong key in header
			other := testKey("other")
			payload := []byte("precious bytes")
			sum := sha256.Sum256(payload)
			os.WriteFile(path, []byte(fmt.Sprintf("PCACHE1 %s %s\n%s", other, hex.EncodeToString(sum[:]), payload)), 0o644)
		},
		func(t *testing.T) { // not an entry at all
			os.WriteFile(path, []byte("garbage with no newline"), 0o644)
		},
	}
	for i, corrupt := range corruptions {
		if err := c.Put(key, []byte("precious bytes")); err != nil {
			t.Fatal(err)
		}
		corrupt(t)
		if _, ok := c.Get(key); ok {
			t.Fatalf("corruption %d served", i)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("corruption %d: entry not dropped", i)
		}
		// The bad bytes are quarantined beside the entry, not destroyed.
		if _, err := os.Stat(path + ".corrupt"); err != nil {
			t.Fatalf("corruption %d: no quarantine file: %v", i, err)
		}
	}
	s := c.Stats()
	if s.CorruptDropped != uint64(len(corruptions)) {
		t.Errorf("CorruptDropped = %d, want %d", s.CorruptDropped, len(corruptions))
	}
	// Repeated corruptions of one key quarantine over the same .corrupt
	// name, so exactly one quarantined file remains.
	if s.QuarantinedFiles != 1 {
		t.Errorf("QuarantinedFiles = %d, want 1", s.QuarantinedFiles)
	}
	// A fresh put of the key works and serves again: quarantine cleared
	// the lookup path.
	if err := c.Put(key, []byte("precious bytes")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); !ok {
		t.Fatal("re-put after quarantine not served")
	}
}

func TestPutFaultInjection(t *testing.T) {
	c, _ := Open(t.TempDir())
	if err := fault.Arm("cache.put=n:1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disarm()
	key := testKey("faulty")
	err := c.Put(key, []byte("payload"))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Put under armed fault = %v, want ErrInjected", err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("failed put left a readable entry")
	}
	// n:1 trips once; the retry lands.
	if err := c.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); !ok {
		t.Fatal("post-fault put not served")
	}
	if s := c.Stats(); s.Errors != 1 {
		t.Errorf("Errors = %d, want 1", s.Errors)
	}
}

func TestWriteProbe(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	if err := c.WriteProbe(); err != nil {
		t.Fatalf("probe on healthy dir: %v", err)
	}
	// An unwritable cache dir must degrade the probe.
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if os.Getuid() == 0 {
		t.Skip("running as root: chmod does not revoke write access")
	}
	if err := c.WriteProbe(); err == nil {
		t.Fatal("probe succeeded on read-only dir")
	}
}

func TestTempFilesAreInvisible(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	key := testKey("t")
	// Simulate a crash mid-write: a temp file but no rename.
	sub := filepath.Join(dir, key[:2])
	os.MkdirAll(sub, 0o755)
	os.WriteFile(filepath.Join(sub, "."+key+".tmp123"), []byte("partial"), 0o644)
	if _, ok := c.Get(key); ok {
		t.Fatal("temp file served as entry")
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Errorf("temp file counted as entry: %+v", s)
	}
}

// TestPutLeavesOnlyItsEntry: a put makes its shard directory when it is
// missing and leaves exactly the entry file behind; a put whose rename
// fails leaves no temp file.
func TestPutLeavesOnlyItsEntry(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	key := testKey("only")
	shard := filepath.Join(dir, key[:2])
	listShard := func() []string {
		t.Helper()
		des, err := os.ReadDir(shard)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		return names
	}
	for i := 0; i < 2; i++ { // the second put finds the shard made
		if err := c.Put(key, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if got := listShard(); len(got) != 1 || got[0] != key+".res" {
			t.Fatalf("put %d left %q in its shard, want only the entry", i+1, got)
		}
	}
	if got, ok := c.Get(key); !ok || string(got) != "payload" {
		t.Fatalf("Get = %q, %v", got, ok)
	}

	// A non-empty directory where the entry goes fails the rename.
	bad := testKey("bad")
	for bad[:2] != key[:2] {
		bad = testKey(bad)
	}
	if err := os.MkdirAll(filepath.Join(shard, bad+".res", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(bad, []byte("payload")); err == nil {
		t.Fatal("put over a non-empty directory succeeded")
	}
	for _, name := range listShard() {
		if name != key+".res" && name != bad+".res" {
			t.Errorf("failed put left %q behind", name)
		}
	}
}

func TestConcurrentPutGet(t *testing.T) {
	c, _ := Open(t.TempDir())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := testKey(fmt.Sprintf("k%d", i%4)) // overlapping keys
			payload := []byte(fmt.Sprintf("payload-%d", i%4))
			for j := 0; j < 50; j++ {
				if err := c.Put(key, payload); err != nil {
					t.Error(err)
					return
				}
				if got, ok := c.Get(key); ok && !bytes.Equal(got, payload) {
					t.Errorf("torn read: %q", got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if s := c.Stats(); s.Entries != 4 {
		t.Errorf("entries = %d, want 4", s.Entries)
	}
}
