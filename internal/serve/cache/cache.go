// Package cache is the experiment service's content-addressed result
// store: spec hash → serialized result payload, behind a tiered read path
// (DESIGN.md §11).
//
// Tier 0 — hot: an optional byte-capped in-memory LRU (WithHotBytes)
// holding the pre-serialized response bytes. A hot hit is one map lookup;
// no file I/O, no JSON round-trip.
//
// Tier 2 — disk: the durable store. Entries live at <dir>/<h[:2]>/<h>.res
// (two-level fan-out so huge sweeps do not produce one enormous
// directory). Each file is a one-line header — format tag, key, payload
// SHA-256 — followed by the payload bytes. Writes go through a temp file
// in the same directory plus rename, so a concurrent reader sees either
// the whole entry or none of it, and a crash mid-write leaves only a temp
// file that is ignored. Reads verify the header and payload digest;
// anything torn, truncated or foreign is quarantined (renamed to
// <entry>.corrupt, preserving the evidence for inspection) and reported
// as a miss (the job simply recomputes), never as an error — a corrupt
// cache must degrade to a cold cache, not an outage. A corrupt entry
// never reaches the hot tier: only bytes that passed digest verification
// are admitted upward.
//
// Fills below the hot tier are collapsed by a per-key singleflight: a
// stampede of concurrent readers on one uncached key performs exactly one
// disk read; the followers are handed the leader's verified bytes from
// memory (and counted as hot hits — they were served at memory speed).
//
// (Tier 1 of the read path — ETag/If-None-Match revalidation — lives in
// internal/serve/api; it short-circuits before any cache call.)
//
// The fault point "cache.put" (internal/fault) injects put failures for
// chaos testing; an injected failure costs a recompute, exactly like a
// real disk error.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/obs"
)

// headerTag identifies (and versions) the entry encoding.
const headerTag = "PCACHE1"

// Source reports which tier served a Fetch.
type Source string

// Fetch sources. A singleflight follower is reported (and counted) as
// SourceHot: it was served verified bytes from memory, whatever tier the
// flight leader read.
const (
	SourceHot  Source = "hot"
	SourceDisk Source = "disk"
	SourceMiss Source = ""
)

// Cache is a content-addressed store rooted at one directory, fronted by
// the optional hot tier. All methods are safe for concurrent use; the
// atomic counters feed /v1/cache/stats.
type Cache struct {
	dir string
	hot *HotTier // nil = tier disabled

	// flights collapses concurrent below-hot fills per key.
	flightMu sync.Mutex
	flights  map[string]*flight

	hotHits, diskHits atomic.Uint64
	misses, puts      atomic.Uint64
	corruptDropped    atomic.Uint64
	errors            atomic.Uint64
	// lastErr retains the most recent put failure or corruption notice for
	// /healthz forensics; it is never cleared.
	lastErr atomic.Value // string
}

// flight is one in-progress below-hot fill; followers wait on done and
// share the leader's outcome.
type flight struct {
	done    chan struct{}
	payload []byte
	ok      bool
}

// Option adjusts a Cache at Open.
type Option func(*Cache)

// WithHotBytes fronts the disk store with an in-memory hot tier capped at
// maxBytes of pre-serialized payload (<= 0 leaves the tier disabled).
func WithHotBytes(maxBytes int64) Option {
	return func(c *Cache) { c.hot = NewHotTier(maxBytes) }
}

// recordErr counts an error, retains its message, and returns it.
func (c *Cache) recordErr(err error) error {
	c.errors.Add(1)
	c.lastErr.Store(err.Error())
	return err
}

// LastError returns the most recent put failure or corruption notice
// ("" if the cache has never misbehaved).
func (c *Cache) LastError() string {
	if v, ok := c.lastErr.Load().(string); ok {
		return v
	}
	return ""
}

// RegisterMetrics contributes the cache's traffic counters to a metrics
// registry as scrape-time samples (the atomics are the source of truth;
// mirroring them continuously would just race the mirror). "hit" is kept
// as the sum of the per-tier hit events for dashboard compatibility.
func (c *Cache) RegisterMetrics(r *obs.Registry) {
	r.Collect(func(emit func(obs.Sample)) {
		const name = "precisiond_cache_events_total"
		const help = "Result-cache traffic by event (mirrors /v1/cache/stats)."
		hot, disk := c.hotHits.Load(), c.diskHits.Load()
		for _, e := range []struct {
			event string
			v     uint64
		}{
			{"hit", hot + disk},
			{"hot_hit", hot},
			{"disk_hit", disk},
			{"miss", c.misses.Load()},
			{"put", c.puts.Load()},
			{"corrupt_dropped", c.corruptDropped.Load()},
			{"error", c.errors.Load()},
		} {
			emit(obs.Sample{
				Name: name, Help: help, Type: "counter",
				Value: float64(e.v), LabelPairs: []string{"event", e.event},
			})
		}
		if c.hot != nil {
			emit(obs.Sample{
				Name: "precisiond_cache_hot_bytes",
				Help: "Pre-serialized payload bytes resident in the hot tier.",
				Type: "gauge", Value: float64(c.hot.Bytes()),
			})
			emit(obs.Sample{
				Name: "precisiond_cache_hot_entries",
				Help: "Payloads resident in the hot tier.",
				Type: "gauge", Value: float64(c.hot.Len()),
			})
		}
	})
}

// Open roots a cache at dir, creating it if needed.
func Open(dir string, opts ...Option) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: open %s: %w", dir, err)
	}
	c := &Cache{
		dir:     dir,
		flights: make(map[string]*flight),
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Hot exposes the hot tier (nil when disabled) — stats and tests.
func (c *Cache) Hot() *HotTier { return c.hot }

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// validKey reports whether key looks like a lowercase hex content hash —
// the only keys the cache stores, and incidentally a guard against path
// traversal in handler-supplied keys.
func validKey(key string) bool {
	if len(key) != sha256.Size*2 {
		return false
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".res")
}

// Put stores payload under key, atomically. Re-putting an existing key
// rewrites it (the payloads are content-equal by construction, so last
// writer wins is harmless).
func (c *Cache) Put(key string, payload []byte) error {
	if !validKey(key) {
		return c.recordErr(fmt.Errorf("cache: invalid key %q", key))
	}
	if err := fault.Error("cache.put"); err != nil {
		return c.recordErr(fmt.Errorf("cache: put %s: %w", key, err))
	}
	dir := filepath.Join(c.dir, key[:2])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return c.recordErr(fmt.Errorf("cache: put %s: %w", key, err))
	}
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %s %s\n", headerTag, key, hex.EncodeToString(sum[:]))

	tmp, err := os.CreateTemp(dir, "."+key+".tmp*")
	if err != nil {
		return c.recordErr(fmt.Errorf("cache: put %s: %w", key, err))
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.WriteString(header); err == nil {
		_, err = tmp.Write(payload)
		if err == nil {
			err = tmp.Sync()
		}
	} else {
		tmp.Close()
		return c.recordErr(fmt.Errorf("cache: put %s: %w", key, err))
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return c.recordErr(fmt.Errorf("cache: put %s: %w", key, err))
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		return c.recordErr(fmt.Errorf("cache: put %s: %w", key, err))
	}
	c.puts.Add(1)
	// Write-through population: a just-completed job is the likeliest next
	// read (sweep replays, duplicate submissions), so the response bytes go
	// hot immediately.
	c.hot.Put(key, payload)
	return nil
}

// Get returns the payload stored under key (see Fetch).
func (c *Cache) Get(key string) ([]byte, bool) {
	payload, _, ok := c.Fetch(key)
	return payload, ok
}

// Fetch returns the payload stored under key and the tier that served it:
// hot memory, then the local disk. A missing, torn or corrupt
// entry reports (nil, SourceMiss, false); corrupt disk entries are
// quarantined out of the lookup path so they are recomputed rather than
// rediscovered on every request, while the bad bytes stay on disk for
// inspection. Returned payloads are shared read-only slices.
func (c *Cache) Fetch(key string) ([]byte, Source, bool) {
	if !validKey(key) {
		c.misses.Add(1)
		return nil, SourceMiss, false
	}
	if payload, ok := c.hot.Get(key); ok {
		c.hotHits.Add(1)
		return payload, SourceHot, true
	}

	// Below the hot tier, collapse the stampede: one flight per key does
	// the disk read; followers share its verified bytes.
	c.flightMu.Lock()
	if f, inFlight := c.flights[key]; inFlight {
		c.flightMu.Unlock()
		<-f.done
		if !f.ok {
			c.misses.Add(1)
			return nil, SourceMiss, false
		}
		c.hotHits.Add(1) // served from memory, whatever the leader read
		return f.payload, SourceHot, true
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.flightMu.Unlock()

	payload, src, ok := c.fill(key)
	f.payload, f.ok = payload, ok
	c.flightMu.Lock()
	delete(c.flights, key)
	c.flightMu.Unlock()
	close(f.done)
	return payload, src, ok
}

// fill reads one key from disk (the flight leader's path) and populates
// the hot tier on success.
func (c *Cache) fill(key string) ([]byte, Source, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		c.misses.Add(1)
		return nil, SourceMiss, false
	}
	payload, ok := c.verify(key, data)
	if !ok {
		// The corrupt bytes never reach the hot tier — only the verified
		// path above admits payloads upward — so a bad disk entry degrades
		// to a miss without poisoning memory.
		c.corruptDropped.Add(1)
		c.misses.Add(1)
		c.lastErr.Store("corrupt entry quarantined: " + key)
		c.quarantine(key)
		return nil, SourceMiss, false
	}
	c.diskHits.Add(1)
	c.hot.Put(key, payload)
	return payload, SourceDisk, true
}

// quarantine moves a corrupt entry aside to <entry>.corrupt — a rename,
// so the lookup path is cleared atomically. If the rename itself fails
// (unwritable dir) the entry is deleted outright; a corrupt file must
// never stay where Get can keep finding it.
func (c *Cache) quarantine(key string) {
	p := c.path(key)
	if err := os.Rename(p, p+".corrupt"); err != nil {
		os.Remove(p)
	}
}

// WriteProbe verifies the cache directory accepts writes — the /healthz
// degraded signal. It creates and removes a throwaway file; any failure is
// returned verbatim.
func (c *Cache) WriteProbe() error {
	f, err := os.CreateTemp(c.dir, ".probe-*")
	if err != nil {
		return fmt.Errorf("write probe: %w", err)
	}
	name := f.Name()
	_, werr := f.WriteString("probe\n")
	cerr := f.Close()
	os.Remove(name)
	if werr != nil {
		return fmt.Errorf("write probe: %w", werr)
	}
	if cerr != nil {
		return fmt.Errorf("write probe: %w", cerr)
	}
	return nil
}

// verify checks the entry header and payload digest.
func (c *Cache) verify(key string, data []byte) ([]byte, bool) {
	nl := strings.IndexByte(string(data[:min(len(data), 256)]), '\n')
	if nl < 0 {
		return nil, false
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 3 || fields[0] != headerTag || fields[1] != key {
		return nil, false
	}
	payload := data[nl+1:]
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != fields[2] {
		return nil, false
	}
	return payload, true
}

// Stats is a point-in-time snapshot of the cache's traffic and contents.
// Hits is kept as the sum of the per-tier hit counters so pre-tiering
// consumers keep working; the split fields say where each hit was served.
type Stats struct {
	Hits uint64 `json:"hits"` // hot + disk (compatibility sum)
	// HotHits counts reads served from the in-memory tier, including
	// singleflight followers handed the leader's bytes.
	HotHits        uint64 `json:"hot_hits"`
	DiskHits       uint64 `json:"disk_hits"`
	Misses         uint64 `json:"misses"`
	Puts           uint64 `json:"puts"`
	CorruptDropped uint64 `json:"corrupt_dropped"`
	Errors         uint64 `json:"errors"`
	// HotEntries/HotBytes/HotMaxBytes describe the hot tier (zero when
	// disabled).
	HotEntries  int   `json:"hot_entries"`
	HotBytes    int64 `json:"hot_bytes"`
	HotMaxBytes int64 `json:"hot_max_bytes"`
	// Entries, Bytes and QuarantinedFiles are counted by walking the store
	// at snapshot time; quarantined files are corrupt entries set aside as
	// <entry>.corrupt by Get.
	Entries          int   `json:"entries"`
	Bytes            int64 `json:"bytes"`
	QuarantinedFiles int   `json:"quarantined_files"`
}

// Stats snapshots the counters and walks the store for entry counts.
func (c *Cache) Stats() Stats {
	s := Stats{
		HotHits:        c.hotHits.Load(),
		DiskHits:       c.diskHits.Load(),
		Misses:         c.misses.Load(),
		Puts:           c.puts.Load(),
		CorruptDropped: c.corruptDropped.Load(),
		Errors:         c.errors.Load(),
		HotEntries:     c.hot.Len(),
		HotBytes:       c.hot.Bytes(),
		HotMaxBytes:    c.hot.MaxBytes(),
	}
	s.Hits = s.HotHits + s.DiskHits
	filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		switch {
		case strings.HasSuffix(path, ".res"):
			if info, err := d.Info(); err == nil {
				s.Entries++
				s.Bytes += info.Size()
			}
		case strings.HasSuffix(path, ".corrupt"):
			s.QuarantinedFiles++
		}
		return nil
	})
	return s
}
