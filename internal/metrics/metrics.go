// Package metrics instruments the mini-apps with the operation and traffic
// accounting the architecture model consumes. Kernels record exact analytic
// tallies (flops per cell × cells, bytes per sweep × sweeps) rather than
// per-operation hooks, so instrumentation has negligible runtime cost while
// the counts remain exact for the structured loops these codes run.
package metrics

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Counters aggregates the work performed by a run, split by precision class
// the way the roofline model needs it.
type Counters struct {
	// Floating-point operations by compute width.
	Flops16, Flops32, Flops64 uint64
	// Transcendental evaluations (pow/exp/log/sqrt beyond one flop),
	// by compute width. Each typically costs 10–40 flop-equivalents.
	Transcendental32, Transcendental64 uint64
	// Memory traffic in bytes, split load/store. This is algorithmic
	// traffic (array reads and writes issued by the kernels), the quantity
	// the paper's bandwidth argument is about.
	LoadBytes, StoreBytes uint64
	// Conversions between precisions (f32↔f64, f16↔f32), as the compiler
	// study counts promotion overhead.
	Conversions uint64
	// KernelLaunches counts distinct kernel sweeps (GPU launch overhead).
	KernelLaunches uint64
	// AllocBytes and AllocCount record Go heap allocation observed around
	// instrumented phases (runtime.ReadMemStats deltas, see MemSample). A
	// steady-state solver loop should hold both at zero; nonzero values
	// localise dispatch or scratch churn the roofline model cannot see.
	AllocBytes, AllocCount uint64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Flops16 += other.Flops16
	c.Flops32 += other.Flops32
	c.Flops64 += other.Flops64
	c.Transcendental32 += other.Transcendental32
	c.Transcendental64 += other.Transcendental64
	c.LoadBytes += other.LoadBytes
	c.StoreBytes += other.StoreBytes
	c.Conversions += other.Conversions
	c.KernelLaunches += other.KernelLaunches
	c.AllocBytes += other.AllocBytes
	c.AllocCount += other.AllocCount
}

// AddFlops tallies n floating-point operations at a compute width of 4 or
// 8 bytes (precision.Sizeof of the solver's compute type).
func (c *Counters) AddFlops(width int, n uint64) {
	if width == 8 {
		c.Flops64 += n
	} else {
		c.Flops32 += n
	}
}

// AddTranscendental tallies n transcendental evaluations at a compute width
// of 4 or 8 bytes.
func (c *Counters) AddTranscendental(width int, n uint64) {
	if width == 8 {
		c.Transcendental64 += n
	} else {
		c.Transcendental32 += n
	}
}

// AddConversions tallies n storage↔compute conversions: promotion traffic
// that exists only when the two widths differ (the mixed modes).
func (c *Counters) AddConversions(storageWidth, computeWidth int, n uint64) {
	if storageWidth != computeWidth {
		c.Conversions += n
	}
}

// Scale returns the counters multiplied by f. Because the kernels' tallies
// are exact linear functions of cells×steps (or nodes×steps), scaling
// extrapolates a measured run to a larger instance of the same
// configuration exactly.
func (c Counters) Scale(f float64) Counters {
	s := func(v uint64) uint64 { return uint64(float64(v) * f) }
	return Counters{
		Flops16:          s(c.Flops16),
		Flops32:          s(c.Flops32),
		Flops64:          s(c.Flops64),
		Transcendental32: s(c.Transcendental32),
		Transcendental64: s(c.Transcendental64),
		LoadBytes:        s(c.LoadBytes),
		StoreBytes:       s(c.StoreBytes),
		Conversions:      s(c.Conversions),
		KernelLaunches:   s(c.KernelLaunches),
		AllocBytes:       s(c.AllocBytes),
		AllocCount:       s(c.AllocCount),
	}
}

// counterFields is the canonical JSON field order of Counters. The
// content-addressed result cache (internal/serve/cache) hashes serialized
// counters, so the encoding must be byte-stable across runs, Go versions
// and struct-field reorderings; this table — not struct declaration order —
// defines it. New fields must be appended, never inserted.
var counterFields = [...]struct {
	key string
	get func(*Counters) *uint64
}{
	{"flops16", func(c *Counters) *uint64 { return &c.Flops16 }},
	{"flops32", func(c *Counters) *uint64 { return &c.Flops32 }},
	{"flops64", func(c *Counters) *uint64 { return &c.Flops64 }},
	{"transcendental32", func(c *Counters) *uint64 { return &c.Transcendental32 }},
	{"transcendental64", func(c *Counters) *uint64 { return &c.Transcendental64 }},
	{"load_bytes", func(c *Counters) *uint64 { return &c.LoadBytes }},
	{"store_bytes", func(c *Counters) *uint64 { return &c.StoreBytes }},
	{"conversions", func(c *Counters) *uint64 { return &c.Conversions }},
	{"kernel_launches", func(c *Counters) *uint64 { return &c.KernelLaunches }},
	{"alloc_bytes", func(c *Counters) *uint64 { return &c.AllocBytes }},
	{"alloc_count", func(c *Counters) *uint64 { return &c.AllocCount }},
}

// MarshalJSON emits the counters as a JSON object with a fixed, documented
// key order (see counterFields) so the bytes are identical for identical
// counts on every platform and Go release.
func (c Counters) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('{')
	for i, f := range counterFields {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%d", f.key, *f.get(&c))
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// UnmarshalJSON accepts the canonical encoding (unknown keys are rejected so
// corrupted or future-versioned cache entries surface as errors rather than
// silently dropping counts).
func (c *Counters) UnmarshalJSON(data []byte) error {
	var raw map[string]uint64
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("metrics: counters: %w", err)
	}
	var out Counters
	for _, f := range counterFields {
		if v, ok := raw[f.key]; ok {
			*f.get(&out) = v
			delete(raw, f.key)
		}
	}
	if len(raw) > 0 {
		keys := make([]string, 0, len(raw))
		for k := range raw {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return fmt.Errorf("metrics: counters: unknown fields %v", keys)
	}
	*c = out
	return nil
}

// TotalFlops returns all floating-point operations regardless of width.
func (c Counters) TotalFlops() uint64 { return c.Flops16 + c.Flops32 + c.Flops64 }

// TotalBytes returns total memory traffic.
func (c Counters) TotalBytes() uint64 { return c.LoadBytes + c.StoreBytes }

// ArithmeticIntensity returns flops per byte of traffic; 0 when no traffic
// was recorded.
func (c Counters) ArithmeticIntensity() float64 {
	b := c.TotalBytes()
	if b == 0 {
		return 0
	}
	return float64(c.TotalFlops()) / float64(b)
}

// String renders a compact human-readable summary.
func (c Counters) String() string {
	s := fmt.Sprintf(
		"flops{16:%s 32:%s 64:%s} transc{32:%s 64:%s} mem{ld:%s st:%s} conv:%s launches:%d",
		SI(c.Flops16), SI(c.Flops32), SI(c.Flops64),
		SI(c.Transcendental32), SI(c.Transcendental64),
		Bytes(c.LoadBytes), Bytes(c.StoreBytes), SI(c.Conversions), c.KernelLaunches)
	if c.AllocCount > 0 || c.AllocBytes > 0 {
		s += fmt.Sprintf(" heap{%s in %s objects}", Bytes(c.AllocBytes), SI(c.AllocCount))
	}
	return s
}

// MemSample captures the process heap-allocation counters at a point in
// time so a phase can be bracketed:
//
//	ms := metrics.StartMemSample()
//	...phase...
//	counters.AddAllocSince(ms)
//
// Sampling calls runtime.ReadMemStats, which briefly stops the world — use
// it around coarse phases (an experiment, a whole run), not inner loops.
type MemSample struct {
	bytes, count uint64
}

// StartMemSample records the current cumulative heap-allocation counters.
func StartMemSample() MemSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemSample{bytes: ms.TotalAlloc, count: ms.Mallocs}
}

// Delta returns the heap bytes and objects allocated since the sample was
// taken (process-wide, all goroutines).
func (s MemSample) Delta() (allocBytes, allocCount uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - s.bytes, ms.Mallocs - s.count
}

// AddAllocSince accumulates the allocation observed since the sample into
// the counters' AllocBytes/AllocCount.
func (c *Counters) AddAllocSince(s MemSample) {
	b, n := s.Delta()
	c.AllocBytes += b
	c.AllocCount += n
}

// SI formats a count with a decimal SI suffix (k, M, G, T).
func SI(v uint64) string {
	switch {
	case v >= 1e12:
		return fmt.Sprintf("%.2fT", float64(v)/1e12)
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", float64(v)/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", float64(v)/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fk", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}

// Bytes formats a byte count with a binary suffix.
func Bytes(v uint64) string {
	switch {
	case v >= 1<<40:
		return fmt.Sprintf("%.2fTiB", float64(v)/(1<<40))
	case v >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%dB", v)
	}
}

// AllocTracker accounts for the resident state arrays of a solver, giving
// the "Memory Usage" column of the paper's tables. Register every long-lived
// allocation under a label; scratch that is freed should be released.
type AllocTracker struct {
	byLabel map[string]uint64
	peak    uint64
	current uint64
}

// NewAllocTracker returns an empty tracker.
func NewAllocTracker() *AllocTracker {
	return &AllocTracker{byLabel: make(map[string]uint64)}
}

// Register records bytes of live allocation under label (accumulating).
func (t *AllocTracker) Register(label string, bytes uint64) {
	t.byLabel[label] += bytes
	t.current += bytes
	if t.current > t.peak {
		t.peak = t.current
	}
}

// Release records that bytes under label were freed. Releasing more than
// was registered clamps to zero.
func (t *AllocTracker) Release(label string, bytes uint64) {
	if have := t.byLabel[label]; bytes > have {
		bytes = have
	}
	t.byLabel[label] -= bytes
	if t.byLabel[label] == 0 {
		delete(t.byLabel, label)
	}
	if bytes > t.current {
		bytes = t.current
	}
	t.current -= bytes
}

// Current returns the live tracked bytes.
func (t *AllocTracker) Current() uint64 { return t.current }

// Peak returns the high-water mark of tracked bytes.
func (t *AllocTracker) Peak() uint64 { return t.peak }

// Breakdown returns "label: size" lines sorted by descending size.
func (t *AllocTracker) Breakdown() string {
	type kv struct {
		k string
		v uint64
	}
	items := make([]kv, 0, len(t.byLabel))
	for k, v := range t.byLabel {
		items = append(items, kv{k, v})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].v != items[j].v {
			return items[i].v > items[j].v
		}
		return items[i].k < items[j].k
	})
	var b strings.Builder
	for _, it := range items {
		fmt.Fprintf(&b, "%-24s %s\n", it.k, Bytes(it.v))
	}
	return b.String()
}

// Timer measures named wall-clock phases; it is safe for concurrent
// Observe calls.
type Timer struct {
	totals map[string]*int64 // nanoseconds
	order  []string
}

// NewTimer returns an empty timer.
func NewTimer() *Timer { return &Timer{totals: make(map[string]*int64)} }

// Phase returns a function that, when called, adds the elapsed time since
// Phase was called to the named bucket:
//
//	defer timer.Phase("finite_diff")()
func (t *Timer) Phase(name string) func() {
	cell := t.bucket(name)
	start := time.Now()
	return func() { atomic.AddInt64(cell, int64(time.Since(start))) }
}

// Observe adds d to the named bucket directly.
func (t *Timer) Observe(name string, d time.Duration) {
	atomic.AddInt64(t.bucket(name), int64(d))
}

// PhaseCell is a preresolved timer bucket for allocation-free timing in hot
// loops. Phase closes over its bucket and so heap-allocates per call; a
// PhaseCell is resolved once and used as
//
//	start := time.Now()
//	...phase...
//	cell.Observe(start)
//
// which allocates nothing.
type PhaseCell struct{ ns *int64 }

// Cell resolves (creating if needed) the named bucket.
func (t *Timer) Cell(name string) PhaseCell { return PhaseCell{ns: t.bucket(name)} }

// Observe adds the time elapsed since start to the cell's bucket.
func (c PhaseCell) Observe(start time.Time) {
	atomic.AddInt64(c.ns, int64(time.Since(start)))
}

func (t *Timer) bucket(name string) *int64 {
	if cell, ok := t.totals[name]; ok {
		return cell
	}
	cell := new(int64)
	t.totals[name] = cell
	t.order = append(t.order, name)
	return cell
}

// Total returns the accumulated duration of the named bucket.
func (t *Timer) Total(name string) time.Duration {
	if cell, ok := t.totals[name]; ok {
		return time.Duration(atomic.LoadInt64(cell))
	}
	return 0
}

// Names returns bucket names in first-use order.
func (t *Timer) Names() []string { return append([]string(nil), t.order...) }

// PhaseTotal is one timer bucket's accumulated wall-clock time, in the JSON
// shape results and traces carry.
type PhaseTotal struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Totals snapshots every bucket in first-use order.
func (t *Timer) Totals() []PhaseTotal {
	out := make([]PhaseTotal, 0, len(t.order))
	for _, name := range t.order {
		out = append(out, PhaseTotal{Name: name, Seconds: t.Total(name).Seconds()})
	}
	return out
}

// String renders all buckets.
func (t *Timer) String() string {
	var b strings.Builder
	for _, name := range t.order {
		fmt.Fprintf(&b, "%-24s %v\n", name, t.Total(name))
	}
	return b.String()
}
