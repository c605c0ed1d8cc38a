package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersAddAndTotals(t *testing.T) {
	a := Counters{Flops32: 10, Flops64: 5, LoadBytes: 100, StoreBytes: 50, KernelLaunches: 1}
	b := Counters{Flops16: 2, Flops32: 1, Transcendental64: 3, Conversions: 7, KernelLaunches: 2}
	a.Add(b)
	if a.Flops32 != 11 || a.Flops16 != 2 || a.Transcendental64 != 3 || a.KernelLaunches != 3 {
		t.Errorf("Add merged wrong: %+v", a)
	}
	if got := a.TotalFlops(); got != 2+11+5 {
		t.Errorf("TotalFlops = %d", got)
	}
	if got := a.TotalBytes(); got != 150 {
		t.Errorf("TotalBytes = %d", got)
	}
	if got := a.ArithmeticIntensity(); got != float64(18)/150 {
		t.Errorf("ArithmeticIntensity = %g", got)
	}
	if (Counters{}).ArithmeticIntensity() != 0 {
		t.Error("empty intensity not zero")
	}
	if !strings.Contains(a.String(), "flops") {
		t.Error("String missing content")
	}
}

func TestCountersAddByWidth(t *testing.T) {
	var c Counters
	c.AddFlops(4, 3)
	c.AddFlops(8, 5)
	c.AddTranscendental(4, 7)
	c.AddTranscendental(8, 11)
	c.AddConversions(4, 4, 100) // same width: no promotion traffic
	c.AddConversions(4, 8, 13)
	want := Counters{Flops32: 3, Flops64: 5, Transcendental32: 7, Transcendental64: 11, Conversions: 13}
	if c != want {
		t.Errorf("by-width adds = %+v, want %+v", c, want)
	}
}

func TestSIAndBytes(t *testing.T) {
	cases := map[uint64]string{
		5:             "5",
		1500:          "1.50k",
		2_500_000:     "2.50M",
		3_000_000_000: "3.00G",
	}
	for v, want := range cases {
		if got := SI(v); got != want {
			t.Errorf("SI(%d) = %q, want %q", v, got, want)
		}
	}
	if got := SI(2e12); got != "2.00T" {
		t.Errorf("SI tera = %q", got)
	}
	bcases := map[uint64]string{
		512:       "512B",
		2048:      "2.00KiB",
		3 << 20:   "3.00MiB",
		5 << 30:   "5.00GiB",
		1<<40 + 1: "1.00TiB",
	}
	for v, want := range bcases {
		if got := Bytes(v); got != want {
			t.Errorf("Bytes(%d) = %q, want %q", v, got, want)
		}
	}
}

func TestAllocTracker(t *testing.T) {
	tr := NewAllocTracker()
	tr.Register("state", 1000)
	tr.Register("mesh", 500)
	tr.Register("state", 200)
	if tr.Current() != 1700 || tr.Peak() != 1700 {
		t.Errorf("current %d peak %d", tr.Current(), tr.Peak())
	}
	tr.Release("mesh", 500)
	if tr.Current() != 1200 {
		t.Errorf("after release: %d", tr.Current())
	}
	if tr.Peak() != 1700 {
		t.Errorf("peak moved: %d", tr.Peak())
	}
	// Over-release clamps.
	tr.Release("state", 99999)
	if tr.Current() != 0 {
		t.Errorf("over-release left %d", tr.Current())
	}
	tr.Register("a", 10)
	tr.Register("b", 20)
	bd := tr.Breakdown()
	if !strings.Contains(bd, "a") || !strings.Contains(bd, "b") {
		t.Errorf("breakdown missing labels: %q", bd)
	}
	if strings.Index(bd, "b") > strings.Index(bd, "a") {
		t.Errorf("breakdown not sorted by size: %q", bd)
	}
}

func TestTimerPhases(t *testing.T) {
	tm := NewTimer()
	done := tm.Phase("work")
	time.Sleep(5 * time.Millisecond)
	done()
	if tm.Total("work") < 4*time.Millisecond {
		t.Errorf("phase recorded %v", tm.Total("work"))
	}
	tm.Observe("io", 2*time.Second)
	tm.Observe("io", time.Second)
	if tm.Total("io") != 3*time.Second {
		t.Errorf("Observe total = %v", tm.Total("io"))
	}
	if tm.Total("missing") != 0 {
		t.Error("missing bucket nonzero")
	}
	names := tm.Names()
	if len(names) != 2 || names[0] != "work" || names[1] != "io" {
		t.Errorf("Names = %v", names)
	}
	if !strings.Contains(tm.String(), "io") {
		t.Error("String missing bucket")
	}
}

func TestTimerCellZeroAlloc(t *testing.T) {
	tm := NewTimer()
	cell := tm.Cell("hot")
	if allocs := testing.AllocsPerRun(100, func() {
		start := time.Now()
		cell.Observe(start)
	}); allocs != 0 {
		t.Errorf("PhaseCell.Observe allocated %v objects per call", allocs)
	}
	start := time.Now()
	time.Sleep(2 * time.Millisecond)
	cell.Observe(start)
	if tm.Total("hot") < time.Millisecond {
		t.Errorf("cell recorded %v", tm.Total("hot"))
	}
	// Cell and Phase share the bucket.
	done := tm.Phase("hot")
	done()
	if len(tm.Names()) != 1 {
		t.Errorf("Cell/Phase split buckets: %v", tm.Names())
	}
}

func TestMemSampleAndAllocCounters(t *testing.T) {
	ms := StartMemSample()
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	var c Counters
	c.AddAllocSince(ms)
	if c.AllocBytes < 64*1024 || c.AllocCount < 64 {
		t.Errorf("sample missed allocations: %+v", c)
	}
	_ = sink
	var d Counters
	d.Add(Counters{AllocBytes: 10, AllocCount: 2})
	d.Add(Counters{AllocBytes: 5, AllocCount: 1})
	if d.AllocBytes != 15 || d.AllocCount != 3 {
		t.Errorf("Add ignored alloc counters: %+v", d)
	}
	sc := d.Scale(2)
	if sc.AllocBytes != 30 || sc.AllocCount != 6 {
		t.Errorf("Scale ignored alloc counters: %+v", sc)
	}
	if !strings.Contains(d.String(), "heap") {
		t.Errorf("String missing heap section: %q", d.String())
	}
	if strings.Contains((Counters{}).String(), "heap") {
		t.Error("String shows heap section when empty")
	}
}

func TestTimerConcurrentObserve(t *testing.T) {
	tm := NewTimer()
	tm.Observe("x", 0) // create the bucket before concurrent use
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				tm.Observe("x", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := tm.Total("x"); got != 16*1000*time.Microsecond {
		t.Errorf("concurrent observe total = %v", got)
	}
}

func TestCountersJSONDeterministic(t *testing.T) {
	c := Counters{
		Flops16: 1, Flops32: 2, Flops64: 3,
		Transcendental32: 4, Transcendental64: 5,
		LoadBytes: 6, StoreBytes: 7, Conversions: 8,
		KernelLaunches: 9, AllocBytes: 10, AllocCount: 11,
	}
	want := `{"flops16":1,"flops32":2,"flops64":3,` +
		`"transcendental32":4,"transcendental64":5,` +
		`"load_bytes":6,"store_bytes":7,"conversions":8,` +
		`"kernel_launches":9,"alloc_bytes":10,"alloc_count":11}`
	for i := 0; i < 3; i++ {
		got, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if string(got) != want {
			t.Fatalf("marshal %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

func TestCountersJSONRoundTrip(t *testing.T) {
	c := Counters{
		Flops16: 1 << 40, Flops32: 12345, Flops64: math.MaxUint64,
		Transcendental32: 1, Transcendental64: 2,
		LoadBytes: 3, StoreBytes: 4, Conversions: 5,
		KernelLaunches: 6, AllocBytes: 7, AllocCount: 8,
	}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Counters
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back != c {
		t.Fatalf("round trip changed counters:\n got %+v\nwant %+v", back, c)
	}
	// Zero values round-trip too (every key is always emitted).
	data, _ = json.Marshal(Counters{})
	var zero Counters
	if err := json.Unmarshal(data, &zero); err != nil {
		t.Fatalf("unmarshal zero: %v", err)
	}
	if zero != (Counters{}) {
		t.Fatalf("zero round trip = %+v", zero)
	}
}

func TestCountersJSONRejectsUnknownFields(t *testing.T) {
	var c Counters
	if err := json.Unmarshal([]byte(`{"flops32":1,"bogus":2}`), &c); err == nil {
		t.Fatal("unknown field accepted")
	}
	if err := json.Unmarshal([]byte(`{"flops32":`), &c); err == nil {
		t.Fatal("truncated JSON accepted")
	}
}
