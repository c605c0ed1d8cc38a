package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: union is 10..60
		{Name: "c", Start: 90, End: 130, Parent: 0}, // clipped to the parent: 90..100
		{Name: "leaf", Start: 12, End: 20, Parent: 1},
		{Name: "phase", Start: 10, End: 25, Parent: 1, Aggregate: true}, // additive 15
		{Name: "orphan", Start: 5, End: 9, Parent: -1},
	}
	want := []int64{
		100 - 50 - 10, // op: minus union(a,b)=50, minus clipped c=10
		30 - 8 - 15,   // a: minus leaf, minus the aggregate
		30, 40, 8, 15, 4,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	// Aggregates larger than their parent cannot push self time negative.
	over := []span{{Name: "p", Start: 0, End: 10, Parent: -1}, {Name: "x", Start: 0, End: 50, Parent: 0, Aggregate: true}}
	if s := selfTimes(over); s[0] != 0 {
		t.Errorf("self of an over-covered span = %d, want 0", s[0])
	}
	byName, counts := selfByName(spans)
	if byName["op"] != 40 || counts["op"] != 1 {
		t.Errorf("selfByName op = %d (n=%d)", byName["op"], counts["op"])
	}
}

func TestRecorderGatingAndSnapshot(t *testing.T) {
	r := newRecorder()
	if id := r.begin("off", -1, 1, 0); id != -1 {
		t.Fatalf("disabled recorder returned span %d", id)
	}
	r.end(-1) // must not panic
	r.enable(true)
	parent := r.begin("op", -1, 7, 2)
	child := r.begin("call", parent, 7, 2)
	open := r.begin("never closed", parent, 7, 2)
	fetch := r.begin("cache.fetch", parent, 7, 2)
	r.endAs(fetch, "cache.fetch:hot")
	r.end(child)
	r.end(parent)
	_ = open
	spans := r.snapshot()
	if len(spans) != 3 {
		t.Fatalf("snapshot kept %d spans, want 3 (the open one dropped)", len(spans))
	}
	if spans[1].Parent != 0 || spans[2].Parent != 0 || spans[2].Name != "cache.fetch:hot" || spans[0].Op != 7 {
		t.Errorf("snapshot = %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[0].Tid != 2 {
		t.Errorf("chrome trace = %+v", doc.TraceEvents)
	}
}
