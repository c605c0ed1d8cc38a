package main

import (
	"math"
	"testing"
)

const scrapeBefore = `# HELP precisiond_jobs_total Scheduler job traffic by event.
# TYPE precisiond_jobs_total counter
precisiond_jobs_total{event="executed"} 10
precisiond_jobs_total{event="submitted"} 12
# TYPE precisiond_journal_fsync_seconds histogram
precisiond_journal_fsync_seconds_bucket{le="0.001"} 30
precisiond_journal_fsync_seconds_bucket{le="0.01"} 40
precisiond_journal_fsync_seconds_bucket{le="+Inf"} 40
precisiond_journal_fsync_seconds_sum 0.02
precisiond_journal_fsync_seconds_count 40
dispatch_place_wait_seconds_bucket{backend="fleet",le="0.1"} 1
dispatch_place_wait_seconds_bucket{backend="fleet",le="+Inf"} 2
dispatch_place_wait_seconds_sum{backend="fleet"} 0.5
dispatch_place_wait_seconds_count{backend="fleet"} 2
dispatch_place_wait_seconds_bucket{backend="local",le="0.1"} 7
dispatch_place_wait_seconds_bucket{backend="local",le="+Inf"} 7
dispatch_place_wait_seconds_sum{backend="local"} 0.07
dispatch_place_wait_seconds_count{backend="local"} 7
`

const scrapeAfter = `precisiond_jobs_total{event="executed"} 110
precisiond_jobs_total{event="submitted"} 112
precisiond_jobs_total{event="retried"} 3
odd_label{path="a \"quoted\" \\ value",le="x"} 4.5
precisiond_journal_fsync_seconds_bucket{le="0.001"} 330
precisiond_journal_fsync_seconds_bucket{le="0.01"} 430
precisiond_journal_fsync_seconds_bucket{le="+Inf"} 440
precisiond_journal_fsync_seconds_sum 0.22
precisiond_journal_fsync_seconds_count 440
dispatch_place_wait_seconds_bucket{backend="fleet",le="0.1"} 5
dispatch_place_wait_seconds_bucket{backend="fleet",le="+Inf"} 12
dispatch_place_wait_seconds_sum{backend="fleet"} 2.5
dispatch_place_wait_seconds_count{backend="fleet"} 12
dispatch_place_wait_seconds_bucket{backend="local",le="0.1"} 7
dispatch_place_wait_seconds_bucket{backend="local",le="+Inf"} 7
dispatch_place_wait_seconds_sum{backend="local"} 0.07
dispatch_place_wait_seconds_count{backend="local"} 7
this line is not a sample
`

func TestParsePromAndDeltas(t *testing.T) {
	b, a := parseProm([]byte(scrapeBefore)), parseProm([]byte(scrapeAfter))
	if got := delta(b, a, "precisiond_jobs_total", "event", "executed"); got != 100 {
		t.Errorf("executed delta = %v, want 100", got)
	}
	// A series first seen during the window counts from zero.
	if got := delta(b, a, "precisiond_jobs_total", "event", "retried"); got != 3 {
		t.Errorf("retried delta = %v, want 3", got)
	}
	// Label order in the lookup does not matter; escapes are undone.
	if got := a.get("odd_label", "le", "x", "path", `a "quoted" \ value`); got != 4.5 {
		t.Errorf("escaped label lookup = %v, want 4.5", got)
	}
}

func TestHistogramDelta(t *testing.T) {
	b, a := parseProm([]byte(scrapeBefore)), parseProm([]byte(scrapeAfter))
	h := histogramDelta(b, a, "precisiond_journal_fsync_seconds")
	if h.Count != 400 || math.Abs(h.Sum-0.2) > 1e-12 {
		t.Fatalf("fsync delta count=%v sum=%v, want 400 and 0.2", h.Count, h.Sum)
	}
	if math.Abs(h.Mean()-0.0005) > 1e-12 {
		t.Errorf("fsync mean = %v, want 0.0005", h.Mean())
	}
	// Cumulative buckets 300, 390, 400 → per-bucket 300, 90, 10.
	want := []float64{300, 90, 10}
	if len(h.Counts) != 3 || !math.IsInf(h.Bounds[2], 1) {
		t.Fatalf("buckets = %v / %v", h.Bounds, h.Counts)
	}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bucket %d = %v, want %v", i, h.Counts[i], w)
		}
	}
	// Selecting by label keeps the two backends apart.
	fleet := histogramDelta(b, a, "dispatch_place_wait_seconds", "backend", "fleet")
	if fleet.Count != 10 || math.Abs(fleet.Mean()-0.2) > 1e-12 {
		t.Errorf("fleet place wait count=%v mean=%v, want 10 and 0.2", fleet.Count, fleet.Mean())
	}
	if local := histogramDelta(b, a, "dispatch_place_wait_seconds", "backend", "local"); local.Count != 0 || local.Mean() != 0 {
		t.Errorf("idle histogram: count=%v mean=%v, want zeros", local.Count, local.Mean())
	}
}
