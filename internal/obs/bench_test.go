package obs

import (
	"strings"
	"testing"
	"time"
)

// workerSideTrace builds the remote snapshot a typical lease ships back:
// root, solve with three phase aggregates, checkpoint.
func workerSideTrace() TraceData {
	tr := NewTrace("job-bench", "worker", Str("worker", "worker-001"))
	solve := tr.Root().Child("solve", Str("mode", "mixed"))
	for _, p := range []string{"hydro", "amr", "reduce"} {
		solve.AggregateChild("phase:"+p, time.Millisecond)
	}
	solve.End()
	tr.Root().AggregateChild("checkpoint", time.Millisecond, Str("bytes", "4096"))
	tr.Root().End()
	return tr.Snapshot()
}

// jobTraceOp is the per-job trace overhead on the scheduler's hot path: the
// full span lifecycle a remotely-executed job pays — root, queue wait,
// attempt with annotations, the worker subtree graft, and the final
// snapshot that lands in the result payload.
func jobTraceOp(tb testing.TB) func() {
	remote := workerSideTrace()
	return func() {
		tr := NewTrace("job-000001", "job", Str("app", "clamr"), Str("mode", "mixed"))
		qw := tr.Root().Child("queue_wait")
		qw.End()
		att := tr.Root().Child("attempt", Str("mode", "mixed"), Str("n", "1"))
		att.Event("upload", Str("worker", "worker-001"), Str("bytes", "8192"))
		att.SetRemote(remote)
		att.Annotate(Str("outcome", "ok"), Str("joules", "12.5"), Str("cost_dollars", "0.001"))
		att.End()
		tr.Root().End()
		if td := tr.Snapshot(); len(td.Spans) == 0 {
			tb.Fatal("empty snapshot")
		}
	}
}

// stitchSnapshotOp isolates the graft: snapshotting a trace whose attempt
// carries a worker subtree (re-anchor, clamp, parent remap).
func stitchSnapshotOp(tb testing.TB) func() {
	remote := workerSideTrace()
	tr := NewTrace("job-000001", "job")
	att := tr.Root().Child("attempt")
	att.SetRemote(remote)
	att.End()
	tr.Root().End()
	return func() {
		if td := tr.Snapshot(); len(td.Spans) < len(remote.Spans) {
			tb.Fatal("graft missing")
		}
	}
}

// federateOp is one GET /metrics/fleet render: merge four worker scrapes of
// a realistic exposition (counters, a histogram, float counters) and write
// the summed text form.
func federateOp(tb testing.TB) func() {
	mk := func() *ParsedMetrics {
		r := NewRegistry()
		lv := r.CounterVec("precision_worker_leases_total", "Leases.", "outcome")
		lv.With("ok").Add(120)
		lv.With("error").Add(3)
		h := r.HistogramVec("precision_worker_run_seconds", "Runs.", DurationBuckets, "app", "mode")
		for _, v := range []float64{0.01, 0.3, 1.2, 8, 40} {
			h.With("clamr", "mixed").Observe(v)
		}
		r.Counter("precision_worker_heartbeats_total", "Beats.").Add(500)
		r.FloatCounter("precision_worker_joules_total", "Joules.").Add(123.5)
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			tb.Fatal(err)
		}
		pm, err := ParsePrometheus(strings.NewReader(sb.String()))
		if err != nil {
			tb.Fatal(err)
		}
		return pm
	}
	scrapes := []*ParsedMetrics{mk(), mk(), mk(), mk()}
	return func() {
		var sb strings.Builder
		if err := Federate(&sb, scrapes); err != nil {
			tb.Fatal(err)
		}
		if sb.Len() == 0 {
			tb.Fatal("empty merge")
		}
	}
}

func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkObsJobTrace(b *testing.B)       { benchOp(b, jobTraceOp(b)) }
func BenchmarkObsStitchSnapshot(b *testing.B) { benchOp(b, stitchSnapshotOp(b)) }
func BenchmarkObsFederate(b *testing.B)       { benchOp(b, federateOp(b)) }

// Always-on tracing and fleet federation must stay cheap, and allocations
// are the machine-independent part of cheap: each hot-path operation stays
// within 20% of the allocs/op it was committed at (28, 15 and 77;
// DESIGN.md §10).
func TestObsHotPathAllocCeilings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		op      func()
		ceiling float64
	}{
		{"job trace", jobTraceOp(t), 33},
		{"stitch snapshot", stitchSnapshotOp(t), 18},
		{"federate", federateOp(t), 92},
	} {
		if n := testing.AllocsPerRun(100, tc.op); n > tc.ceiling {
			t.Errorf("%s: %v allocs/op, ceiling %v", tc.name, n, tc.ceiling)
		}
	}
}
