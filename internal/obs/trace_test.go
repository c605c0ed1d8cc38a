package obs

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// checkWellFormed asserts the structural invariants every snapshot must
// satisfy: parents precede children, children nest inside their parents,
// and no span has negative duration.
func checkWellFormed(t *testing.T, td TraceData) {
	t.Helper()
	for i, sp := range td.Spans {
		if sp.DurationNs < 0 {
			t.Errorf("span %d (%s): negative duration %d", i, sp.Name, sp.DurationNs)
		}
		if sp.EndNs < sp.StartNs {
			t.Errorf("span %d (%s): end %d before start %d", i, sp.Name, sp.EndNs, sp.StartNs)
		}
		if i == 0 {
			if sp.Parent != -1 {
				t.Errorf("root parent = %d, want -1", sp.Parent)
			}
			continue
		}
		if sp.Parent < 0 || sp.Parent >= i {
			t.Fatalf("span %d (%s): parent %d does not precede it", i, sp.Name, sp.Parent)
		}
		p := td.Spans[sp.Parent]
		if sp.StartNs < p.StartNs {
			t.Errorf("span %d (%s) starts before its parent %s", i, sp.Name, p.Name)
		}
		if !p.Open && sp.EndNs > p.EndNs {
			t.Errorf("span %d (%s) ends after its closed parent %s", i, sp.Name, p.Name)
		}
	}
}

func TestTraceNestingAndDurations(t *testing.T) {
	tr := NewTrace("job-000001", "job", Str("app", "clamr"))
	root := tr.Root()
	q := root.Child("queue_wait")
	time.Sleep(time.Millisecond)
	q.End()
	att := root.Child("attempt", Str("mode", "min"))
	att.Event("guard_check")
	att.AggregateChild("phase:flux", 100*time.Microsecond)
	time.Sleep(time.Millisecond)
	att.Annotate(Str("outcome", "ok"))
	att.End()
	root.End()

	td := tr.Snapshot()
	checkWellFormed(t, td)
	if td.JobID != "job-000001" {
		t.Errorf("job id = %q", td.JobID)
	}
	names := make([]string, len(td.Spans))
	for i, sp := range td.Spans {
		names[i] = sp.Name
	}
	want := []string{"job", "queue_wait", "attempt", "guard_check", "phase:flux"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("span order = %v, want %v", names, want)
		}
	}
	for _, sp := range td.Spans {
		if sp.Open {
			t.Errorf("span %s still open after End", sp.Name)
		}
	}
	// The aggregate child is anchored at the attempt's start with the
	// accumulated duration, and marked kind=aggregate.
	agg := td.Spans[4]
	if agg.StartNs != td.Spans[2].StartNs {
		t.Errorf("aggregate start %d != parent start %d", agg.StartNs, td.Spans[2].StartNs)
	}
	if agg.DurationNs != int64(100*time.Microsecond) {
		t.Errorf("aggregate duration = %d, want 100µs", agg.DurationNs)
	}
	if !hasAttr(agg.Attrs, "kind", "aggregate") {
		t.Errorf("aggregate child missing kind=aggregate: %+v", agg.Attrs)
	}
	// Root covers everything.
	if td.DurationNs != td.Spans[0].DurationNs {
		t.Errorf("trace duration %d != root duration %d", td.DurationNs, td.Spans[0].DurationNs)
	}
}

func TestAggregateChildClampsToParent(t *testing.T) {
	tr := NewTrace("j", "job")
	att := tr.Root().Child("attempt")
	time.Sleep(time.Millisecond)
	att.End()
	att.AggregateChild("phase:huge", time.Hour) // longer than the parent
	td := tr.Snapshot()
	checkWellFormed(t, td)
	agg := td.Spans[2]
	if agg.EndNs > td.Spans[1].EndNs {
		t.Errorf("aggregate end %d exceeds parent end %d", agg.EndNs, td.Spans[1].EndNs)
	}
}

func TestSnapshotFreezesOpenSpans(t *testing.T) {
	tr := NewTrace("j", "job")
	att := tr.Root().Child("attempt")
	time.Sleep(time.Millisecond)
	td := tr.Snapshot()
	checkWellFormed(t, td)
	for _, sp := range td.Spans {
		if !sp.Open {
			t.Errorf("span %s should be open", sp.Name)
		}
		if sp.DurationNs <= 0 {
			t.Errorf("open span %s frozen with non-positive duration %d", sp.Name, sp.DurationNs)
		}
	}
	att.End()
	tr.Root().End()
	if td2 := tr.Snapshot(); td2.Spans[1].Open {
		t.Error("attempt still open after End")
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	root := tr.Root() // zero span
	root.Child("x").Event("y")
	root.Annotate(Str("a", "b"))
	root.AggregateChild("z", time.Second)
	root.End()
	td := tr.Snapshot()
	if len(td.Spans) != 0 {
		t.Error("nil trace produced spans")
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr := NewTrace("job-42", "job", Str("mode", "min"))
	tr.Root().Child("queue_wait").End()
	tr.Root().End()
	data, err := json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back TraceData
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.JobID != "job-42" || len(back.Spans) != 2 {
		t.Errorf("round trip lost data: %+v", back)
	}
	checkWellFormed(t, back)
}

func hasAttr(attrs []Attr, key, value string) bool {
	for _, a := range attrs {
		if a.Key == key && a.Value == value {
			return true
		}
	}
	return false
}

// TestReleaseKeepsRootAndDropsLateWrites: a released trace keeps its root
// span alone, and every write through a handle taken before the release —
// including handles to spans that no longer exist — is a no-op.
func TestReleaseKeepsRootAndDropsLateWrites(t *testing.T) {
	tr := NewTrace("job-000001", "job", Str("app", "clamr"))
	root := tr.Root()
	att := root.Child("attempt")
	att.End()
	root.Annotate(Str("status", "done"))
	root.End()
	want := tr.Snapshot().Spans[0]

	tr.Release()
	att.Annotate(Str("outcome", "late"))
	att.SetRemote(TraceData{Spans: []SpanData{{Name: "solve", Parent: -1}}})
	att.Event("upload")
	att.AggregateChild("phase:flux", time.Millisecond)
	att.PrefixChild("lease_wait", time.Millisecond)
	att.End()
	if late := root.Child("hedge_attempt"); late != (Span{}) {
		t.Errorf("Child on a released trace = %+v, want the zero Span", late)
	}
	root.Event("hedge_verified")
	root.Annotate(Str("late", "1"))

	td := tr.Snapshot()
	if len(td.Spans) != 1 {
		t.Fatalf("released trace has %d spans, want the root alone", len(td.Spans))
	}
	if !reflect.DeepEqual(td.Spans[0], want) {
		t.Errorf("root = %+v, want %+v", td.Spans[0], want)
	}
}
