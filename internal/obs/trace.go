package obs

import (
	"sync"
	"time"
)

// Trace is one job's span timeline: a root span covering the job's whole
// lifetime plus nested child spans for queue wait, execution attempts,
// retry backoffs and escalations. Offsets are measured against a single
// monotonic anchor taken at NewTrace, so span arithmetic is immune to wall
// clock steps; StartedAt anchors the timeline in wall time for display.
//
// Traces are cheap (a handful of small structs per job, mutated under one
// mutex on job state transitions — never on the solver step path) and are
// therefore always on.
type Trace struct {
	mu        sync.Mutex
	jobID     string
	startedAt time.Time // wall anchor
	anchor    time.Time // monotonic anchor (same instant)
	spans     []spanRec
	released  bool // Release dropped every span but the root; writes are no-ops
}

type spanRec struct {
	name    string
	parent  int // index into spans; -1 for the root
	startNs int64
	endNs   int64 // 0 while open
	attrs   []Attr
	remote  *TraceData // grafted remote subtree (worker-side spans), nil for most spans
}

// Attr is one span annotation.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Value: value} }

// Span is a handle onto one span of a trace.
type Span struct {
	t *Trace
	i int
}

// NewTrace starts a trace whose root span is open from now.
func NewTrace(jobID, rootName string, attrs ...Attr) *Trace {
	now := time.Now()
	t := &Trace{jobID: jobID, startedAt: now, anchor: now}
	t.spans = append(t.spans, spanRec{name: rootName, parent: -1, attrs: attrs})
	return t
}

func (t *Trace) nowNs() int64 { return int64(time.Since(t.anchor)) }

// Root returns the root span.
func (t *Trace) Root() Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, i: 0}
}

// Release drops every span but the root and makes every later write through
// any Span of the trace a no-op — for a job whose timeline has been
// serialized elsewhere, so handles still held by late writers (a hedge
// loser's upload) cannot grow it back. Snapshot then reports the root alone.
func (t *Trace) Release() {
	t.mu.Lock()
	t.spans = []spanRec{t.spans[0]}
	t.released = true
	t.mu.Unlock()
}

// lock takes the trace lock for a write through s. It reports false, with
// the lock not held, for the zero Span and for a released trace.
func (s Span) lock() bool {
	if s.t == nil {
		return false
	}
	s.t.mu.Lock()
	if s.t.released {
		s.t.mu.Unlock()
		return false
	}
	return true
}

// Child opens a child span starting now.
func (s Span) Child(name string, attrs ...Attr) Span {
	if !s.lock() {
		return Span{}
	}
	t := s.t
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{name: name, parent: s.i, startNs: t.nowNs(), attrs: attrs})
	return Span{t: t, i: len(t.spans) - 1}
}

// Event records an instantaneous child span (start == end == now).
func (s Span) Event(name string, attrs ...Attr) {
	if !s.lock() {
		return
	}
	t := s.t
	defer t.mu.Unlock()
	now := t.nowNs()
	t.spans = append(t.spans, spanRec{name: name, parent: s.i, startNs: now, endNs: now, attrs: attrs})
}

// AggregateChild records a child span carrying a duration accumulated
// elsewhere (a metrics.Timer phase bucket): it is anchored at the parent's
// start and clamped inside the parent, and marked kind=aggregate so readers
// do not mistake it for a contiguous interval.
func (s Span) AggregateChild(name string, d time.Duration, attrs ...Attr) {
	if !s.lock() {
		return
	}
	t := s.t
	defer t.mu.Unlock()
	p := t.spans[s.i]
	start := p.startNs
	end := start + int64(d)
	if pEnd := p.endNs; pEnd > 0 && end > pEnd {
		end = pEnd
	}
	if end < start {
		end = start
	}
	attrs = append(attrs, Attr{Key: "kind", Value: "aggregate"})
	t.spans = append(t.spans, spanRec{name: name, parent: s.i, startNs: start, endNs: end, attrs: attrs})
}

// PrefixChild records a child span for an interval that ended just now and
// lasted d: it is anchored d before the current instant (clamped to the
// parent's start) and closed at now. Used for waits measured elsewhere and
// reported after the fact — a remote lease wait recorded once the lease is
// granted.
func (s Span) PrefixChild(name string, d time.Duration, attrs ...Attr) {
	if !s.lock() {
		return
	}
	t := s.t
	defer t.mu.Unlock()
	end := t.nowNs()
	start := end - int64(d)
	if pStart := t.spans[s.i].startNs; start < pStart {
		start = pStart
	}
	if start > end {
		start = end
	}
	t.spans = append(t.spans, spanRec{name: name, parent: s.i, startNs: start, endNs: end, attrs: attrs})
}

// Annotate appends attributes to the span.
func (s Span) Annotate(attrs ...Attr) {
	if !s.lock() {
		return
	}
	s.t.spans[s.i].attrs = append(s.t.spans[s.i].attrs, attrs...)
	s.t.mu.Unlock()
}

// SetRemote grafts a remote subtree (a worker's own trace of the leased
// run) under the span. Replacement semantics: a later snapshot — a
// heartbeat's partial trace superseded by the final one on complete —
// overwrites the previous graft, so incremental shipping is idempotent.
// The remote timeline is re-anchored at Snapshot time using the wall-clock
// delta between the two trace anchors; worker spans live outside the
// deterministic result hash, so modest cross-node clock skew only shifts
// display offsets.
func (s Span) SetRemote(td TraceData) {
	cp := td
	cp.Spans = append([]SpanData(nil), td.Spans...)
	if !s.lock() {
		return
	}
	s.t.spans[s.i].remote = &cp
	s.t.mu.Unlock()
}

// End closes the span now. Ending an already-ended span is a no-op, so a
// terminal path can close the root unconditionally.
func (s Span) End() {
	if !s.lock() {
		return
	}
	t := s.t
	if t.spans[s.i].endNs == 0 {
		t.spans[s.i].endNs = t.nowNs()
	}
	t.mu.Unlock()
}

// TraceData is the JSON form of a trace: the wall-time anchor plus every
// span with monotonic offsets from it.
type TraceData struct {
	JobID      string     `json:"job_id"`
	StartedAt  time.Time  `json:"started_at"`
	DurationNs int64      `json:"duration_ns"`
	Spans      []SpanData `json:"spans"`
}

// SpanData is one span. Parent is an index into TraceData.Spans (-1 for the
// root). An open span (job still in flight) has Open=true and EndNs frozen
// at the snapshot instant.
type SpanData struct {
	Name       string `json:"name"`
	Parent     int    `json:"parent"`
	StartNs    int64  `json:"start_ns"`
	EndNs      int64  `json:"end_ns"`
	DurationNs int64  `json:"duration_ns"`
	Open       bool   `json:"open,omitempty"`
	Attrs      []Attr `json:"attrs,omitempty"`
}

// Snapshot freezes the trace for serialization. Safe to call on a live
// trace; open spans are reported up to the snapshot instant. Remote
// subtrees grafted with SetRemote are stitched in after the local spans,
// re-anchored by the wall-clock delta between the two traces and clamped
// inside their host span so skewed worker clocks cannot push spans outside
// the attempt that ran them.
func (t *Trace) Snapshot() TraceData {
	if t == nil {
		return TraceData{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.nowNs()
	out := TraceData{JobID: t.jobID, StartedAt: t.startedAt, Spans: make([]SpanData, len(t.spans))}
	for i, sp := range t.spans {
		end, open := sp.endNs, false
		if end == 0 { // still open: freeze at the snapshot instant
			end, open = now, true
		}
		out.Spans[i] = SpanData{
			Name:       sp.name,
			Parent:     sp.parent,
			StartNs:    sp.startNs,
			EndNs:      end,
			DurationNs: end - sp.startNs,
			Open:       open,
			Attrs:      append([]Attr(nil), sp.attrs...),
		}
	}
	for i, sp := range t.spans {
		if sp.remote != nil {
			graftRemote(&out, i, sp.remote)
		}
	}
	if len(out.Spans) > 0 {
		out.DurationNs = out.Spans[0].DurationNs
	}
	return out
}

func clampNs(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// graftRemote appends one remote subtree under host span hostIdx:
// offsets shift by the wall-clock anchor delta and clamp inside the host
// span; parent indices remap so the remote root hangs off the host.
func graftRemote(out *TraceData, hostIdx int, rem *TraceData) {
	delta := rem.StartedAt.Sub(out.StartedAt).Nanoseconds()
	host := out.Spans[hostIdx]
	base := len(out.Spans)
	for _, rs := range rem.Spans {
		start := clampNs(rs.StartNs+delta, host.StartNs, host.EndNs)
		end := clampNs(rs.EndNs+delta, host.StartNs, host.EndNs)
		if end < start {
			end = start
		}
		parent := hostIdx
		if rs.Parent >= 0 {
			parent = base + rs.Parent
		}
		out.Spans = append(out.Spans, SpanData{
			Name:       rs.Name,
			Parent:     parent,
			StartNs:    start,
			EndNs:      end,
			DurationNs: end - start,
			Open:       rs.Open,
			Attrs:      append(append([]Attr(nil), rs.Attrs...), Attr{Key: "node", Value: "worker"}),
		})
	}
}
