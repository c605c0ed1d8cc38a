package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Parent indexes the span
// that caused it (-1 for a root); spans of one operation share Op. An
// Aggregate span carries a duration summed elsewhere (the servers report
// solver phases that way) and is not a contiguous interval.
type span struct {
	Name      string
	Start     int64 // ns since the recorder's (or trace's) anchor
	End       int64
	Parent    int
	Op        int64
	Track     int // display lane in the Chrome trace
	Aggregate bool
}

// recorder is the benchmark's own span store: in memory while the run
// measures, written out once at exit. It wraps calls from the benchmark's
// side of each layer boundary; spans inside the servers are not its job.
// While disabled, begin returns -1 and nothing is stored, so an untraced run
// pays one atomic load per call.
type recorder struct {
	on     atomic.Bool
	anchor time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{anchor: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) enable(on bool) { r.on.Store(on) }

// begin opens a span now. parent is a span id from an earlier begin, or -1.
func (r *recorder) begin(name string, parent int, op int64, track int) int {
	if r == nil || !r.on.Load() {
		return -1
	}
	now := int64(time.Since(r.anchor))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Op: op, Track: track})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes a span opened by begin; ending -1 is a no-op, so call sites do
// not branch on whether tracing is on.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.anchor))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// endAs closes a span and names it by how the call turned out (which cache
// tier served a fetch is only known once it returns).
func (r *recorder) endAs(id int, name string) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.anchor))
	r.mu.Lock()
	r.spans[id].End, r.spans[id].Name = now, name
	r.mu.Unlock()
}

// snapshot copies the closed spans; spans still open are dropped (their
// parent links are remapped so the copy stays a forest).
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	remap := make([]int, len(r.spans))
	out := make([]span, 0, len(r.spans))
	for i, s := range r.spans {
		if s.End == 0 {
			remap[i] = -1
			continue
		}
		remap[i] = len(out)
		out = append(out, s)
	}
	for i := range out {
		if p := out[i].Parent; p >= 0 {
			out[i].Parent = remap[p]
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover. Interval children are clipped to the parent and
// unioned (two simultaneous calls cover their overlap once); aggregate
// children are additive durations and are subtracted as such. The result is
// never negative.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make([][]iv, len(spans))
	agg := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		if s.Aggregate {
			agg[s.Parent] += s.End - s.Start
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		covered := agg[i]
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var curLo, curHi int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curLo, curHi, open = v.lo, v.hi, true
			case v.lo <= curHi:
				curHi = max(curHi, v.hi)
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = max(0, s.End-s.Start-covered)
	}
	return self
}

// selfByName sums self time and counts spans per span name.
func selfByName(spans []span) (selfNs map[string]int64, count map[string]int) {
	selfNs, count = map[string]int64{}, map[string]int{}
	for i, st := range selfTimes(spans) {
		selfNs[spans[i].Name] += st
		count[spans[i].Name]++
	}
	return selfNs, count
}

// chromeEvent is one Chrome trace_event "complete" record.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes spans as Chrome trace_event JSON (load it in
// chrome://tracing or ui.perfetto.dev). One row per track; args carry the
// operation id and parent span so a call can be followed across rows.
func writeChromeTrace(path string, spans []span) error {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Track,
			Args: map[string]any{"op": s.Op, "span": i, "parent": s.Parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
