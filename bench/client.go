package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/runner"
)

// httpClient is the benchmark's one connection pool to precisiond.
type httpClient struct {
	base string
	hc   *http.Client
	rec  *recorder
}

func newHTTPClient(base string, rec *recorder) *httpClient {
	tr := &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 64,
		DisableCompression:  true, // payloads are compared byte for byte
	}
	return &httpClient{base: base, hc: &http.Client{Transport: tr}, rec: rec}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// spanAt places a call's span: under which parent, for which operation, on
// which row of the Chrome trace.
type spanAt struct {
	parent int
	op     int64
	track  int
}

// noSpan is for calls outside any operation (set-up, control plane).
var noSpan = spanAt{parent: -1}

// call performs one request and reads the whole body; the returned time is
// when the last byte arrived. A non-empty name records the call as a span.
func (c *httpClient) call(ctx context.Context, name string, at spanAt,
	method, path string, body []byte, ifNoneMatch string) (status int, data []byte, done time.Time, err error) {
	sp := -1
	if name != "" { // control-plane calls around the window are not spans
		sp = c.rec.begin(name, at.parent, at.op, at.track)
	}
	defer c.rec.end(sp)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, time.Now(), err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Now(), err
	}
	data, err = io.ReadAll(resp.Body)
	done = time.Now()
	resp.Body.Close()
	return resp.StatusCode, data, done, err
}

// getJSON is for the control-plane reads around the window (stats, views).
func (c *httpClient) getJSON(ctx context.Context, path string, out any) error {
	status, data, _, err := c.call(ctx, "", noSpan, http.MethodGet, path, nil, "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// jobView is the part of precisiond's job view the benchmark checks.
type jobView struct {
	ID        string `json:"id"`
	SpecHash  string `json:"spec_hash"`
	Status    string `json:"status"`
	Cached    bool   `json:"cached"`
	TunedMode string `json:"tuned_mode"`
}

// resultLite is the part of a result payload the benchmark checks per
// operation and reduces into per-layer metrics. Decoding the full
// runner.Result is kept for the sampled deep check.
type resultLite struct {
	Spec struct {
		App  string `json:"app"`
		Mode string `json:"mode"`
	} `json:"spec"`
	SpecHash string `json:"spec_hash"`
	Steps    int    `json:"steps"`
	Cells    int    `json:"cells"`
	DOF      int    `json:"dof"`
	Counters struct {
		Flops16    float64 `json:"flops16"`
		Flops32    float64 `json:"flops32"`
		Flops64    float64 `json:"flops64"`
		LoadBytes  float64 `json:"load_bytes"`
		StoreBytes float64 `json:"store_bytes"`
		AllocCount float64 `json:"alloc_count"`
	} `json:"counters"`
	CheckpointBytes float64 `json:"checkpoint_bytes"`
	StateHash       string  `json:"state_hash"`
	WallSeconds     float64 `json:"wall_seconds"`
	Phases          []struct {
		Name    string  `json:"name"`
		Seconds float64 `json:"seconds"`
	} `json:"phases"`
	Energy *struct {
		Joules float64 `json:"joules"`
	} `json:"energy"`
}

// outcome is what one executed operation measured and whether every check
// on its responses held.
type outcome struct {
	op    op
	due   time.Time // open loop only
	start time.Time
	end   time.Time // last byte of the last response
	// err is empty when every response was verified; refused marks a 429.
	err     string
	refused bool
	jobID   string
	// ackUs is POST → acknowledgement; readBytes the body bytes a read moved.
	ackUs     float64
	readBytes int
	tunedMode string
	// res and payload are kept for operations that executed a solve, for
	// the per-layer reduction and the sampled re-run.
	res     *resultLite
	payload []byte
}

func (o *outcome) fail(format string, args ...any) {
	if o.err == "" {
		o.err = fmt.Sprintf(format, args...)
	}
}

// latencyMs is measured from when the operation was due in an open loop, so
// a stall is charged to every request it delayed, and from its start in a
// closed loop.
func (o *outcome) latencyMs() float64 {
	from := o.start
	if !o.due.IsZero() {
		from = o.due
	}
	return float64(o.end.Sub(from)) / 1e6
}

// submitted is one POST /v1/jobs + blocking GET …/result round.
type submitted struct {
	view    jobView
	status  int // of the POST
	ackUs   float64
	payload []byte
	end     time.Time
	err     error
	refused bool
}

func (c *httpClient) submitAndFetch(ctx context.Context, at spanAt, spec *runner.ExperimentSpec) (s submitted) {
	body, err := json.Marshal(spec)
	if err != nil {
		s.err = err
		return
	}
	t0 := time.Now()
	status, data, done, err := c.call(ctx, "http:submit", at, http.MethodPost, "/v1/jobs", body, "")
	s.status, s.end = status, done
	s.ackUs = float64(done.Sub(t0)) / 1e3
	switch {
	case err != nil:
		s.err = err
		return
	case status == http.StatusTooManyRequests:
		s.refused = true
		s.err = fmt.Errorf("submit refused: 429")
		return
	case status != http.StatusOK && status != http.StatusAccepted:
		s.err = fmt.Errorf("submit: %d %s", status, bytes.TrimSpace(data))
		return
	}
	if err := json.Unmarshal(data, &s.view); err != nil {
		s.err = fmt.Errorf("submit: decode view: %w", err)
		return
	}
	status, data, done, err = c.call(ctx, "http:result", at, http.MethodGet, "/v1/jobs/"+s.view.ID+"/result", nil, "")
	s.end = done
	if err != nil {
		s.err = err
		return
	}
	if status != http.StatusOK {
		s.err = fmt.Errorf("result of %s: %d %s", s.view.ID, status, bytes.TrimSpace(data))
		return
	}
	s.payload = data
	return
}

// checkSolved verifies a computed result structurally: it is addressed by
// the hash the benchmark computed locally, ran the requested steps and
// carries a state hash.
func checkSolved(o *outcome, s submitted, wantHash string, steps int) {
	if s.view.SpecHash != wantHash {
		o.fail("job %s: spec_hash %s, computed locally %s", s.view.ID, s.view.SpecHash, wantHash)
	}
	var res resultLite
	if err := json.Unmarshal(s.payload, &res); err != nil {
		o.fail("job %s: decode result: %v", s.view.ID, err)
		return
	}
	if res.SpecHash != wantHash {
		o.fail("job %s: result spec_hash %s, want %s", s.view.ID, res.SpecHash, wantHash)
	}
	if res.Steps != steps {
		o.fail("job %s: result ran %d steps, want %d", s.view.ID, res.Steps, steps)
	}
	if res.StateHash == "" {
		o.fail("job %s: result has no state_hash", s.view.ID)
	}
	o.res, o.payload = &res, s.payload
}

// execute runs one operation against the service and verifies every
// response. track is the Chrome-trace row (the stream or executor index).
func (c *httpClient) execute(ctx context.Context, o *outcome, pre []preloaded, track int) {
	opID := int64(o.op.Stream)<<40 | int64(o.op.Seq)
	sp := c.rec.begin("op:"+o.op.Kind, -1, opID, track)
	defer c.rec.end(sp)
	at := spanAt{parent: sp, op: opID, track: track}
	o.start = time.Now()
	defer func() {
		if o.end.IsZero() {
			o.end = time.Now()
		}
	}()
	switch o.op.Kind {
	case kindSolve, kindAuto:
		s := c.submitAndFetch(ctx, at, o.op.Spec)
		o.end, o.ackUs, o.jobID, o.refused, o.tunedMode = s.end, s.ackUs, s.view.ID, s.refused, s.view.TunedMode
		if s.err != nil {
			o.fail("%v", s.err)
			return
		}
		want := o.op.Hash
		if o.op.Kind == kindAuto {
			if s.view.TunedMode == "" {
				o.fail("job %s: auto spec came back without tuned_mode", s.view.ID)
				return
			}
			want = mustHash(o.op.Spec.Concrete(s.view.TunedMode))
		}
		checkSolved(o, s, want, o.op.Spec.Steps)

	case kindPair:
		// Two submissions of one spec at the same instant: the scheduler's
		// singleflight must collapse them onto one job and both must read
		// the same bytes.
		var second submitted
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			second = c.submitAndFetch(ctx, at, o.op.Spec)
		}()
		first := c.submitAndFetch(ctx, at, o.op.Spec)
		wg.Wait()
		o.end = first.end
		if second.end.After(o.end) {
			o.end = second.end
		}
		o.ackUs, o.jobID = first.ackUs, first.view.ID
		o.refused = first.refused || second.refused
		for _, s := range []submitted{first, second} {
			if s.err != nil {
				o.fail("%v", s.err)
				return
			}
		}
		if first.view.ID != second.view.ID {
			o.fail("duplicate pair ran as two jobs: %s and %s", first.view.ID, second.view.ID)
		}
		if !bytes.Equal(first.payload, second.payload) {
			o.fail("duplicate pair %s read different bytes", first.view.ID)
		}
		checkSolved(o, first, o.op.Hash, o.op.Spec.Steps)

	case kindResubmit, kindWarm:
		s := c.submitAndFetch(ctx, at, o.op.Spec)
		o.end, o.ackUs, o.jobID, o.refused = s.end, s.ackUs, s.view.ID, s.refused
		if s.err != nil {
			o.fail("%v", s.err)
			return
		}
		if s.status != http.StatusOK || s.view.Status != "done" || !s.view.Cached {
			o.fail("job %s: resubmission was not answered from the cache (%d, status %s, cached %v)",
				s.view.ID, s.status, s.view.Status, s.view.Cached)
		}
		if s.view.SpecHash != o.op.Hash {
			o.fail("job %s: spec_hash %s, computed locally %s", s.view.ID, s.view.SpecHash, o.op.Hash)
		}
		if !bytes.Equal(s.payload, pre[o.op.Key].Payload) {
			o.fail("job %s: resubmission bytes differ from the first result", s.view.ID)
		}
		o.readBytes = len(s.payload)

	case kindRead200, kindRead304:
		inm := ""
		if o.op.Kind == kindRead304 {
			inm = `"` + o.op.Hash + `"`
		}
		status, data, done, err := c.call(ctx, "http:read", at, http.MethodGet, "/v1/results/"+o.op.Hash, nil, inm)
		o.end, o.readBytes = done, len(data)
		switch {
		case err != nil:
			o.fail("%v", err)
		case o.op.Kind == kindRead304 && (status != http.StatusNotModified || len(data) != 0):
			o.fail("revalidation of %s: %d with %d body bytes, want 304 and none", o.op.Hash, status, len(data))
		case o.op.Kind == kindRead200 && status != http.StatusOK:
			o.fail("read of %s: %d %s", o.op.Hash, status, bytes.TrimSpace(data))
		case o.op.Kind == kindRead200 && !bytes.Equal(data, pre[o.op.Key].Payload):
			o.fail("read of %s: bytes differ from the first result", o.op.Hash)
		}

	default:
		o.fail("unknown operation kind %q", o.op.Kind)
	}
}
