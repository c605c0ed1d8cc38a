package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
)

// leaseRig is a coordinator driven through its real HTTP handlers. The
// dispatcher is never started, so no reaper or scraper ticks behind the
// test's back: expiry is raised by calling reap with a clock past the TTL.
type leaseRig struct {
	t   *testing.T
	co  *Coordinator
	reg *obs.Registry
}

func newLeaseRig(t *testing.T, cfg CoordinatorConfig) *leaseRig {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Obs = reg
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = time.Minute
	}
	return &leaseRig{t: t, co: NewCoordinator(New(Options{}), cfg), reg: reg}
}

// call drives one handler and decodes a 200 reply into out.
func (r *leaseRig) call(h http.HandlerFunc, workerID string, in, out any) int {
	r.t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		r.t.Error(err)
		return 0
	}
	req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	req.SetPathValue("id", workerID)
	rec := httptest.NewRecorder()
	h(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			r.t.Errorf("decode reply: %v", err)
		}
	}
	return rec.Code
}

// lease long-polls once; nil is an empty poll.
func (r *leaseRig) lease(workerID string) *LeaseGrant {
	r.t.Helper()
	var g LeaseGrant
	switch code := r.call(r.co.HandleLease, "", LeaseRequest{WorkerID: workerID, Wait: "5s"}, &g); code {
	case http.StatusOK:
		return &g
	case http.StatusNoContent:
		return nil
	default:
		r.t.Errorf("lease = %d", code)
		return nil
	}
}

func (r *leaseRig) complete(workerID string, req CompleteRequest) int {
	r.t.Helper()
	return r.call(r.co.HandleComplete, workerID, req, nil)
}

// upload marshals a valid result for spec whose final state hashes to state.
func upload(t *testing.T, spec runner.ExperimentSpec, state string) json.RawMessage {
	t.Helper()
	res := okResult(t, spec)
	res.StateHash = state
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// serve plays one worker turn: lease the next attempt, upload state for it.
func (r *leaseRig) serve(workerID, state string) {
	r.t.Helper()
	g := r.lease(workerID)
	if g == nil {
		r.t.Errorf("worker %s: no lease to serve", workerID)
		return
	}
	if code := r.complete(workerID, CompleteRequest{LeaseID: g.LeaseID, Result: upload(r.t, g.Spec, state)}); code != http.StatusOK {
		r.t.Errorf("worker %s: complete = %d", workerID, code)
	}
}

// do posts an attempt and delivers its outcome on the returned channel.
func (r *leaseRig) do(ctx context.Context, a *Attempt) <-chan Outcome {
	ch := make(chan Outcome, 1)
	go func() { ch <- r.co.d.Do(ctx, a) }()
	return ch
}

func await(t *testing.T, ch <-chan Outcome) Outcome {
	t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(10 * time.Second):
		t.Fatal("attempt did not finish")
		return Outcome{}
	}
}

// series scrapes the rig's registry into "name{labels}" → value.
func (r *leaseRig) series() map[string]float64 {
	r.t.Helper()
	var b strings.Builder
	if err := r.reg.WritePrometheus(&b); err != nil {
		r.t.Fatal(err)
	}
	pm, err := obs.ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		r.t.Fatal(err)
	}
	out := make(map[string]float64, len(pm.Series))
	for _, sp := range pm.Series {
		if _, dup := out[sp.Name+sp.Labels]; dup {
			r.t.Errorf("series %s%s exposed twice", sp.Name, sp.Labels)
		}
		out[sp.Name+sp.Labels] = sp.Value
	}
	return out
}

func (r *leaseRig) view() FleetView {
	r.t.Helper()
	rec := httptest.NewRecorder()
	r.co.HandleList(rec, httptest.NewRequest(http.MethodGet, "/v1/workers", nil))
	var v FleetView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		r.t.Fatal(err)
	}
	return v
}

// checkParity asserts every collected fleet gauge equals what GET
// /v1/workers reports, all three health states always present.
func (r *leaseRig) checkParity() FleetView {
	r.t.Helper()
	view, got := r.view(), r.series()
	want := map[string]float64{
		"dispatch_workers_registered": float64(len(view.Workers)),
	}
	for _, s := range []HealthState{HealthHealthy, HealthProbation, HealthQuarantined} {
		want[fmt.Sprintf(`precisiond_worker_health{state="%s"}`, s)] = 0
	}
	for _, wv := range view.Workers {
		want[fmt.Sprintf(`precisiond_worker_health{state="%s"}`, wv.Health)]++
		want[fmt.Sprintf(`dispatch_worker_active_leases{worker="%s"}`, wv.Name)] += float64(wv.ActiveLeases)
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			r.t.Errorf("gauge %s = %v (present %v), /v1/workers says %v", k, g, ok, v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok && (strings.HasPrefix(k, "dispatch_worker_active_leases") || strings.HasPrefix(k, "precisiond_worker_health")) {
			r.t.Errorf("gauge %s has no counterpart in /v1/workers", k)
		}
	}
	return view
}

// TestLeaseTable pins every row of the lease outcome table, once on a
// healthy worker and once on a quarantined worker's half-open probe lease:
// the dispatch_leases_total label that moves, the worker's counters, its
// health score / breaker state / probe slot afterwards, the attempt's
// outcome, and gauge/view parity before and after.
func TestLeaseTable(t *testing.T) {
	type after struct {
		score  float64
		health HealthState
	}
	spec := testSpec()
	otherSpec := testSpec()
	otherSpec.Steps++
	cases := []struct {
		row    string
		label  string // dispatch_leases_total{event}; granted moves in every case
		act    func(r *leaseRig, wid string, g *LeaseGrant, cancel context.CancelFunc) int
		status int // act's HTTP status (0 = not an upload)

		leased, completed, expired uint64
		plain, probe               after // worker's health after, by lease kind
		stillActive                bool  // the lease survives the row
		gone                       bool  // the worker left the fleet
		check                      func(o Outcome) error
	}{
		{
			row: "granted", label: "granted",
			act:    func(*leaseRig, string, *LeaseGrant, context.CancelFunc) int { return 0 },
			leased: 1, stillActive: true,
			plain: after{0, HealthHealthy}, probe: after{0.6, HealthQuarantined},
		},
		{
			row: "completed", label: "completed", status: http.StatusOK,
			act: func(r *leaseRig, wid string, g *LeaseGrant, _ context.CancelFunc) int {
				return r.complete(wid, CompleteRequest{LeaseID: g.LeaseID, Result: upload(r.t, g.Spec, "s1")})
			},
			leased: 1, completed: 1,
			// 0.6·0.6 = 0.36 after the clean observation, ×0.3 on the probe pass.
			plain: after{0, HealthHealthy}, probe: after{0.108, HealthHealthy},
			check: func(o Outcome) error {
				if o.Err != nil || o.Res == nil || o.Res.StateHash != "s1" {
					return fmt.Errorf("want the uploaded result")
				}
				return nil
			},
		},
		{
			row: "run_error", label: "completed", status: http.StatusOK,
			act: func(r *leaseRig, wid string, g *LeaseGrant, _ context.CancelFunc) int {
				return r.complete(wid, CompleteRequest{LeaseID: g.LeaseID, Error: "diverged", ErrorKind: runner.KindNumerical.String()})
			},
			leased: 1, completed: 1,
			plain: after{0, HealthHealthy}, probe: after{0.18, HealthProbation}, // unscored; probe passes: 0.6·0.3
			check: func(o Outcome) error {
				if runner.Classify(o.Err) != runner.KindNumerical {
					return fmt.Errorf("want the worker's numerical error")
				}
				return nil
			},
		},
		{
			row: "rejected_corrupt", label: "rejected_corrupt", status: http.StatusUnprocessableEntity,
			act: func(r *leaseRig, wid string, g *LeaseGrant, _ context.CancelFunc) int {
				return r.complete(wid, CompleteRequest{LeaseID: g.LeaseID, Result: upload(r.t, otherSpec, "s1")})
			},
			leased: 1, completed: 1,
			plain: after{0.4, HealthProbation}, probe: after{0.76, HealthQuarantined}, // 0.6·0.6 + 0.4
			check: func(o Outcome) error {
				if runner.Classify(o.Err) != runner.KindTransient {
					return fmt.Errorf("want a transient (retried) error")
				}
				return nil
			},
		},
		{
			row: "rejected_late", label: "rejected_late", status: http.StatusConflict,
			act: func(r *leaseRig, wid string, g *LeaseGrant, _ context.CancelFunc) int {
				return r.complete(wid, CompleteRequest{LeaseID: "lease-999999", Result: upload(r.t, g.Spec, "s1")})
			},
			leased: 1, stillActive: true,
			plain: after{0, HealthHealthy}, probe: after{0.6, HealthQuarantined},
		},
		{
			row: "expired", label: "expired",
			act: func(r *leaseRig, _ string, _ *LeaseGrant, _ context.CancelFunc) int {
				r.co.reap(time.Now().Add(2 * time.Minute)) // past LeaseTTL, short of WorkerTTL
				return 0
			},
			leased: 1, expired: 1,
			plain: after{0.4, HealthProbation}, probe: after{0.76, HealthQuarantined},
			check: func(o Outcome) error { return nil },
		},
		{
			row: "requeued_drain", label: "requeued_drain", status: http.StatusOK,
			act: func(r *leaseRig, wid string, _ *LeaseGrant, _ context.CancelFunc) int {
				return r.call(r.co.HandleDeregister, wid, DeregisterRequest{}, nil)
			},
			gone:  true,
			check: func(o Outcome) error { return nil },
		},
		{
			row: "cancelled", label: "cancelled",
			act: func(_ *leaseRig, _ string, _ *LeaseGrant, cancel context.CancelFunc) int {
				cancel()
				return 0
			},
			leased: 1,
			plain:  after{0, HealthHealthy}, probe: after{0.6, HealthQuarantined},
			check: func(o Outcome) error {
				if !errors.Is(o.Err, context.Canceled) {
					return fmt.Errorf("want the attempt's own cancellation cause")
				}
				return nil
			},
		},
	}
	if len(cases) != int(numLeaseEvents) {
		t.Fatalf("%d cases for %d table rows", len(cases), numLeaseEvents)
	}
	for _, tc := range cases {
		for _, probe := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/probe=%v", tc.row, probe), func(t *testing.T) {
				t.Parallel()
				r := newLeaseRig(t, CoordinatorConfig{})
				wid := registerTestWorker(t, r.co, RegisterRequest{Name: "box", Capabilities: Capabilities{Slots: 1}})
				if code := r.call(r.co.HandleHeartbeat, wid, HeartbeatRequest{}, nil); code != http.StatusOK {
					t.Fatalf("heartbeat = %d", code)
				}
				if probe {
					// Quarantined with its probe window already open.
					past := time.Now().Add(-time.Hour)
					r.co.mu.Lock()
					h := r.co.workers[wid].health
					h.score = r.co.hp.quarantineAt
					h.enter(HealthQuarantined, past.Add(-r.co.hp.probeAfter))
					r.co.mu.Unlock()
				}
				r.checkParity()
				before := r.series()

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				out := r.do(ctx, &Attempt{JobID: "job-1", Spec: spec, N: 1})
				g := r.lease(wid)
				if g == nil {
					t.Fatal("no grant")
				}
				if code := tc.act(r, wid, g, cancel); code != tc.status {
					t.Fatalf("%s answered %d, want %d", tc.row, code, tc.status)
				}
				if tc.check != nil {
					o := await(t, out)
					if err := tc.check(o); err != nil {
						t.Errorf("outcome %+v: %v", o, err)
					}
					if want := tc.row == "expired" || tc.row == "requeued_drain"; errors.Is(o.Err, ErrLeaseExpired) != want {
						t.Errorf("errors.Is(%v, ErrLeaseExpired) = %v, want %v", o.Err, !want, want)
					}
					if o.Backend != "fleet" || o.Worker != wid {
						t.Errorf("outcome placed on %s/%s, want fleet/%s", o.Backend, o.Worker, wid)
					}
				}

				got := r.series()
				for _, row := range leaseRows {
					key := fmt.Sprintf(`dispatch_leases_total{event="%s"}`, row.event)
					want := 0.0
					if row.event == "granted" || row.event == tc.label {
						want = 1
					}
					if d := got[key] - before[key]; d != want {
						t.Errorf("%s moved by %v, want %v", key, d, want)
					}
				}
				view := r.checkParity()
				wantActive := 0
				if tc.stillActive {
					wantActive = 1
				}
				if view.ActiveLeases != wantActive {
					t.Errorf("fleet active_leases = %d, want %d", view.ActiveLeases, wantActive)
				}
				if tc.gone {
					if len(view.Workers) != 0 {
						t.Errorf("worker still listed after deregister: %+v", view.Workers)
					}
					return
				}
				wv := view.Workers[0]
				if wv.Leased != tc.leased || wv.Completed != tc.completed || wv.Expired != tc.expired {
					t.Errorf("leased/completed/expired = %d/%d/%d, want %d/%d/%d",
						wv.Leased, wv.Completed, wv.Expired, tc.leased, tc.completed, tc.expired)
				}
				want := tc.plain
				if probe {
					want = tc.probe
				}
				if wv.HealthScore != want.score || wv.Health != string(want.health) {
					t.Errorf("health = %s (score %v), want %s (score %v)", wv.Health, wv.HealthScore, want.health, want.score)
				}
				r.co.mu.Lock()
				probing := r.co.workers[wid].health.probing
				r.co.mu.Unlock()
				if wantProbing := probe && tc.stillActive; probing != wantProbing {
					t.Errorf("probe slot held = %v, want %v", probing, wantProbing)
				}
			})
		}
	}
}

// TestSecondOpinionCountsOnce pins the second-opinion helper through both
// of its callers: a match, a mismatch and a missing second executor each
// bump exactly one dispatch_verify_total outcome, once.
func TestSecondOpinionCountsOnce(t *testing.T) {
	spec := testSpec()
	for _, path := range []string{"verify-n", "demotion"} {
		for _, verdict := range []string{verifyMatch, verifyMismatch, verifySkipped} {
			t.Run(path+"/"+verdict, func(t *testing.T) {
				t.Parallel()
				r := newLeaseRig(t, CoordinatorConfig{VerifyN: 1, VerifyWait: 200 * time.Millisecond})
				first := registerTestWorker(t, r.co, RegisterRequest{Name: "first", Capabilities: Capabilities{Slots: 1}})
				second := registerTestWorker(t, r.co, RegisterRequest{Name: "second", Capabilities: Capabilities{Slots: 1}})
				before := r.series()

				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				if path == "demotion" && verdict == verifySkipped {
					ctx, cancel = context.WithTimeout(context.Background(), 500*time.Millisecond)
				}
				defer cancel()
				type demotion struct {
					res      *runner.Result
					verified bool
					err      error
				}
				var out <-chan Outcome
				dem := make(chan demotion, 1)
				if path == "verify-n" {
					out = r.do(ctx, &Attempt{JobID: "job-1", Spec: spec, N: 1})
				} else {
					go func() {
						res, ok, err := r.co.VerifyDemotion(ctx, spec)
						dem <- demotion{res, ok, err}
					}()
				}
				r.serve(first, "s1")
				switch verdict {
				case verifyMatch:
					r.serve(second, "s1")
				case verifyMismatch:
					r.serve(second, "s2")
				}

				if path == "verify-n" {
					o := await(t, out)
					if diverged := o.Err != nil && strings.Contains(o.Err.Error(), "divergence"); diverged != (verdict == verifyMismatch) {
						t.Errorf("outcome %+v for verdict %s", o, verdict)
					}
					if verdict != verifyMismatch && (o.Res == nil || o.Res.StateHash != "s1" || o.Worker != first) {
						t.Errorf("outcome %+v, want the first executor's result admitted", o)
					}
				} else {
					select {
					case d := <-dem:
						if d.err != nil || d.res == nil || d.res.StateHash != "s1" || d.verified != (verdict == verifyMatch) {
							t.Errorf("VerifyDemotion = %+v for verdict %s", d, verdict)
						}
					case <-time.After(10 * time.Second):
						t.Fatal("VerifyDemotion did not return")
					}
				}
				got := r.series()
				for _, v := range []string{verifyMatch, verifyMismatch, verifySkipped} {
					key := fmt.Sprintf(`dispatch_verify_total{outcome="%s"}`, v)
					want := 0.0
					if v == verdict {
						want = 1
					}
					if d := got[key] - before[key]; d != want {
						t.Errorf("%s moved by %v, want %v", key, d, want)
					}
				}
			})
		}
	}
}

// TestOldWorkerBodiesAccepted is the rolling-upgrade case: a worker built
// before the read path lost its fleet tier still sends read_addr at
// registration and a held array on every heartbeat. Both are answered 200,
// and the heartbeat's extra field leaves the fleet listing as it was.
func TestOldWorkerBodiesAccepted(t *testing.T) {
	r := newLeaseRig(t, CoordinatorConfig{})
	var reg RegisterResponse
	if code := r.call(r.co.HandleRegister, "", json.RawMessage(
		`{"name":"old","read_addr":"http://127.0.0.1:7801","capabilities":{"slots":2}}`), &reg); code != http.StatusOK {
		t.Fatalf("register = %d", code)
	}
	listing := func() map[string]any {
		rec := httptest.NewRecorder()
		r.co.HandleList(rec, httptest.NewRequest(http.MethodGet, "/v1/workers", nil))
		var v struct {
			Workers []map[string]any `json:"workers"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || len(v.Workers) != 1 {
			t.Fatalf("listing %s: %v", rec.Body, err)
		}
		delete(v.Workers[0], "last_seen_ago") // wall clock
		return v.Workers[0]
	}
	before := listing()
	if code := r.call(r.co.HandleHeartbeat, reg.WorkerID, json.RawMessage(
		`{"leases":[],"held":["`+strings.Repeat("ab", 32)+`","`+strings.Repeat("cd", 32)+`"]}`), nil); code != http.StatusOK {
		t.Fatalf("heartbeat = %d", code)
	}
	if after := listing(); !reflect.DeepEqual(before, after) {
		t.Errorf("listing changed across an old-style heartbeat:\n before %v\n after  %v", before, after)
	}
	if before["read_addr"] != "http://127.0.0.1:7801" {
		t.Errorf("read_addr = %v, want it kept as the scrape target", before["read_addr"])
	}
}
