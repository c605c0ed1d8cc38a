package queue

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve/dispatch"
)

// registerWorkerObs registers a worker the way cmd/precision-worker does
// when observability is wired: a metrics read address and an arch profile.
func (h *fleetHarness) registerWorkerObs(t *testing.T, name, readAddr string, spec *arch.Spec) *testWorker {
	t.Helper()
	w := &testWorker{t: t, base: h.srv.URL}
	var resp dispatch.RegisterResponse
	status := w.post("/v1/workers/register", dispatch.RegisterRequest{
		Name: name, ReadAddr: readAddr, Arch: spec,
		Capabilities: dispatch.Capabilities{Slots: 1},
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("register = %d", status)
	}
	w.id = resp.WorkerID
	return w
}

// completeTrace uploads a result with the worker's final span timeline
// riding beside it, like the real worker binary does.
func (w *testWorker) completeTrace(leaseID string, payload []byte, td obs.TraceData) int {
	w.t.Helper()
	return w.post("/v1/workers/"+w.id+"/complete",
		dispatch.CompleteRequest{LeaseID: leaseID, Result: payload, Trace: &td}, nil)
}

// workerTrace builds a closed worker-side timeline for a grant: a root
// "worker" span with one "solve" child, annotated with the lease identity so
// tests can tell whose subtree landed where.
func workerTrace(g *dispatch.LeaseGrant) obs.TraceData {
	tr := obs.NewTrace(g.TraceID, "worker",
		obs.Str("lease", g.LeaseID), obs.Str("parent_span", g.ParentSpan))
	solve := tr.Root().Child("solve", obs.Str("mode", g.Spec.Mode))
	solve.End()
	tr.Root().End()
	return tr.Snapshot()
}

func tdFind(td obs.TraceData, name string) (obs.SpanData, int, bool) {
	for i, sp := range td.Spans {
		if sp.Name == name {
			return sp, i, true
		}
	}
	return obs.SpanData{}, -1, false
}

func tdAttr(sp obs.SpanData, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// childrenOf returns the indices of sp's direct children.
func childrenOf(td obs.TraceData, parent int) []int {
	var out []int
	for i, sp := range td.Spans {
		if sp.Parent == parent {
			out = append(out, i)
		}
	}
	return out
}

// TestFleetWorkerTraceStitchedUnderAttempt is the cross-node timeline
// contract: the worker's spans — shipped partially on heartbeats, finally
// on complete — graft under the job's attempt span, tagged node=worker,
// with the heartbeat partial replaced (not duplicated) by the final
// snapshot, and the upload event recording the payload size.
func TestFleetWorkerTraceStitchedUnderAttempt(t *testing.T) {
	h := newFleetHarness(t,
		Config{DisableLocal: true, Retry: fastRetry},
		dispatch.CoordinatorConfig{LeaseTTL: 500 * time.Millisecond, PollWait: 150 * time.Millisecond})

	job, err := h.sched.Submit(testSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	w := h.registerWorker(t, "traced")
	g := w.leaseUntilGrant(2 * time.Second)
	if g.TraceID != job.ID || g.ParentSpan != "attempt-1" {
		t.Fatalf("grant trace context = %s/%s, want %s/attempt-1", g.TraceID, g.ParentSpan, job.ID)
	}

	// Heartbeat a partial snapshot first: a long run streams its timeline.
	tr := obs.NewTrace(g.TraceID, "worker", obs.Str("lease", g.LeaseID))
	solve := tr.Root().Child("solve", obs.Str("mode", g.Spec.Mode))
	partial := tr.Snapshot()
	if expired := w.heartbeat(dispatch.LeaseProgress{
		LeaseID: g.LeaseID, Step: 2, Total: 6, Trace: &partial}); len(expired) != 0 {
		t.Fatalf("heartbeat expired %v", expired)
	}
	mid := job.Trace()
	if _, _, ok := tdFind(mid, "worker"); !ok {
		t.Fatal("heartbeat partial not stitched into the live job trace")
	}

	solve.End()
	tr.Root().AggregateChild("checkpoint", time.Millisecond, obs.Str("bytes", "4096"))
	tr.Root().End()
	payload := runPayload(t, g.Spec)
	if status := w.completeTrace(g.LeaseID, payload, tr.Snapshot()); status != http.StatusOK {
		t.Fatalf("complete = %d", status)
	}
	waitDone(t, job)

	td := job.Trace()
	att, ai, ok := tdFind(td, "attempt")
	if !ok {
		t.Fatal("no attempt span")
	}
	workerSpan, wi, ok := tdFind(td, "worker")
	if !ok {
		t.Fatal("worker subtree not stitched")
	}
	if workerSpan.Parent != ai {
		t.Fatalf("worker span parent = %d, want attempt %d", workerSpan.Parent, ai)
	}
	if tdAttr(workerSpan, "node") != "worker" {
		t.Fatalf("grafted root missing node=worker: %+v", workerSpan.Attrs)
	}
	// Replacement semantics: one worker root, one solve — not one per beat.
	count := 0
	for _, sp := range td.Spans {
		if sp.Name == "worker" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d worker roots stitched, want 1 (final snapshot replaces partials)", count)
	}
	sv, _, ok := tdFind(td, "solve")
	if !ok || sv.Parent != wi {
		t.Fatalf("solve span = %+v (found=%v), want child of worker %d", sv, ok, wi)
	}
	if sv.Open {
		t.Fatal("final snapshot's solve span still open — the partial survived")
	}
	if _, _, ok := tdFind(td, "checkpoint"); !ok {
		t.Fatal("worker checkpoint span not stitched")
	}
	up, _, ok := tdFind(td, "upload")
	if !ok || up.Parent != ai {
		t.Fatalf("upload event = %+v (found=%v), want child of attempt", up, ok)
	}
	if b, err := strconv.Atoi(tdAttr(up, "bytes")); err != nil || b != len(payload) {
		t.Fatalf("upload bytes = %q, want %d", tdAttr(up, "bytes"), len(payload))
	}
	// Every grafted span must sit inside its host attempt.
	for _, i := range []int{wi} {
		sp := td.Spans[i]
		if sp.StartNs < att.StartNs || sp.EndNs > att.EndNs {
			t.Fatalf("grafted span [%d,%d] outside attempt [%d,%d]",
				sp.StartNs, sp.EndNs, att.StartNs, att.EndNs)
		}
	}
	// The stitched timeline also rides inside the result payload.
	raw, ok := job.Result()
	if !ok {
		t.Fatal("no result payload")
	}
	var res runner.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("result payload carries no trace")
	}
	if _, _, ok := tdFind(*res.Trace, "worker"); !ok {
		t.Fatal("result trace missing the stitched worker subtree")
	}
}

// TestFleetTraceRetryRoutesToSecondAttempt: a rejected upload's trace lands
// under attempt 1, the retry's trace under attempt 2 — worker timelines
// follow their own attempt across the retry boundary instead of piling onto
// the latest span.
func TestFleetTraceRetryRoutesToSecondAttempt(t *testing.T) {
	h := newFleetHarness(t,
		Config{DisableLocal: true, Retry: fastRetry},
		dispatch.CoordinatorConfig{LeaseTTL: 500 * time.Millisecond, PollWait: 150 * time.Millisecond})

	job, err := h.sched.Submit(testSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	w := h.registerWorker(t, "retrier")
	g1 := w.leaseUntilGrant(2 * time.Second)

	good := runPayload(t, g1.Spec)
	var tampered runner.Result
	if err := json.Unmarshal(good, &tampered); err != nil {
		t.Fatal(err)
	}
	tampered.Spec.Steps += 7
	bad, _ := json.Marshal(tampered)
	if status := w.completeTrace(g1.LeaseID, bad, workerTrace(g1)); status != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt upload = %d, want 422", status)
	}

	g2 := w.leaseUntilGrant(2 * time.Second)
	if g2.ParentSpan != "attempt-2" {
		t.Fatalf("retry grant parent span = %s, want attempt-2", g2.ParentSpan)
	}
	if status := w.completeTrace(g2.LeaseID, good, workerTrace(g2)); status != http.StatusOK {
		t.Fatalf("complete = %d", status)
	}
	waitDone(t, job)

	td := job.Trace()
	// Two attempt spans; each owns exactly the worker subtree of its own
	// lease, identified by the lease attr the worker stamped on its root.
	byLease := map[string]int{}
	for i, sp := range td.Spans {
		if sp.Name == "attempt" {
			for _, ci := range childrenOf(td, i) {
				c := td.Spans[ci]
				if c.Name == "worker" {
					byLease[tdAttr(c, "lease")] = i
				}
			}
		}
	}
	if len(byLease) != 2 {
		t.Fatalf("worker subtrees by lease = %v, want one per attempt", byLease)
	}
	a1, ok1 := byLease[g1.LeaseID]
	a2, ok2 := byLease[g2.LeaseID]
	if !ok1 || !ok2 || a1 == a2 {
		t.Fatalf("lease subtrees landed on attempts %d/%d (found %v/%v), want distinct attempts",
			a1, a2, ok1, ok2)
	}
	if n1, n2 := tdAttr(td.Spans[a1], "n"), tdAttr(td.Spans[a2], "n"); n1 != "1" || n2 != "2" {
		t.Fatalf("subtrees under attempts n=%s/n=%s, want 1/2", n1, n2)
	}
}

// TestFleetHedgeTraceSiblingSubtree: when the straggler defense fires, the
// duplicate executor's spans graft under the hedge_attempt span — a sibling
// subtree beside the primary attempt — so a hedged job renders as two
// parallel cross-node timelines.
func TestFleetHedgeTraceSiblingSubtree(t *testing.T) {
	h := newFleetHarness(t,
		Config{DisableLocal: true, Retry: fastRetry},
		dispatch.CoordinatorConfig{
			LeaseTTL: 2 * time.Second, PollWait: 150 * time.Millisecond,
			HedgeBudget: 1, HedgeAfter: 50 * time.Millisecond,
		})

	job, err := h.sched.Submit(testSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	w1 := h.registerWorker(t, "straggler")
	g1 := w1.leaseUntilGrant(2 * time.Second)

	// A second executor arrives; the primary stalls past HedgeAfter, so the
	// reaper fires a duplicate that only w2 can take.
	w2 := h.registerWorker(t, "rescuer")
	g2 := w2.leaseUntilGrant(5 * time.Second)
	if g2.JobID != job.ID {
		t.Fatalf("hedge grant is job %s, want %s", g2.JobID, job.ID)
	}

	payload := runPayload(t, g1.Spec)
	if status := w2.completeTrace(g2.LeaseID, payload, workerTrace(g2)); status != http.StatusOK {
		t.Fatalf("hedge complete = %d", status)
	}
	waitDone(t, job)
	// The straggler's upload still lands (bit-identity check); its trace
	// grafts under the primary attempt.
	if status := w1.completeTrace(g1.LeaseID, payload, workerTrace(g1)); status != http.StatusOK {
		t.Fatalf("primary complete = %d", status)
	}

	td := job.Trace()
	_, ai, ok := tdFind(td, "attempt")
	if !ok {
		t.Fatal("no primary attempt span")
	}
	_, hi, ok := tdFind(td, "hedge_attempt")
	if !ok {
		t.Fatal("no hedge_attempt span")
	}
	var primaryLease, hedgeLease string
	for _, i := range childrenOf(td, ai) {
		if td.Spans[i].Name == "worker" {
			primaryLease = tdAttr(td.Spans[i], "lease")
		}
	}
	for _, i := range childrenOf(td, hi) {
		if td.Spans[i].Name == "worker" {
			hedgeLease = tdAttr(td.Spans[i], "lease")
		}
	}
	if primaryLease != g1.LeaseID {
		t.Fatalf("primary attempt's worker subtree = lease %q, want %s", primaryLease, g1.LeaseID)
	}
	if hedgeLease != g2.LeaseID {
		t.Fatalf("hedge_attempt's worker subtree = lease %q, want %s (sibling subtree, not a replacement)", hedgeLease, g2.LeaseID)
	}
}

// TestFleetRemoteEnergyAccounting: a worker registering with an arch
// profile gets every upload priced by the coordinator — energy in the
// result payload and span attributes, per-worker joules/cost in the fleet
// view, and the scheduler's per-app counters.
func TestFleetRemoteEnergyAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	h := newFleetHarness(t,
		Config{DisableLocal: true, Retry: fastRetry, Obs: reg},
		dispatch.CoordinatorConfig{LeaseTTL: 500 * time.Millisecond, PollWait: 150 * time.Millisecond})

	job, err := h.sched.Submit(testSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	p100 := arch.TeslaP100
	w := h.registerWorkerObs(t, "gpu-node", "", &p100)
	g := w.leaseUntilGrant(2 * time.Second)
	if status := w.complete(g.LeaseID, runPayload(t, g.Spec)); status != http.StatusOK {
		t.Fatalf("complete = %d", status)
	}
	waitDone(t, job)

	raw, ok := job.Result()
	if !ok {
		t.Fatal("no result payload")
	}
	var res runner.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	e := res.Energy
	if e == nil {
		t.Fatal("remote result not priced")
	}
	if e.Arch != "Tesla P100" {
		t.Fatalf("priced on %q, want the worker's registered Tesla P100", e.Arch)
	}
	// The figures must be the worker profile × deterministic counters
	// product, nothing else.
	want := dispatch.ComputeEnergy(p100, &res)
	if e.Joules != want.Joules || e.CostDollars != want.CostDollars {
		t.Fatalf("energy = %+v, want recomputed %+v", e, want)
	}
	if e.Joules <= 0 || e.CostDollars <= 0 {
		t.Fatalf("energy not positive: %+v", e)
	}

	// Span attributes on the attempt.
	td := job.Trace()
	att, _, ok := tdFind(td, "attempt")
	if !ok {
		t.Fatal("no attempt span")
	}
	if tdAttr(att, "arch") != "Tesla P100" || tdAttr(att, "joules") == "" || tdAttr(att, "cost_dollars") == "" {
		t.Fatalf("attempt span missing energy attrs: %+v", att.Attrs)
	}

	// Fleet view accumulates per-worker totals.
	resp, err := http.Get(h.srv.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view dispatch.FleetView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, wv := range view.Workers {
		if wv.ID == w.id {
			found = true
			if wv.Arch != "Tesla P100" {
				t.Fatalf("fleet view arch = %q", wv.Arch)
			}
			if wv.JoulesTotal != e.Joules || wv.CostDollarsTotal != e.CostDollars {
				t.Fatalf("fleet totals = %v J / $%v, want %v / %v",
					wv.JoulesTotal, wv.CostDollarsTotal, e.Joules, e.CostDollars)
			}
		}
	}
	if !found {
		t.Fatalf("worker %s missing from fleet view", w.id)
	}

	// Scheduler counters: joules/cost by app and mode.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, wantLine := range []string{
		`precisiond_job_joules_total{app="clamr",mode="full"}`,
		`precisiond_job_cost_dollars_total{app="clamr",mode="full"}`,
	} {
		if !strings.Contains(out, wantLine) {
			t.Fatalf("exposition missing %s:\n%s", wantLine, out)
		}
	}
}

// TestFleetMetricsEndpointMerge: the mounted GET /metrics/fleet merges the
// live scrapes of two workers' /metrics listeners once the coordinator's
// scrape loop has swept them.
func TestFleetMetricsEndpointMerge(t *testing.T) {
	mkWorkerMetrics := func(runs uint64) (*obs.Registry, string, func()) {
		r := obs.NewRegistry()
		r.Counter("precision_worker_heartbeats_total", "Beats.").Add(runs)
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", r.Handler())
		srv := httptest.NewServer(mux)
		return r, srv.URL, srv.Close
	}
	_, u1, c1 := mkWorkerMetrics(3)
	defer c1()
	_, u2, c2 := mkWorkerMetrics(9)
	defer c2()

	h := newFleetHarness(t,
		Config{DisableLocal: true, Retry: fastRetry},
		dispatch.CoordinatorConfig{
			// Heartbeat defaults to LeaseTTL/3: a fast scrape cadence.
			LeaseTTL: 90 * time.Millisecond, PollWait: 100 * time.Millisecond,
		})
	h.registerWorkerObs(t, "m1", u1, nil)
	h.registerWorkerObs(t, "m2", u2, nil)

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(h.srv.URL + "/metrics/fleet")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.Header.Get("X-Fleet-Workers") == "2" {
			if !strings.Contains(string(body), "precision_worker_heartbeats_total 12") {
				t.Fatalf("merged fleet metrics do not sum per-worker scrapes:\n%s", body)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrape loop never swept both workers; last body:\n%s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
