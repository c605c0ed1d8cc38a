package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runner"
)

// relClose tolerates the nanosecond truncation Predict's time.Duration
// round-trip introduces; everything else in the model is exact float math.
func relClose(got, want float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want)/math.Abs(want) < 1e-6
}

// TestComputeEnergyGoldenHaswell hand-computes the full arch × counter
// product for a CPU profile: roofline runtime from the counters, joules as
// TDP × seconds, dollars from the paper's AWS rates — the exact numbers the
// coordinator attaches to every remote completion.
func TestComputeEnergyGoldenHaswell(t *testing.T) {
	res := &runner.Result{
		Counters: metrics.Counters{
			Flops32:          2e9,
			Flops64:          4e9,
			Transcendental64: 1e8,
			Conversions:      5e7,
			LoadBytes:        60e9,
			StoreBytes:       20e9,
		},
		StateBytes:      1 << 28,
		CheckpointBytes: 3e9,
	}
	e := ComputeEnergy(arch.Haswell, res)

	// Roofline by hand (vectorized CPU profile: 10% of peak flops, 50% of
	// nominal bandwidth, transcendental = 12 flops, conversion = 1 wide op).
	f32 := 2e9
	f64 := 4e9 + 12*1e8 + 5e7
	computeSec := f32/(832e9*0.10) + f64/(416e9*0.10)
	memSec := 80e9 / (68e9 * 0.50)
	sec := computeSec
	if memSec > sec {
		sec = memSec
	}
	wantJoules := 105 * sec
	wantDollars := sec/3600*1.591*1.2337 + 3.0*0.023

	if e.Arch != "Haswell" || e.Watts != 105 {
		t.Fatalf("energy profile = %s/%gW, want Haswell/105W", e.Arch, e.Watts)
	}
	if !relClose(e.ModelSeconds, sec) {
		t.Fatalf("model seconds = %v, want %v", e.ModelSeconds, sec)
	}
	if !relClose(e.Joules, wantJoules) {
		t.Fatalf("joules = %v, want %v", e.Joules, wantJoules)
	}
	if !relClose(e.CostDollars, wantDollars) {
		t.Fatalf("cost = %v, want %v", e.CostDollars, wantDollars)
	}
}

// TestComputeEnergyGoldenTitanX pins the GPU path: the TITAN X's 32:1 DP
// throttle is floored at SP/8 (address arithmetic issues at full rate), and
// kernel launches add their published overhead.
func TestComputeEnergyGoldenTitanX(t *testing.T) {
	res := &runner.Result{
		Counters: metrics.Counters{
			Flops64:        10e9,
			LoadBytes:      1e9,
			KernelLaunches: 1000,
		},
	}
	e := ComputeEnergy(arch.TitanX, res)

	// DP peak 192 GF floors at 6144/8 = 768 GF; 8% achievable.
	computeSec := 10e9 / (768e9 * 0.08)
	memSec := 1e9 / (336e9 * 0.60)
	sec := computeSec
	if memSec > sec {
		sec = memSec
	}
	sec += 1000 * 8e-6 // 8µs per launch
	if !relClose(e.ModelSeconds, sec) {
		t.Fatalf("model seconds = %v, want %v (DP floor + launch overhead)", e.ModelSeconds, sec)
	}
	if !relClose(e.Joules, 250*sec) {
		t.Fatalf("joules = %v, want %v", e.Joules, 250*sec)
	}
	// No checkpoint: cost is pure compute.
	if !relClose(e.CostDollars, sec/3600*1.591*1.2337) {
		t.Fatalf("cost = %v, want compute-only", e.CostDollars)
	}
}

// TestComputeEnergyCacheStable: pricing derives from the deterministic
// counters, never wall time, so the same result prices bit-identically —
// the invariant that lets cached re-runs report the same joules.
func TestComputeEnergyCacheStable(t *testing.T) {
	res := &runner.Result{
		Counters:        metrics.Counters{Flops64: 7e9, LoadBytes: 11e9},
		CheckpointBytes: 1e8,
	}
	a := ComputeEnergy(arch.TeslaP100, res)
	b := ComputeEnergy(arch.TeslaP100, res)
	if a.Joules != b.Joules || a.CostDollars != b.CostDollars {
		t.Fatalf("re-pricing drifted: %+v vs %+v", a, b)
	}
}

// registerTestWorker registers one worker straight through the HTTP handler
// and returns its assigned ID.
func registerTestWorker(t *testing.T, co *Coordinator, req RegisterRequest) string {
	t.Helper()
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	co.HandleRegister(rec, httptest.NewRequest(http.MethodPost, "/v1/workers/register", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("register = %d: %s", rec.Code, rec.Body)
	}
	var resp RegisterResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.WorkerID
}

func fleetMetricsBody(t *testing.T, co *Coordinator) (string, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	co.HandleFleetMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics/fleet", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("fleet metrics = %d", rec.Code)
	}
	return rec.Body.String(), rec.Header().Get("X-Fleet-Workers")
}

// TestFleetMetricsStalenessAgeing: a worker that stops being scraped ages
// out of the merged view after the staleness window instead of freezing its
// last numbers into the aggregate forever.
func TestFleetMetricsStalenessAgeing(t *testing.T) {
	d := New(Options{})
	co := NewCoordinator(d, CoordinatorConfig{
		LeaseTTL:  100 * time.Millisecond,
		WorkerTTL: 400 * time.Millisecond,
	})
	w1 := registerTestWorker(t, co, RegisterRequest{Name: "fresh", Capabilities: Capabilities{Slots: 1}})
	w2 := registerTestWorker(t, co, RegisterRequest{Name: "flappy", Capabilities: Capabilities{Slots: 1}})

	parse := func(text string) *obs.ParsedMetrics {
		pm, err := obs.ParsePrometheus(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return pm
	}
	now := time.Now()
	co.mu.Lock()
	co.workers[w1].scrape = parse("# TYPE w_leases_total counter\nw_leases_total 3\n")
	co.workers[w1].scrapedAt = now
	co.workers[w2].scrape = parse("# TYPE w_leases_total counter\nw_leases_total 4\n")
	co.workers[w2].scrapedAt = now
	co.mu.Unlock()

	body, workers := fleetMetricsBody(t, co)
	if workers != "2" || !strings.Contains(body, "w_leases_total 7") {
		t.Fatalf("fresh merge: workers=%s body=%q, want 2 workers summing to 7", workers, body)
	}

	// The flapping worker's scrape slides past the staleness window: its
	// sample must fall out of the merge, not wedge it.
	co.mu.Lock()
	co.workers[w2].scrapedAt = now.Add(-co.cfg.WorkerTTL - time.Millisecond)
	co.mu.Unlock()
	body, workers = fleetMetricsBody(t, co)
	if workers != "1" || !strings.Contains(body, "w_leases_total 3") {
		t.Fatalf("aged merge: workers=%s body=%q, want only the fresh worker's 3", workers, body)
	}
	if strings.Contains(body, "w_leases_total 7") {
		t.Fatal("stale scrape still contributes to the fleet merge")
	}
}

// TestCoordinatorScrapeLoop drives scrapeWorkers against two live /metrics
// endpoints — one healthy, one serving garbage. The healthy worker lands in
// the merge; the garbage one reads as a failed scrape and contributes
// nothing (it keeps whatever sample it had, here none).
func TestCoordinatorScrapeLoop(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("w_runs_total", "Runs.").Add(5)
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		reg.Handler().ServeHTTP(w, r)
	}))
	defer good.Close()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("this is not a prometheus exposition\n"))
	}))
	defer bad.Close()

	d := New(Options{})
	co := NewCoordinator(d, CoordinatorConfig{LeaseTTL: 100 * time.Millisecond})
	registerTestWorker(t, co, RegisterRequest{
		Name: "good", ReadAddr: good.URL, Capabilities: Capabilities{Slots: 1}})
	registerTestWorker(t, co, RegisterRequest{
		Name: "bad", ReadAddr: bad.URL, Capabilities: Capabilities{Slots: 1}})

	co.scrapeWorkers(context.Background())

	body, workers := fleetMetricsBody(t, co)
	if workers != "1" {
		t.Fatalf("X-Fleet-Workers = %s, want 1 (garbage endpoint must read as a failed scrape)", workers)
	}
	if !strings.Contains(body, "w_runs_total 5") {
		t.Fatalf("merged body missing the healthy worker's series:\n%s", body)
	}

	// The per-worker view reports scrape freshness for the healthy worker
	// and none for the garbage one.
	rec := httptest.NewRecorder()
	co.HandleList(rec, httptest.NewRequest(http.MethodGet, "/v1/workers", nil))
	var view FleetView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	for _, wv := range view.Workers {
		if wv.Name == "good" && wv.MetricsAge == "" {
			t.Fatal("scraped worker reports no metrics age")
		}
		if wv.Name == "bad" && wv.MetricsAge != "" {
			t.Fatalf("unscrapeable worker reports metrics age %q", wv.MetricsAge)
		}
	}
}

// TestWorkerProfileChangeWarning: worker IDs are fresh per registration but
// names are the stable identity — the same name re-registering with a
// different arch profile is logged loud, because the energy model now
// prices that name's uploads differently.
func TestWorkerProfileChangeWarning(t *testing.T) {
	var logBuf bytes.Buffer
	d := New(Options{})
	co := NewCoordinator(d, CoordinatorConfig{
		LeaseTTL: 100 * time.Millisecond,
		Log:      obs.NewLogger(&logBuf, obs.LevelWarn),
	})
	hw := arch.Haswell
	p100 := arch.TeslaP100
	registerTestWorker(t, co, RegisterRequest{
		Name: "node-a", Arch: &hw, Capabilities: Capabilities{Slots: 1}})
	registerTestWorker(t, co, RegisterRequest{
		Name: "node-a", Arch: &hw, Capabilities: Capabilities{Slots: 1}})
	if s := logBuf.String(); strings.Contains(s, "profile changed") {
		t.Fatalf("identical re-registration warned:\n%s", s)
	}
	registerTestWorker(t, co, RegisterRequest{
		Name: "node-a", Arch: &p100, Capabilities: Capabilities{Slots: 1}})
	s := logBuf.String()
	if !strings.Contains(s, "worker profile changed") || !strings.Contains(s, "node-a") {
		t.Fatalf("arch swap under a stable name not warned:\n%s", s)
	}
}
