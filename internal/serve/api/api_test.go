package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/serve/cache"
	"repro/internal/serve/queue"
)

// newTestServer wires a real scheduler (executing real experiments through
// the runner) and a real on-disk cache behind an httptest server.
func newTestServer(t *testing.T, cfg queue.Config) (*httptest.Server, *queue.Scheduler, *cache.Cache) {
	t.Helper()
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = c
	sched := queue.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	sched.Start(ctx)
	srv := httptest.NewServer(New(sched, c, WithPollInterval(5*time.Millisecond)))
	t.Cleanup(func() {
		srv.Close()
		cancel()
		sched.Wait()
	})
	return srv, sched, c
}

func clamrSpec(steps int, mode string) runner.ExperimentSpec {
	return runner.ExperimentSpec{
		App: runner.AppCLAMR, Mode: mode, Steps: steps,
		NX: 16, NY: 16, MaxLevel: 1, AMRInterval: 5,
	}
}

func selfSpec(steps int, mode string) runner.ExperimentSpec {
	return runner.ExperimentSpec{
		App: runner.AppSELF, Mode: mode, Steps: steps,
		Elements: 2, Order: 3,
	}
}

func submit(t *testing.T, srv *httptest.Server, spec runner.ExperimentSpec) (queue.View, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v queue.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode submit response (status %d): %v", resp.StatusCode, err)
	}
	return v, resp.StatusCode
}

func fetchResult(t *testing.T, srv *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp.StatusCode, data)
	}
	return data
}

func fetchStats(t *testing.T, srv *httptest.Server) StatsReply {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply StatsReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	return reply
}

// TestDuplicateSubmitServedFromCache is the PR's first acceptance test:
// submitting the same spec twice returns byte-identical result payloads, and
// the cache-stats counters prove the second was served without recompute.
func TestDuplicateSubmitServedFromCache(t *testing.T) {
	srv, _, _ := newTestServer(t, queue.Config{Workers: 1})
	spec := clamrSpec(4, "full")

	first, status := submit(t, srv, spec)
	if status != http.StatusAccepted {
		t.Fatalf("first submit status %d, want 202", status)
	}
	firstBytes := fetchResult(t, srv, first.ID)

	// Alias spelling of the same experiment: must hash to the same entry.
	alias := spec
	alias.Mode = "double"
	second, status := submit(t, srv, alias)
	if status != http.StatusOK {
		t.Errorf("cached submit status %d, want 200", status)
	}
	if !second.Cached {
		t.Errorf("second submit view = %+v, want cached", second)
	}
	if second.ID == first.ID {
		t.Errorf("cache answer reused job ID %s", second.ID)
	}
	secondBytes := fetchResult(t, srv, second.ID)
	if !bytes.Equal(firstBytes, secondBytes) {
		t.Errorf("results differ:\n first: %s\nsecond: %s", firstBytes, secondBytes)
	}

	stats := fetchStats(t, srv)
	if s := stats.Scheduler; s.Executed != 1 || s.CacheHits != 1 || s.Submitted != 2 {
		t.Errorf("scheduler stats = %+v, want 1 execution, 1 cache hit", s)
	}
	// Two reads, both served by the cache: the second submission's
	// admission probe, and the first job's result — an executed job keeps
	// its payload only in the cache.
	if stats.Cache == nil || stats.Cache.Hits != 2 || stats.Cache.Entries != 1 {
		t.Errorf("cache stats = %+v, want 2 hits over 1 entry", stats.Cache)
	}
}

// TestConcurrentSubmissionsMatchDirectRuns is the PR's second acceptance
// test: 8 concurrent distinct submissions all complete, and each job's
// result is identical to the same experiment run directly through the
// runner (the cmd/paperbench path).
func TestConcurrentSubmissionsMatchDirectRuns(t *testing.T) {
	srv, _, _ := newTestServer(t, queue.Config{Workers: 4})
	specs := []runner.ExperimentSpec{
		clamrSpec(3, "full"), clamrSpec(3, "half"), clamrSpec(3, "mixed"),
		clamrSpec(4, "full"), clamrSpec(4, "half"), clamrSpec(4, "mixed"),
		selfSpec(3, "min"), selfSpec(3, "full"),
	}

	var wg sync.WaitGroup
	payloads := make([][]byte, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec runner.ExperimentSpec) {
			defer wg.Done()
			v, status := submit(t, srv, spec)
			if status != http.StatusAccepted && status != http.StatusOK {
				t.Errorf("spec %d: submit status %d", i, status)
				return
			}
			payloads[i] = fetchResult(t, srv, v.ID)
		}(i, spec)
	}
	wg.Wait()

	for i, spec := range specs {
		if payloads[i] == nil {
			t.Fatalf("spec %d: no payload", i)
		}
		var got runner.Result
		if err := json.Unmarshal(payloads[i], &got); err != nil {
			t.Fatalf("spec %d: decode result: %v", i, err)
		}
		want, err := runner.Run(context.Background(), spec, runner.RunOpts{})
		if err != nil {
			t.Fatalf("spec %d: direct run: %v", i, err)
		}
		gotHash, err := got.ResultHash()
		if err != nil {
			t.Fatal(err)
		}
		wantHash, err := want.ResultHash()
		if err != nil {
			t.Fatal(err)
		}
		if gotHash != wantHash {
			t.Errorf("spec %d (%s/%s): served result differs from direct run\n served: %+v\n direct: %+v",
				i, spec.App, spec.Mode, got.Deterministic(), want.Deterministic())
		}
		if got.StateHash != want.StateHash {
			t.Errorf("spec %d: state hash %s != direct %s", i, got.StateHash, want.StateHash)
		}
	}
}

func TestStreamEmitsProgressNDJSON(t *testing.T) {
	srv, _, _ := newTestServer(t, queue.Config{Workers: 1})
	v, _ := submit(t, srv, clamrSpec(6, "full"))

	resp, err := http.Get(srv.URL + "/v1/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var views []queue.View
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var view queue.View
		if err := json.Unmarshal(sc.Bytes(), &view); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		views = append(views, view)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(views) == 0 {
		t.Fatal("stream emitted nothing")
	}
	last := views[len(views)-1]
	if last.Status != queue.StatusDone || last.Step != last.Total || last.Total != 6 {
		t.Errorf("final stream view = %+v, want done at 6/6", last)
	}
	for i := 1; i < len(views); i++ {
		if views[i].Step < views[i-1].Step {
			t.Errorf("stream went backwards: %+v -> %+v", views[i-1], views[i])
		}
	}
}

func TestErrorPaths(t *testing.T) {
	srv, _, _ := newTestServer(t, queue.Config{Workers: 1})

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(`{"app":"nope","mode":"full","steps":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spec status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(`{"app":"clamr","bogus_field":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status %d, want 400", resp.StatusCode)
	}

	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/result", "/v1/jobs/job-999999/stream"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestHealthzDegradesOnJournalFault: a daemon whose journal cannot fsync
// must refuse new admissions (503) and report degraded on /healthz — and
// recover both once the fault clears.
func TestHealthzDegradesOnJournalFault(t *testing.T) {
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := queue.OpenJournal(filepath.Join(t.TempDir(), "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	sched := queue.New(queue.Config{Workers: 1, Cache: c, Journal: j})
	ctx, cancel := context.WithCancel(context.Background())
	sched.Start(ctx)
	srv := httptest.NewServer(New(sched, c))
	t.Cleanup(func() {
		srv.Close()
		cancel()
		sched.Wait()
		j.Close()
	})

	get := func() (int, string) {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	if code, body := get(); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthy healthz = %d %q", code, body)
	}

	if err := fault.Arm("journal.sync=always"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disarm()
	// An admission attempt forces a journal append; the failed fsync
	// rejects the submission — never acked, never owed.
	if _, status := submit(t, srv, clamrSpec(2, "full")); status != http.StatusServiceUnavailable {
		t.Fatalf("submit with broken journal = %d, want 503", status)
	}
	code, body := get()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded healthz = %d %q, want 503", code, body)
	}
	var degraded struct {
		Status           string   `json:"status"`
		Reasons          []string `json:"reasons"`
		UptimeSeconds    float64  `json:"uptime_seconds"`
		Build            string   `json:"build"`
		GoVersion        string   `json:"go_version"`
		LastJournalError string   `json:"last_journal_error"`
	}
	if err := json.Unmarshal([]byte(body), &degraded); err != nil {
		t.Fatal(err)
	}
	if degraded.Status != "degraded" || len(degraded.Reasons) == 0 || !strings.Contains(degraded.Reasons[0], "journal") {
		t.Errorf("degraded detail = %+v", degraded)
	}
	if degraded.UptimeSeconds <= 0 {
		t.Errorf("degraded payload uptime = %v, want > 0", degraded.UptimeSeconds)
	}
	if degraded.Build == "" || !strings.HasPrefix(degraded.GoVersion, "go") {
		t.Errorf("degraded payload build info = %q / %q", degraded.Build, degraded.GoVersion)
	}
	if !strings.Contains(degraded.LastJournalError, "injected failure") {
		t.Errorf("degraded payload last journal error = %q, want the injected fsync failure", degraded.LastJournalError)
	}

	fault.Disarm()
	// The next successful append clears the signal.
	v, status := submit(t, srv, clamrSpec(2, "full"))
	if status != http.StatusAccepted {
		t.Fatalf("submit after fault cleared = %d, want 202", status)
	}
	fetchResult(t, srv, v.ID)
	if code, body := get(); code != http.StatusOK || body != "ok\n" {
		t.Errorf("healed healthz = %d %q", code, body)
	}
}

func TestSubmitTimeoutParam(t *testing.T) {
	srv, _, _ := newTestServer(t, queue.Config{Workers: 1})
	resp, err := http.Post(srv.URL+"/v1/jobs?timeout=bogus", "application/json",
		bytes.NewReader([]byte(`{"app":"clamr","mode":"full","steps":1,"nx":16,"ny":16}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus timeout status %d, want 400", resp.StatusCode)
	}

	body, _ := json.Marshal(clamrSpec(2, "full"))
	resp, err = http.Post(srv.URL+"/v1/jobs?timeout=1m", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v queue.View
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("timed submit = %d, %v", resp.StatusCode, err)
	}
	fetchResult(t, srv, v.ID)
}

func TestHealthzAndJobList(t *testing.T) {
	srv, _, _ := newTestServer(t, queue.Config{Workers: 1})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}

	for i := 0; i < 3; i++ {
		v, _ := submit(t, srv, clamrSpec(2+i, "full"))
		fetchResult(t, srv, v.ID)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var views []queue.View
	err = json.NewDecoder(resp.Body).Decode(&views)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 3 {
		t.Fatalf("job list has %d entries, want 3", len(views))
	}
	for i, v := range views {
		if want := fmt.Sprintf("job-%06d", i+1); v.ID != want {
			t.Errorf("job list order: got %s at %d, want %s", v.ID, i, want)
		}
	}
}
