package api

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/cache"
	"repro/internal/serve/queue"
)

// newObsServer is newTestServer plus a metrics registry wired through both
// the scheduler and the API, the way cmd/precisiond assembles them.
func newObsServer(t *testing.T) (*httptest.Server, *obs.Registry) {
	t.Helper()
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	sched := queue.New(queue.Config{Workers: 1, Cache: c, Obs: reg})
	ctx, cancel := context.WithCancel(context.Background())
	sched.Start(ctx)
	srv := httptest.NewServer(New(sched, c, WithPollInterval(5*time.Millisecond), WithMetrics(reg)))
	t.Cleanup(func() {
		srv.Close()
		cancel()
		sched.Wait()
	})
	return srv, reg
}

// TestMetricsEndpoint scrapes /metrics after one executed and one cached
// submission and checks the exposition is well-formed Prometheus text with
// the headline families populated.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newObsServer(t)
	spec := clamrSpec(4, "full")
	v, _ := submit(t, srv, spec)
	fetchResult(t, srv, v.ID)
	submit(t, srv, spec) // cache hit

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	exp := string(body)

	// Structural validity: every sample line is `name{labels} value` for a
	// family announced by a preceding # TYPE line.
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(exp, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Errorf("sample %q has no preceding # TYPE", line)
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}

	for _, want := range []string{
		`precisiond_run_duration_seconds_count{app="clamr",mode="full"} 1`,
		`precisiond_queue_wait_seconds_bucket{le="+Inf"} 1`,
		`precisiond_jobs_total{event="cache_hit"} 1`,
		// The executed job's result read and the cache-hit admission probe.
		`precisiond_cache_events_total{event="hit"} 2`,
		`precisiond_cache_events_total{event="put"} 1`,
		`precisiond_run_flops_total{width="64"}`,
		`precisiond_workers 1`,
		`precisiond_queue_depth 0`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestTraceEndpoint fetches the span timeline for a finished job and checks
// it is complete and well-formed; unknown jobs 404.
func TestTraceEndpoint(t *testing.T) {
	srv, _ := newObsServer(t)
	v, _ := submit(t, srv, clamrSpec(4, "full"))
	fetchResult(t, srv, v.ID)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	var td obs.TraceData
	if err := json.NewDecoder(resp.Body).Decode(&td); err != nil {
		t.Fatal(err)
	}
	if td.JobID != v.ID {
		t.Errorf("trace job id = %q, want %s", td.JobID, v.ID)
	}
	names := map[string]bool{}
	for i, sp := range td.Spans {
		names[sp.Name] = true
		if sp.Open {
			t.Errorf("span %s open in a finished job's trace", sp.Name)
		}
		if sp.DurationNs < 0 || (i > 0 && (sp.Parent < 0 || sp.Parent >= i)) {
			t.Errorf("malformed span %d: %+v", i, sp)
		}
	}
	for _, want := range []string{"job", "queue_wait", "attempt"} {
		if !names[want] {
			t.Errorf("trace missing %q span; got %v", want, names)
		}
	}

	r404, err := http.Get(srv.URL + "/v1/jobs/job-999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace status %d, want 404", r404.StatusCode)
	}
}
