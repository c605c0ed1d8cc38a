package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/serve/dispatch"
)

// fakeCoordinator is the coordinator's worker-facing surface with scripted
// answers: register hands out worker-001, worker-002, … with the cadences
// in beats (the last entry repeats), lease asks the test's onLease, and
// every request is reported on events as "METHOD path".
type fakeCoordinator struct {
	srv     *httptest.Server
	beats   []string
	onLease func(f *fakeCoordinator, req dispatch.LeaseRequest, r *http.Request) (int, any)
	stop    chan struct{} // closed at cleanup: releases parked long-polls

	events chan string // every request, in arrival order
	seen   []string    // the events waitFor has consumed; test goroutine only

	mu        sync.Mutex
	registers int
	completed dispatch.CompleteRequest // the last upload
}

func newFakeCoordinator(t *testing.T, beats []string,
	onLease func(*fakeCoordinator, dispatch.LeaseRequest, *http.Request) (int, any)) *fakeCoordinator {
	f := &fakeCoordinator{
		beats: beats, onLease: onLease,
		stop: make(chan struct{}),
		// Sized past anything a test run sends, so handlers never block on it.
		events: make(chan string, 1024),
	}
	reply := func(w http.ResponseWriter, code int, body any) {
		w.WriteHeader(code)
		if body != nil {
			json.NewEncoder(w).Encode(body)
		}
	}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.events <- r.Method + " " + r.URL.Path
		switch {
		case r.URL.Path == "/v1/workers/register":
			f.mu.Lock()
			n := f.registers
			f.registers++
			f.mu.Unlock()
			reply(w, http.StatusOK, dispatch.RegisterResponse{
				WorkerID: workerN(n + 1), LeaseTTL: "1h",
				Heartbeat: f.beats[min(n, len(f.beats)-1)], PollWait: "1s",
			})
		case r.URL.Path == "/v1/workers/lease":
			var req dispatch.LeaseRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				reply(w, http.StatusBadRequest, nil)
				return
			}
			code, body := f.onLease(f, req, r)
			reply(w, code, body)
		case strings.HasSuffix(r.URL.Path, "/complete"):
			f.mu.Lock()
			err := json.NewDecoder(r.Body).Decode(&f.completed)
			f.mu.Unlock()
			if err != nil {
				reply(w, http.StatusBadRequest, nil)
				return
			}
			reply(w, http.StatusOK, struct{}{})
		default: // heartbeat, deregister — and anything unexpected
			reply(w, http.StatusOK, struct{}{})
		}
	}))
	t.Cleanup(func() { close(f.stop); f.srv.Close() })
	return f
}

func workerN(n int) string { return fmt.Sprintf("worker-%03d", n) }

// park holds a long-poll until the worker gives up or the test ends, then
// answers it empty.
func (f *fakeCoordinator) park(r *http.Request) (int, any) {
	select {
	case <-r.Context().Done():
	case <-f.stop:
	}
	return http.StatusNoContent, nil
}

// waitFor consumes requests into seen until one matches want.
func (f *fakeCoordinator) waitFor(t *testing.T, within time.Duration, want func(line string) bool) {
	t.Helper()
	deadline := time.After(within)
	for {
		select {
		case line := <-f.events:
			f.seen = append(f.seen, line)
			if want(line) {
				return
			}
		case <-deadline:
			t.Fatalf("no matching request within %v; saw %q", within, f.seen)
		}
	}
}

// startWorker registers a worker against f and runs its heartbeat loop and
// slots lease loops; the returned stop cancels them and waits for all to exit.
func startWorker(t *testing.T, f *fakeCoordinator, slots int) (stop func()) {
	t.Helper()
	w := &worker{
		base: f.srv.URL, name: "box", lanes: 1,
		caps:       dispatch.Capabilities{Slots: slots, Lanes: 1},
		hc:         &http.Client{},
		leases:     make(map[string]*activeLease),
		registered: make(chan struct{}, 1),
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := w.register(ctx); err != nil {
		cancel()
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1 + slots)
	go func() { defer wg.Done(); w.heartbeatLoop(ctx) }()
	for i := 0; i < slots; i++ {
		go func(slot int) { defer wg.Done(); w.leaseLoop(ctx, ctx, slot) }(i)
	}
	return func() { cancel(); wg.Wait() }
}

// TestReRegistrationIsSerializedAndAdoptsNewCadence restarts the coordinator
// under a 2-slot worker: both slots see a 404 for the forgotten ID at the
// same moment, and the new registration advertises a much shorter heartbeat.
// The node must register once more — not once per slot — and beat at the new
// cadence at once, not after the next tick of the old one.
func TestReRegistrationIsSerializedAndAdoptsNewCadence(t *testing.T) {
	var stale sync.WaitGroup // both slots' polls for the forgotten ID are in
	stale.Add(2)
	f := newFakeCoordinator(t, []string{"1h", "20ms"},
		func(f *fakeCoordinator, req dispatch.LeaseRequest, r *http.Request) (int, any) {
			if req.WorkerID != workerN(1) {
				return f.park(r)
			}
			stale.Done()
			stale.Wait()
			return http.StatusNotFound, nil
		})
	stop := startWorker(t, f, 2)
	f.waitFor(t, 2*time.Second, func(line string) bool {
		return strings.HasSuffix(line, "/heartbeat") && !strings.Contains(line, workerN(1))
	})
	stop()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.registers != 2 {
		t.Errorf("register calls = %d, want 2 (boot + one re-registration); saw %q", f.registers, f.seen)
	}
}

// TestSlotIssuesOnlyCompleteBetweenRunAndNextPoll: a lease slot is blocked
// from taking its next lease by whatever it does after a run, so that must
// be the upload and nothing else.
func TestSlotIssuesOnlyCompleteBetweenRunAndNextPoll(t *testing.T) {
	spec, err := runner.ExperimentSpec{
		App: runner.AppCLAMR, Mode: "full", Steps: 4,
		NX: 16, NY: 16, MaxLevel: 1, AMRInterval: 5,
	}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	f := newFakeCoordinator(t, []string{"1h"},
		func(f *fakeCoordinator, req dispatch.LeaseRequest, r *http.Request) (int, any) {
			granted := false
			once.Do(func() { granted = true })
			if !granted {
				return f.park(r)
			}
			return http.StatusOK, dispatch.LeaseGrant{
				LeaseID: "lease-1", JobID: "job-1", Attempt: 1,
				Spec: spec, SpecHash: hash, LeaseTTL: "1h", TraceID: "job-1", ParentSpan: "attempt-1",
			}
		})
	stop := startWorker(t, f, 1)
	polls := 0
	f.waitFor(t, 30*time.Second, func(line string) bool {
		if line == "POST /v1/workers/lease" {
			polls++
		}
		return polls == 2
	})
	stop()
	want := []string{
		"POST /v1/workers/register",
		"POST /v1/workers/lease",
		"POST /v1/workers/" + workerN(1) + "/complete",
		"POST /v1/workers/lease",
	}
	if !slices.Equal(f.seen, want) {
		t.Errorf("requests = %q\nwant       %q", f.seen, want)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.completed.LeaseID != "lease-1" || len(f.completed.Result) == 0 || f.completed.Error != "" {
		t.Errorf("upload = lease %q, %d result bytes, error %q; want lease-1 with a result",
			f.completed.LeaseID, len(f.completed.Result), f.completed.Error)
	}
}
