package queue

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/serve/dispatch"
)

// TestFleetJobTimeoutDoesNotBlameWorker: a job that overruns its own budget
// while a worker holds its lease fails timed_out, and the lease settles as
// cancelled — the worker is not scored, not counted as an expiry, and stays
// healthy; its late upload is still refused.
func TestFleetJobTimeoutDoesNotBlameWorker(t *testing.T) {
	h := newFleetHarness(t,
		Config{DisableLocal: true, Retry: fastRetry},
		dispatch.CoordinatorConfig{LeaseTTL: 10 * time.Second, PollWait: 150 * time.Millisecond})
	w := h.registerWorker(t, "innocent")

	job, err := h.sched.SubmitOpts(testSpec(6), SubmitOptions{Timeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	g := w.leaseUntilGrant(2 * time.Second)
	if g.JobID != job.ID {
		t.Fatalf("grant is job %s, want %s", g.JobID, job.ID)
	}
	waitDone(t, job)
	if v := job.Snapshot(); v.Status != StatusFailed {
		t.Fatalf("job = %+v, want failed", v)
	}
	if st := h.sched.Stats(); st.TimedOut != 1 || st.Requeued != 0 {
		t.Fatalf("stats = %+v, want timed_out=1 requeued=0", st)
	}

	view := h.listWorkers(t)
	if len(view.Workers) != 1 || view.ActiveLeases != 0 {
		t.Fatalf("fleet = %+v, want the one worker holding no lease", view)
	}
	if wv := view.Workers[0]; wv.Health != string(dispatch.HealthHealthy) || wv.HealthScore != 0 || wv.Expired != 0 {
		t.Fatalf("worker = %+v, want healthy, score 0, expired 0", wv)
	}
	if expired := w.heartbeat(dispatch.LeaseProgress{LeaseID: g.LeaseID}); len(expired) != 1 {
		t.Fatalf("heartbeat reported %v, want the cancelled lease so the worker stops the run", expired)
	}
	if status := w.complete(g.LeaseID, runPayload(t, g.Spec)); status != http.StatusConflict {
		t.Fatalf("late upload = %d, want 409", status)
	}
}
