package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve/cache"
	"repro/internal/serve/queue"
)

// lockedBuf is a log sink the test can read while watchers still write.
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// rowRig is one journaled, cached, instrumented scheduler + manager life;
// boot again for the next life over the same journal and cache, the way a
// restarted daemon does.
type rowRig struct {
	t       *testing.T
	dir     string
	cache   *cache.Cache
	journal *queue.Journal
	reg     *obs.Registry
	logs    *lockedBuf
	sched   *queue.Scheduler
	m       *Manager
	resumed int
	cancel  context.CancelFunc
}

func newRowRig(t *testing.T) *rowRig {
	t.Helper()
	dir := t.TempDir()
	c, err := cache.Open(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	r := &rowRig{t: t, dir: dir, cache: c}
	t.Cleanup(r.stop)
	return r
}

func (r *rowRig) journalPath() string { return filepath.Join(r.dir, "journal.ndjson") }

// boot opens the journal and recovers a scheduler and a manager over it,
// with a fresh registry and log. The scheduler always runs; the campaign
// pump only when pump is set, so a test can hold a campaign at "live,
// nothing expanded".
func (r *rowRig) boot(run queue.RunFunc, pump bool) {
	r.t.Helper()
	j, err := queue.OpenJournal(r.journalPath())
	if err != nil {
		r.t.Fatal(err)
	}
	r.journal, r.reg, r.logs = j, obs.NewRegistry(), &lockedBuf{}
	r.sched = queue.New(queue.Config{Workers: 1, QueueDepth: 16, Cache: r.cache, Journal: j, Run: run})
	if _, _, err := r.sched.Recover(); err != nil {
		r.t.Fatal(err)
	}
	r.m = New(Config{Sched: r.sched, Journal: j, Slots: 2, Obs: r.reg, Log: obs.NewLogger(r.logs, obs.LevelInfo)})
	if r.resumed, err = r.m.Recover(); err != nil {
		r.t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	r.sched.Start(ctx)
	if pump {
		r.m.Start(ctx)
	}
}

// stop ends the current life without terminal records for whatever is
// still live — the crash the journal exists for.
func (r *rowRig) stop() {
	if r.cancel == nil {
		return
	}
	r.cancel()
	r.sched.Wait()
	r.m.Wait()
	r.journal.Close()
	r.cancel = nil
}

func (r *rowRig) submit(spec Spec) *Campaign {
	r.t.Helper()
	c, err := r.m.Submit(spec)
	if err != nil {
		r.t.Fatal(err)
	}
	return c
}

// records returns the journal record types written for one campaign, in
// order (in a later life: the compacted campaign record first). Cursor
// records are left out: they are progress marks, not table rows, and whether
// a one-index campaign gets one depends on how fast its job finishes.
func (r *rowRig) records(id string) []string {
	r.t.Helper()
	f, err := os.Open(r.journalPath())
	if err != nil {
		r.t.Fatal(err)
	}
	defer f.Close()
	var types []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		var rec struct {
			Type       string `json:"type"`
			CampaignID string `json:"campaign_id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			r.t.Fatalf("journal line %q: %v", sc.Text(), err)
		}
		if rec.CampaignID == id && rec.Type != "campaign_cursor" {
			types = append(types, rec.Type)
		}
	}
	return types
}

// scrape renders reg into series → value.
func scrape(t *testing.T, reg *obs.Registry) map[string]int64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, line := range strings.Split(b.String(), "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseInt(value, 10, 64); err == nil {
			out[series] = v
		}
	}
	return out
}

// counted returns the non-zero children of one labelled counter family,
// keyed by label value.
func counted(t *testing.T, reg *obs.Registry, family, label string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	prefix := family + "{" + label + `="`
	for series, v := range scrape(t, reg) {
		if rest, ok := strings.CutPrefix(series, prefix); ok && v != 0 {
			out[strings.TrimSuffix(rest, `"}`)] = v
		}
	}
	return out
}

// checkBooks asserts the accounting invariant on a quiescent manager: every
// campaign that completed is fully expanded, drained and accounted for, no
// admission slot is held, and the three gauges equal the snapshot they are
// views of.
func checkBooks(t *testing.T, m *Manager) {
	t.Helper()
	for _, id := range m.order {
		c := m.camps[id]
		v := c.View(true)
		a := v.Aggregates
		c.mu.Lock()
		next := c.next
		c.mu.Unlock()
		if a.Running != 0 {
			t.Errorf("%s: running = %d on a quiescent manager", id, a.Running)
		}
		if a.Expanded != next || int64(len(v.Jobs)) != next {
			t.Errorf("%s: expanded %d, %d job refs, next %d", id, a.Expanded, len(v.Jobs), next)
		}
		if v.Status != StatusCompleted {
			continue
		}
		if a.Expanded != a.Total || a.Completed+a.Failed != a.Total {
			t.Errorf("%s: completed with expanded=%d completed=%d failed=%d of total %d",
				id, a.Expanded, a.Completed, a.Failed, a.Total)
		}
	}
	l := m.load()
	if l.inflight != 0 {
		t.Errorf("inflight = %d on a quiescent manager", l.inflight)
	}
	if m.cfg.Obs == nil {
		return
	}
	got := scrape(t, m.cfg.Obs)
	for series, want := range map[string]int64{
		"precisiond_campaigns_active":  l.active,
		"precisiond_campaign_inflight": l.inflight,
		"precisiond_campaign_backlog":  l.backlog,
	} {
		if v, ok := got[series]; !ok || v != want {
			t.Errorf("%s = %d (present=%v), snapshot says %d", series, v, ok, want)
		}
	}
}

func okRun(ctx context.Context, req queue.RunRequest) (*runner.Result, error) {
	h, err := req.Spec.Hash()
	if err != nil {
		return nil, err
	}
	return &runner.Result{Spec: req.Spec, SpecHash: h, Steps: req.Spec.Steps, StateHash: "st-" + h[:16]}, nil
}

func failRun(ctx context.Context, req queue.RunRequest) (*runner.Result, error) {
	return nil, errors.New("no such physics")
}

// blockRun never finishes on its own: it ends with its context.
func blockRun(ctx context.Context, req queue.RunRequest) (*runner.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func TestCampaignEventRows(t *testing.T) {
	const first = "camp-000001"
	one := stepsGrid("t", 1, 9001, 1)
	cases := []struct {
		name string
		ev   campEvent
		// drive raises the row once and returns the ID it was raised for.
		drive    func(t *testing.T, r *rowRig) string
		events   map[string]int64 // every non-zero precisiond_campaigns_total series, this life
		records  []string         // the campaign's journal record types, in order
		status   Status           // "" = the campaign does not exist in this life
		finished bool             // Done is closed
		torn     bool             // the row was vetoed, yet its record may replay
	}{
		{name: "submitted", ev: ceSubmitted,
			drive: func(t *testing.T, r *rowRig) string {
				r.boot(okRun, false)
				return r.submit(one).ID()
			},
			events: map[string]int64{"submitted": 1}, records: []string{"campaign"}, status: StatusRunning},
		{name: "submitted vetoed by its journal append", ev: ceSubmitted,
			drive: func(t *testing.T, r *rowRig) string {
				r.boot(okRun, false)
				if err := fault.Arm("journal.sync=n:1"); err != nil {
					t.Fatal(err)
				}
				defer fault.Disarm()
				if _, err := r.m.Submit(one); !errors.Is(err, fault.ErrInjected) {
					t.Fatalf("submit under a failing journal = %v, want ErrInjected", err)
				}
				if c, err := r.m.Submit(one); err != nil || c.ID() == first {
					t.Fatalf("submit after the veto = %v, %v; want the next number", c, err)
				}
				return first
			},
			// The campaign was never acknowledged, though its record reached
			// the file before the fsync failed, as any torn append may.
			events: map[string]int64{"submitted": 1}, records: []string{"campaign"}, torn: true},
		{name: "rejected", ev: ceRejected,
			drive: func(t *testing.T, r *rowRig) string {
				r.boot(okRun, false)
				if _, err := r.m.Submit(stepsGrid("t", 5000, 9001, 1)); err == nil {
					t.Fatal("weight 5000 admitted")
				}
				r.m.cfg.Budget = 1
				if _, err := r.m.Submit(stepsGrid("t", 1, 9001, 2)); !errors.Is(err, ErrBudget) {
					t.Fatalf("2 jobs over a budget of 1 = %v, want ErrBudget", err)
				}
				return first
			},
			events: map[string]int64{"rejected": 2}},
		{name: "recovered", ev: ceRecovered,
			drive: func(t *testing.T, r *rowRig) string {
				r.boot(okRun, false)
				id := r.submit(one).ID()
				r.stop()
				r.boot(okRun, false)
				if r.resumed != 1 {
					t.Fatalf("resumed %d campaigns, want 1", r.resumed)
				}
				return id
			},
			events: map[string]int64{"recovered": 1}, records: []string{"campaign"}, status: StatusRunning},
		{name: "recovery_invalid", ev: ceRecoveryInvalid,
			drive: func(t *testing.T, r *rowRig) string {
				r.boot(okRun, false)
				if err := r.journal.CampaignSubmitted(first, []byte(`{"generator":{"kind":"from-a-newer-build"}}`), 2); err != nil {
					t.Fatal(err)
				}
				r.stop()
				r.boot(okRun, false)
				if r.resumed != 0 {
					t.Fatalf("resumed %d campaigns, want 0", r.resumed)
				}
				return first
			},
			events: map[string]int64{}, records: []string{"campaign", "campaign_failed"}},
		{name: "cancelled", ev: ceCancelled,
			drive: func(t *testing.T, r *rowRig) string {
				r.boot(okRun, false)
				id := r.submit(one).ID()
				for range 2 { // the second is a no-op: one row per campaign end
					if v, err := r.m.Cancel(id); err != nil || v.Status != StatusCancelled || v.Error != "cancelled" {
						t.Fatalf("cancel = %+v, %v", v, err)
					}
				}
				return id
			},
			events:  map[string]int64{"submitted": 1, "cancelled": 1},
			records: []string{"campaign", "campaign_failed"}, status: StatusCancelled, finished: true},
		{name: "completed", ev: ceCompleted,
			drive: func(t *testing.T, r *rowRig) string {
				r.boot(okRun, true)
				c := r.submit(one)
				waitCampaign(t, c)
				if c.Aggregates().ResultDigest == "" {
					t.Error("completed without a result digest")
				}
				return c.ID()
			},
			events:  map[string]int64{"submitted": 1, "completed": 1},
			records: []string{"campaign", "campaign_done"}, status: StatusCompleted, finished: true},
	}
	driven := map[campEvent]bool{}
	for _, tc := range cases {
		driven[tc.ev] = true
		t.Run(tc.name, func(t *testing.T) {
			r := newRowRig(t)
			id := tc.drive(t, r)
			row := campRows[tc.ev]

			if got := counted(t, r.reg, "precisiond_campaigns_total", "event"); !reflect.DeepEqual(got, tc.events) {
				t.Errorf("precisiond_campaigns_total = %v, want %v", got, tc.events)
			}
			if row.event != "" && tc.events[row.event] == 0 {
				t.Errorf("case does not expect its own row's label %q", row.event)
			}
			c, live := r.m.Get(id)
			if live != (tc.status != "") {
				t.Fatalf("campaign registered = %v, want %v", live, tc.status != "")
			}
			if live {
				if got := c.View(false).Status; got != tc.status || got != row.next {
					t.Errorf("status = %q, want %q (row says %q)", got, tc.status, row.next)
				}
				select {
				case <-c.Done():
					if !tc.finished {
						t.Error("Done closed on a live campaign")
					}
				default:
					if tc.finished {
						t.Error("Done not closed")
					}
				}
			}
			logged := strings.Contains(r.logs.String(), `msg="`+row.msg+`" sub=campaign campaign=`+id)
			if want := row.msg != "" && (live || tc.ev == ceRecoveryInvalid); logged != want {
				t.Errorf("log line %q for %s present = %v, want %v:\n%s", row.msg, id, logged, want, r.logs.String())
			}

			// What the journal holds, by closing it and reading it back: the
			// record types in order, and whether the next life owes the
			// campaign a resumption.
			r.stop()
			if got := r.records(id); !reflect.DeepEqual(got, tc.records) {
				t.Errorf("journal records = %v, want %v", got, tc.records)
			}
			if n := len(tc.records); n > 0 && row.record != "" && live && tc.records[n-1] != row.record {
				t.Errorf("last record %q is not the row's %q", tc.records[n-1], row.record)
			}
			r.boot(okRun, false)
			_, resumed := r.m.Get(id)
			if want := tc.status == StatusRunning || tc.torn; resumed != want {
				t.Errorf("next life resumes the campaign = %v, want %v", resumed, want)
			}
			checkBooks(t, r.m)
		})
	}
	for ev := campEvent(0); ev < numCampEvents; ev++ {
		if !driven[ev] {
			t.Errorf("campaign-event row %d has no case", ev)
		}
	}
}

func TestIndexOutcomeRows(t *testing.T) {
	one := stepsGrid("t", 1, 9101, 1)
	axis := func(field string, values ...any) Spec {
		return Spec{Generator: GeneratorSpec{Kind: KindGrid, Base: clamrBase(10), Axes: []Axis{{Field: field, Values: values}}}}
	}
	cases := []struct {
		name string
		out  outcome
		// drive settles the row once and returns its campaign, quiescent.
		drive    func(t *testing.T, r *rowRig) *Campaign
		outcomes map[string]int64 // every non-zero precisiond_campaign_jobs_total series, this life
		want     Aggregates       // the count fields; Total == len(refs)
		ref      JobRef           // the row's ref: Index, Status, flags
		status   Status
	}{
		{name: "invalid: index does not decode", out: ioInvalid,
			drive: func(t *testing.T, r *rowRig) *Campaign {
				r.boot(okRun, true)
				c := r.submit(axis("steps", 10, 1.5))
				waitCampaign(t, c)
				return c
			},
			outcomes: map[string]int64{"admitted": 1, "completed": 1, "invalid": 1},
			want:     Aggregates{Total: 2, Expanded: 2, Admitted: 1, Completed: 1, Failed: 1},
			ref:      JobRef{Index: 1, Status: "invalid"}, status: StatusCompleted},
		{name: "invalid: scheduler refuses the spec", out: ioInvalid,
			drive: func(t *testing.T, r *rowRig) *Campaign {
				r.boot(okRun, true)
				c := r.submit(axis("mode", "full", "no-such-mode"))
				waitCampaign(t, c)
				return c
			},
			outcomes: map[string]int64{"admitted": 1, "completed": 1, "invalid": 1},
			want:     Aggregates{Total: 2, Expanded: 2, Admitted: 1, Completed: 1, Failed: 1},
			ref:      JobRef{Index: 1, Status: "invalid"}, status: StatusCompleted},
		{name: "admitted", out: ioAdmitted,
			drive: func(t *testing.T, r *rowRig) *Campaign {
				r.boot(blockRun, true)
				c := r.submit(one)
				waitFor(t, "the admission", func() bool { return c.Aggregates().Admitted == 1 })
				if a := c.Aggregates(); a.Running != 1 || r.m.load().inflight != 1 {
					t.Errorf("admitted job holds no slot: running=%d inflight=%d", a.Running, r.m.load().inflight)
				}
				return c
			},
			outcomes: map[string]int64{"admitted": 1},
			want:     Aggregates{Total: 1, Expanded: 1, Admitted: 1, Running: 1},
			ref:      JobRef{Index: 0}, status: StatusRunning}, // its status is the job's own
		{name: "deduped", out: ioDeduped,
			drive: func(t *testing.T, r *rowRig) *Campaign {
				r.boot(okRun, true)
				waitCampaign(t, r.submit(one))
				c := r.submit(one)
				waitCampaign(t, c)
				return c
			},
			outcomes: map[string]int64{"admitted": 1, "deduped": 1, "completed": 2},
			want:     Aggregates{Total: 1, Expanded: 1, Admitted: 1, Completed: 1, Deduped: 1},
			ref:      JobRef{Index: 0, Status: "done", Deduped: true}, status: StatusCompleted},
		{name: "recovered", out: ioRecovered,
			drive: func(t *testing.T, r *rowRig) *Campaign {
				r.boot(blockRun, true)
				c := r.submit(one)
				waitFor(t, "the admission", func() bool { return c.Aggregates().Admitted == 1 })
				r.stop()
				r.boot(okRun, true)
				c, ok := r.m.Get(c.ID())
				if !ok {
					t.Fatal("campaign not resumed")
				}
				waitCampaign(t, c)
				return c
			},
			outcomes: map[string]int64{"recovered": 1, "completed": 1},
			want:     Aggregates{Total: 1, Expanded: 1, Admitted: 1, Completed: 1, Recovered: 1},
			ref:      JobRef{Index: 0, Status: "done", Recovered: true}, status: StatusCompleted},
		{name: "completed", out: ioCompleted,
			drive: func(t *testing.T, r *rowRig) *Campaign {
				r.boot(okRun, true)
				c := r.submit(one)
				waitCampaign(t, c)
				return c
			},
			outcomes: map[string]int64{"admitted": 1, "completed": 1},
			want:     Aggregates{Total: 1, Expanded: 1, Admitted: 1, Completed: 1},
			ref:      JobRef{Index: 0, Status: "done"}, status: StatusCompleted},
		{name: "failed", out: ioFailed,
			drive: func(t *testing.T, r *rowRig) *Campaign {
				r.boot(failRun, true)
				c := r.submit(one)
				waitCampaign(t, c)
				return c
			},
			outcomes: map[string]int64{"admitted": 1, "failed": 1},
			want:     Aggregates{Total: 1, Expanded: 1, Admitted: 1, Failed: 1},
			ref:      JobRef{Index: 0, Status: "failed"}, status: StatusCompleted},
		{name: "deferred", out: ioDeferred,
			drive: func(t *testing.T, r *rowRig) *Campaign {
				r.boot(blockRun, true)
				c := r.submit(one)
				waitFor(t, "the admission", func() bool { return c.Aggregates().Admitted == 1 })
				r.cancel()
				r.sched.Wait()
				r.m.Wait()
				return c
			},
			// Uncounted, and not held against the campaign: it stays live,
			// its slot comes back, the next life re-runs the index.
			outcomes: map[string]int64{"admitted": 1},
			want:     Aggregates{Total: 1, Expanded: 1, Admitted: 1},
			ref:      JobRef{Index: 0, Status: "queued"}, status: StatusRunning},
	}
	driven := map[outcome]bool{}
	for _, tc := range cases {
		driven[tc.out] = true
		t.Run(tc.name, func(t *testing.T) {
			r := newRowRig(t)
			c := tc.drive(t, r)
			row := outcomeRows[tc.out]

			if got := counted(t, r.reg, "precisiond_campaign_jobs_total", "outcome"); !reflect.DeepEqual(got, tc.outcomes) {
				t.Errorf("precisiond_campaign_jobs_total = %v, want %v", got, tc.outcomes)
			}
			if row.outcome != "" && tc.outcomes[row.outcome] == 0 {
				t.Errorf("case does not expect its own row's label %q", row.outcome)
			}
			v := c.View(true)
			if v.Status != tc.status {
				t.Errorf("campaign status = %q, want %q", v.Status, tc.status)
			}
			got := v.Aggregates
			got.PerMode, got.ResultDigest = nil, ""
			if tc.out == ioRecovered {
				// Whether the re-admission met the recovered job in flight or
				// its result already cached is a race the flag reports.
				got.Deduped = 0
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("aggregates = %+v, want %+v", got, tc.want)
			}
			if int64(len(v.Jobs)) != tc.want.Total {
				t.Fatalf("job refs = %d, want %d", len(v.Jobs), tc.want.Total)
			}
			ref := v.Jobs[tc.ref.Index]
			if ref.Index != tc.ref.Index || ref.Recovered != tc.ref.Recovered ||
				tc.ref.Status != "" && ref.Status != tc.ref.Status ||
				tc.out != ioRecovered && ref.Deduped != tc.ref.Deduped {
				t.Errorf("ref = %+v, want index/status/flags of %+v", ref, tc.ref)
			}
			if row.status != "" && ref.Status != row.status {
				t.Errorf("ref status %q is not the row's %q", ref.Status, row.status)
			}
			if (ref.StateHash != "") != (tc.out != ioInvalid && ref.Status == "done") {
				t.Errorf("ref state hash %q on status %q", ref.StateHash, ref.Status)
			}
			if failed := tc.out == ioInvalid || tc.out == ioFailed; (ref.Error != "") != failed {
				t.Errorf("ref error %q, want one = %v", ref.Error, failed)
			}
			// The fold the row names ran under the index's submitted mode.
			mode := v.Aggregates.PerMode["full"]
			switch {
			case tc.out == ioInvalid && len(v.Aggregates.PerMode) != 1:
				t.Errorf("invalid index folded into per_mode: %+v", v.Aggregates.PerMode)
			case mode == nil || mode.Jobs != tc.want.Admitted || mode.Completed != tc.want.Completed || mode.Failed != tc.outcomes["failed"]:
				t.Errorf("per_mode[full] = %+v against %+v", mode, tc.want)
			}
			if tc.want.Running == 0 {
				checkBooks(t, r.m)
			}
		})
	}
	for out := outcome(0); out < numOutcomes; out++ {
		if !driven[out] {
			t.Errorf("index-outcome row %d has no case", out)
		}
	}
}

// Concurrent submissions each reserve their own campaign number: N submits
// yield N distinct IDs, and the journal owes the next life N campaigns.
func TestConcurrentSubmitsGetDistinctIDs(t *testing.T) {
	const n = 16
	r := newRowRig(t)
	r.boot(okRun, false)
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := r.m.Submit(stepsGrid("t", 1, 9201+i, 1))
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = c.ID()
		}()
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("campaign ID %s handed out twice", id)
		}
		seen[id] = true
	}
	if got := len(r.m.List()); got != n {
		t.Errorf("manager lists %d campaigns, want %d", got, n)
	}
	r.stop()
	r.boot(okRun, false)
	if r.resumed != n {
		t.Errorf("next life resumes %d campaigns, want %d", r.resumed, n)
	}
	for _, id := range ids {
		if _, ok := r.m.Get(id); !ok {
			t.Errorf("campaign %s lost across the restart", id)
		}
	}
	if next := r.journal.NextCampaignNum(); next != n+1 {
		t.Errorf("next campaign number = %d, want %d", next, n+1)
	}
}
