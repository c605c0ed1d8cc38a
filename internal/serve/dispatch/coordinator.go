package dispatch

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runner"
)

// Capabilities is what a worker advertises at registration. Empty Apps or
// Modes means "everything"; the coordinator only offers a worker attempts
// its capabilities cover.
type Capabilities struct {
	Apps       []string `json:"apps,omitempty"`
	Modes      []string `json:"modes,omitempty"`
	Slots      int      `json:"slots"`
	Lanes      int      `json:"lanes,omitempty"`
	GoMaxProcs int      `json:"gomaxprocs,omitempty"`
}

func (c Capabilities) matches(spec runner.ExperimentSpec) bool {
	if len(c.Apps) > 0 && !slices.Contains(c.Apps, string(spec.App)) {
		return false
	}
	if len(c.Modes) > 0 && !slices.Contains(c.Modes, spec.Mode) {
		return false
	}
	return true
}

// Wire types shared between the coordinator and cmd/precision-worker.
// Durations travel as time.ParseDuration strings.
type (
	// RegisterRequest announces a worker. ReadAddr, when non-empty, is the
	// base URL of the worker's /metrics listener — the scrape target the
	// coordinator federates into GET /metrics/fleet (DESIGN.md §14).
	RegisterRequest struct {
		Name         string       `json:"name"`
		ReadAddr     string       `json:"read_addr,omitempty"`
		Capabilities Capabilities `json:"capabilities"`
		// Arch is the worker's platform profile (roofline peaks, TDP) —
		// the energy/cost accounting input. Workers re-send the full
		// profile on every register, so a coordinator restart cannot
		// leave a stale or empty profile behind.
		Arch *arch.Spec `json:"arch,omitempty"`
	}
	// RegisterResponse assigns the worker its identity and cadences.
	RegisterResponse struct {
		WorkerID  string `json:"worker_id"`
		LeaseTTL  string `json:"lease_ttl"`
		Heartbeat string `json:"heartbeat"`
		PollWait  string `json:"poll_wait"`
	}
	// LeaseRequest long-polls for work.
	LeaseRequest struct {
		WorkerID string `json:"worker_id"`
		Wait     string `json:"wait,omitempty"`
	}
	// LeaseGrant hands one attempt to a worker under a deadline. TraceID
	// and ParentSpan are the trace context: the worker records its own
	// spans under them and ships snapshots back, so the coordinator can
	// stitch the worker timeline under the job's attempt span.
	LeaseGrant struct {
		LeaseID    string                `json:"lease_id"`
		JobID      string                `json:"job_id"`
		Attempt    int64                 `json:"attempt"`
		Spec       runner.ExperimentSpec `json:"spec"`
		SpecHash   string                `json:"spec_hash"`
		Deadline   time.Time             `json:"deadline"`
		LeaseTTL   string                `json:"lease_ttl"`
		TraceID    string                `json:"trace_id,omitempty"`
		ParentSpan string                `json:"parent_span,omitempty"`
	}
	// HeartbeatRequest extends the worker's active leases and relays
	// per-lease solver progress.
	HeartbeatRequest struct {
		Leases []LeaseProgress `json:"leases"`
	}
	// LeaseProgress is one lease's progress report. Trace, when non-nil,
	// is a snapshot of the worker's span timeline for this lease so far —
	// long runs stream their solver spans incrementally; each snapshot
	// replaces the previous one.
	LeaseProgress struct {
		LeaseID string         `json:"lease_id"`
		Step    int64          `json:"step"`
		Total   int64          `json:"total"`
		Trace   *obs.TraceData `json:"trace,omitempty"`
	}
	// HeartbeatResponse lists leases the coordinator no longer honors; the
	// worker must cancel those runs.
	HeartbeatResponse struct {
		Expired []string `json:"expired,omitempty"`
	}
	// CompleteRequest uploads an attempt's terminal state: either the raw
	// runner.Result payload or an error with its classification.
	// Trace travels beside the Result, never inside it: the result
	// payload stays the byte-identical deterministic document, while the
	// worker's final span timeline rides the same upload.
	CompleteRequest struct {
		LeaseID   string          `json:"lease_id"`
		Result    json.RawMessage `json:"result,omitempty"`
		Error     string          `json:"error,omitempty"`
		ErrorKind string          `json:"error_kind,omitempty"`
		Trace     *obs.TraceData  `json:"trace,omitempty"`
	}
	// DeregisterRequest is the optional body of a deregister: a draining
	// worker reports how long its graceful wind-down took. Legacy workers
	// send no body.
	DeregisterRequest struct {
		DrainSeconds float64 `json:"drain_seconds,omitempty"`
	}
	// WorkerView is one worker's row in the fleet listing. Health is the
	// circuit-breaker state (healthy, probation, quarantined) and
	// HealthScore the EWMA badness behind it (0 = clean).
	WorkerView struct {
		ID           string       `json:"id"`
		Name         string       `json:"name"`
		ReadAddr     string       `json:"read_addr,omitempty"`
		Capabilities Capabilities `json:"capabilities"`
		// Arch names the worker's reported platform profile ("" when the
		// worker registered without one).
		Arch         string    `json:"arch,omitempty"`
		RegisteredAt time.Time `json:"registered_at"`
		LastSeenAgo  string    `json:"last_seen_ago"`
		ActiveLeases int       `json:"active_leases"`
		Leased       uint64    `json:"leased"`
		Completed    uint64    `json:"completed"`
		Expired      uint64    `json:"expired"`
		Health       string    `json:"health"`
		HealthScore  float64   `json:"health_score"`
		// MetricsAge is the age of the coordinator's last successful
		// /metrics scrape from this worker ("" when never scraped); a
		// scrape older than the staleness window is excluded from
		// GET /metrics/fleet.
		MetricsAge string `json:"metrics_age,omitempty"`
		// JoulesTotal / CostDollarsTotal accumulate the modeled energy and
		// cloud cost of every result this worker uploaded.
		JoulesTotal      float64 `json:"joules_total"`
		CostDollarsTotal float64 `json:"cost_dollars_total"`
	}
	// FleetView is the GET /v1/workers payload. ActiveLeases stays the
	// final field: smoke scripts anchor on it being last in the encoded
	// JSON.
	FleetView struct {
		Workers      []WorkerView `json:"workers"`
		ActiveLeases int          `json:"active_leases"`
	}
)

// CoordinatorConfig sizes the remote-fleet backend.
type CoordinatorConfig struct {
	// LeaseTTL is how long a lease lives without a heartbeat (default 15s).
	LeaseTTL time.Duration
	// Heartbeat is the cadence workers are told to report at (default
	// LeaseTTL/3).
	Heartbeat time.Duration
	// PollWait caps a lease long-poll (default 10s; a worker re-polls).
	PollWait time.Duration
	// VerifyN > 0 dispatches every Nth remotely-leased attempt to a second
	// executor and admits the result only if the final-state hashes are
	// bit-identical — the paper's determinism claim checked across nodes.
	VerifyN int
	// VerifyWait bounds how long a verification attempt may wait for a
	// second executor before it is skipped (default 4×LeaseTTL).
	VerifyWait time.Duration
	// WorkerTTL prunes workers unseen this long with no active leases
	// (default 4×LeaseTTL).
	WorkerTTL time.Duration
	// HedgeBudget > 0 enables hedged re-dispatch: the fraction of total
	// fleet slots that may run duplicate attempts concurrently (always at
	// least one when enabled). 0 disables hedging.
	HedgeBudget float64
	// HedgeAfter floors the hedge deadline: a lease never hedges before
	// running this long, even when the shape's p99 is lower (default
	// LeaseTTL/2).
	HedgeAfter time.Duration
	// ProbeAfter is how long a quarantined worker waits before its
	// half-open probe lease (default 2×LeaseTTL).
	ProbeAfter time.Duration
	// HedgeRecord, when non-nil, is invoked once per hedged pair whose
	// both completions landed: match reports whether the state hashes were
	// bit-identical. The daemon wires it to the job journal.
	HedgeRecord func(jobID, specHash, stateHash, winner, loser string, match bool)
	// Obs, when non-nil, registers the fleet instruments.
	Obs *obs.Registry
	// Log, when non-nil, receives fleet log records.
	Log *obs.Logger
}

// Coordinator is the remote-fleet Backend: workers register over HTTP,
// long-poll for leases, heartbeat while running, and upload results. A
// lease whose deadline lapses is expired by the reaper and the attempt
// finishes with ErrLeaseExpired — the scheduler re-queues the job under its
// original ID, so a SIGKILL'd worker loses nothing. Uploads are admitted
// only if the payload round-trips the versioned spec hash.
//
// Fault points: "dispatch.lease.expire" force-expires a heartbeated lease,
// "dispatch.upload" corrupts an uploaded payload before verification.
type Coordinator struct {
	cfg CoordinatorConfig
	log *obs.Logger
	d   *Dispatcher

	leaseEvents obs.CounterVec // label: event
	heartbeats  obs.Counter
	verifyCtr   obs.CounterVec // label: outcome
	hedgeCtr    obs.CounterVec // label: outcome
	drainHist   *obs.Histogram

	runCtx context.Context

	hp healthParams

	mu            sync.Mutex
	workers       map[string]*workerState
	leases        map[string]*lease
	lat           map[string]*latRing // per-shape completion latencies
	hedgeInflight int
	nextWorker    uint64
	nextLease     uint64
	// profiles remembers each worker name's last reported arch/capability
	// fingerprint across registrations (it survives worker pruning —
	// worker IDs are fresh per register, names are the stable identity),
	// so a profile that silently changes between registrations is logged.
	profiles map[string]string
}

type workerState struct {
	id           string
	name         string
	readAddr     string
	caps         Capabilities
	arch         *arch.Spec
	registeredAt time.Time
	lastSeen     time.Time
	active       map[string]*lease
	health       *workerHealth

	tally [numTallies]uint64 // leased / completed / expired, moved by the lease table

	// scrape is the last successfully parsed /metrics scrape and when it
	// landed; a stale scrape ages out of the fleet merge but is kept for
	// the per-worker view.
	scrape    *obs.ParsedMetrics
	scrapedAt time.Time
	// joules / costDollars accumulate modeled energy and cost over every
	// result this worker uploaded.
	joules      float64
	costDollars float64
}

type lease struct {
	id       string
	worker   *workerState
	a        *Attempt
	granted  time.Time
	deadline time.Time
	verify   bool
	// probe marks a half-open lease granted to a quarantined worker; its
	// outcome settles the readmission decision.
	probe bool
	// hedge, once set, is the scoreboard shared with the duplicate
	// attempt the straggler defense fired for this lease.
	hedge *hedgeState
}

// NewCoordinator builds the fleet backend and registers it with d.
func NewCoordinator(d *Dispatcher, cfg CoordinatorConfig) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = cfg.LeaseTTL / 3
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 10 * time.Second
	}
	if cfg.VerifyWait <= 0 {
		cfg.VerifyWait = 4 * cfg.LeaseTTL
	}
	if cfg.WorkerTTL <= 0 {
		cfg.WorkerTTL = 4 * cfg.LeaseTTL
	}
	if cfg.HedgeAfter <= 0 {
		cfg.HedgeAfter = cfg.LeaseTTL / 2
	}
	hp := defaultHealthParams(cfg.LeaseTTL)
	if cfg.ProbeAfter > 0 {
		hp.probeAfter = cfg.ProbeAfter
	}
	co := &Coordinator{
		cfg:      cfg,
		log:      cfg.Log,
		d:        d,
		runCtx:   context.Background(), // until Start
		hp:       hp,
		workers:  make(map[string]*workerState),
		leases:   make(map[string]*lease),
		lat:      make(map[string]*latRing),
		profiles: make(map[string]string),
	}
	if cfg.Obs != nil {
		co.leaseEvents = cfg.Obs.CounterVec("dispatch_leases_total",
			"Lease lifecycle events: granted, completed, rejected_corrupt, rejected_late, expired, requeued_drain, cancelled.", "event")
		co.heartbeats = cfg.Obs.Counter("dispatch_heartbeats_total",
			"Heartbeats received from remote workers.")
		co.verifyCtr = cfg.Obs.CounterVec("dispatch_verify_total",
			"Cross-node verification attempts by outcome (match, mismatch, skipped).", "outcome")
		co.hedgeCtr = cfg.Obs.CounterVec("precisiond_hedges_total",
			"Hedged re-dispatch events: fired, won, lost, skipped, verified, mismatch.", "outcome")
		co.drainHist = cfg.Obs.Histogram("precisiond_worker_drain_seconds",
			"Graceful drain duration reported by deregistering workers.", obs.DurationBuckets)
		cfg.Obs.Collect(co.collect)
	}
	d.Register(co)
	return co
}

// Name implements Backend.
func (co *Coordinator) Name() string { return "fleet" }

// Start implements Backend: the lease reaper. Worker traffic arrives over
// the HTTP handlers, mounted by internal/serve/api.
func (co *Coordinator) Start(ctx context.Context, d *Dispatcher) {
	co.runCtx = ctx
	every := func(interval time.Duration, fn func()) {
		d.Go(func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					fn()
				}
			}
		})
	}
	every(min(max(co.cfg.LeaseTTL/8, 10*time.Millisecond), time.Second), func() { co.reap(time.Now()) })
	every(co.cfg.Heartbeat, func() { co.scrapeWorkers(ctx) })
}

// scrapeTimeout bounds one worker /metrics fetch: a wedged worker costs
// one short stall on its own scrape slot, never the whole sweep.
const scrapeTimeout = 2 * time.Second

// scrapeWorkers pulls /metrics from every worker that advertises a read
// listener, on the heartbeat cadence. Scrapes run outside co.mu (a slow
// worker must not wedge lease traffic); a failed or unparseable scrape
// keeps the previous sample, which then ages out of the fleet merge after
// the staleness window.
func (co *Coordinator) scrapeWorkers(ctx context.Context) {
	co.mu.Lock()
	targets := make(map[string]string, len(co.workers)) // worker ID → scrape URL
	for id, ws := range co.workers {
		if ws.readAddr != "" {
			targets[id] = ws.readAddr + "/metrics"
		}
	}
	co.mu.Unlock()
	for id, url := range targets {
		pm, err := co.scrapeOne(ctx, url)
		if err != nil {
			co.log.Debug("worker metrics scrape failed",
				obs.Str("worker", id), obs.Str("url", url), obs.Str("err", err.Error()))
			continue
		}
		now := time.Now()
		co.mu.Lock()
		if ws, ok := co.workers[id]; ok {
			ws.scrape = pm
			ws.scrapedAt = now
		}
		co.mu.Unlock()
	}
}

func (co *Coordinator) scrapeOne(ctx context.Context, url string) (*obs.ParsedMetrics, error) {
	ctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return obs.ParsePrometheus(resp.Body)
}

// HandleFleetMetrics implements GET /metrics/fleet: the merged view of
// every fresh worker scrape, series summed by (name, labels). Past WorkerTTL
// a worker's last scrape no longer contributes, so a flapping worker's
// numbers fade instead of freezing into the aggregate forever.
func (co *Coordinator) HandleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	co.mu.Lock()
	scrapes := make([]*obs.ParsedMetrics, 0, len(co.workers))
	for _, ws := range co.workers {
		if ws.scrape != nil && now.Sub(ws.scrapedAt) <= co.cfg.WorkerTTL {
			scrapes = append(scrapes, ws.scrape)
		}
	}
	co.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("X-Fleet-Workers", fmt.Sprint(len(scrapes)))
	_ = obs.Federate(w, scrapes)
}

// reap expires overdue leases and prunes long-unseen idle workers.
func (co *Coordinator) reap(now time.Time) {
	co.mu.Lock()
	var overdue []*lease
	for _, l := range co.leases {
		if now.After(l.deadline) {
			overdue = append(overdue, l)
		}
	}
	var pruned []*workerState
	for id, w := range co.workers {
		if len(w.active) == 0 && now.Sub(w.lastSeen) > co.cfg.WorkerTTL {
			delete(co.workers, id)
			pruned = append(pruned, w)
		}
	}
	co.mu.Unlock()
	for _, l := range overdue {
		co.settle(l.id, leExpired, Outcome{Err: fmt.Errorf("worker %s missed heartbeats for lease %s (job %s): %w",
			l.worker.id, l.id, l.a.JobID, ErrLeaseExpired)})
	}
	for _, w := range pruned {
		co.d.ClearWorkerScore(w.id)
		co.log.Info("pruned unresponsive worker",
			obs.Str("worker", w.id), obs.Str("name", w.name),
			obs.Str("unseen", now.Sub(w.lastSeen).Round(time.Millisecond).String()))
	}
	co.maybeHedge(now)
}

// HealthyCapacity is the slot count of workers currently eligible for
// leases (healthy or probation). Campaign admission sheds load against it
// so a quarantine-shrunk fleet is not buried under bulk work.
func (co *Coordinator) HealthyCapacity() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	n := 0
	for _, ws := range co.workers {
		if ws.health.state != HealthQuarantined {
			n += ws.caps.Slots
		}
	}
	return n
}

// HandleRegister implements POST /v1/workers/register.
func (co *Coordinator) HandleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decode register request: %v", err)
		return
	}
	if req.Capabilities.Slots <= 0 {
		req.Capabilities.Slots = 1
	}
	now := time.Now()
	co.mu.Lock()
	co.nextWorker++
	ws := &workerState{
		id:           fmt.Sprintf("worker-%03d", co.nextWorker),
		name:         req.Name,
		readAddr:     strings.TrimRight(req.ReadAddr, "/"),
		caps:         req.Capabilities,
		arch:         req.Arch,
		registeredAt: now,
		lastSeen:     now,
		active:       make(map[string]*lease),
		health:       newWorkerHealth(co.hp, now),
	}
	if ws.name == "" {
		ws.name = ws.id
	}
	// Worker IDs are fresh per registration; the name is the stable
	// identity. Compare the full reported profile against the last one
	// this name registered with — a change means the box under the name
	// is not what it was (different hardware, edited flags), which the
	// energy model and capability matcher both care about.
	fp := profileFingerprint(req.Capabilities, req.Arch)
	prev, seen := co.profiles[ws.name]
	co.profiles[ws.name] = fp
	co.workers[ws.id] = ws
	co.mu.Unlock()
	// Energy tie-break input: modeled joules per slot from the arch profile
	// (TDP spread across the advertised slots). Among capability-equal idle
	// workers the board then leases to the cheapest one first; a worker
	// registering without a profile simply stays unscored.
	if req.Arch != nil && req.Arch.TDPWatts > 0 {
		co.d.SetWorkerScore(ws.id, req.Arch.TDPWatts/float64(ws.caps.Slots))
	}
	if seen && prev != fp {
		co.log.Warn("worker profile changed between registrations",
			obs.Str("worker", ws.id), obs.Str("name", ws.name),
			obs.Str("previous", prev), obs.Str("current", fp))
	}
	archName := ""
	if req.Arch != nil {
		archName = req.Arch.Name
	}
	co.log.Info("worker registered",
		obs.Str("worker", ws.id), obs.Str("name", ws.name),
		obs.Str("slots", fmt.Sprint(ws.caps.Slots)),
		obs.Str("apps", fmt.Sprint(ws.caps.Apps)),
		obs.Str("modes", fmt.Sprint(ws.caps.Modes)),
		obs.Str("arch", archName))
	writeJSON(w, http.StatusOK, RegisterResponse{
		WorkerID:  ws.id,
		LeaseTTL:  co.cfg.LeaseTTL.String(),
		Heartbeat: co.cfg.Heartbeat.String(),
		PollWait:  co.cfg.PollWait.String(),
	})
}

// profileFingerprint canonicalizes a worker's reported capabilities + arch
// profile for change detection across registrations.
func profileFingerprint(caps Capabilities, spec *arch.Spec) string {
	b, _ := json.Marshal(struct {
		Caps Capabilities `json:"caps"`
		Arch *arch.Spec   `json:"arch,omitempty"`
	}{caps, spec})
	return string(b)
}

// HandleLease implements POST /v1/workers/lease: long-poll for one attempt
// the worker's capabilities cover. 204 when nothing matched within the
// wait; 404 for an unknown worker (it must re-register).
func (co *Coordinator) HandleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decode lease request: %v", err)
		return
	}
	pollStart := time.Now()
	co.mu.Lock()
	ws, ok := co.workers[req.WorkerID]
	var probe, admit bool
	if ok {
		ws.lastSeen = pollStart
		probe, admit = ws.health.admissible(pollStart)
		if probe {
			ws.health.beginProbe()
		}
	}
	co.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown worker %q", req.WorkerID)
		return
	}
	wait := co.cfg.PollWait
	if req.Wait != "" {
		if d, err := time.ParseDuration(req.Wait); err == nil && d > 0 && d < wait {
			wait = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	var a *Attempt
	if admit {
		a = co.d.Take(ctx, co.Name(), ws.id, func(a *Attempt) bool {
			return !a.LocalOnly && a.ExcludeWorker != ws.id && ws.caps.matches(a.Spec)
		})
	} else {
		// Quarantined with no probe window open: hold the long-poll so the
		// worker doesn't hot-loop, then send it away empty.
		<-ctx.Done()
	}
	if a == nil {
		if probe {
			co.mu.Lock()
			ws.health.probeAborted(time.Now())
			co.mu.Unlock()
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}

	now := time.Now()
	co.mu.Lock()
	if _, still := co.workers[ws.id]; !still {
		// Deregistered while polling: hand the attempt back to the board
		// via the expiry path so the scheduler re-queues it.
		co.mu.Unlock()
		a.finish(Outcome{Err: fmt.Errorf("worker %s deregistered before the grant: %w", ws.id, ErrLeaseExpired)})
		httpError(w, http.StatusNotFound, "unknown worker %q", ws.id)
		return
	}
	co.nextLease++
	l := &lease{
		id:       fmt.Sprintf("lease-%06d", co.nextLease),
		worker:   ws,
		a:        a,
		granted:  now,
		deadline: now.Add(co.cfg.LeaseTTL),
		verify:   co.cfg.VerifyN > 0 && !a.shadow && co.nextLease%uint64(co.cfg.VerifyN) == 0,
		probe:    probe,
	}
	co.leases[l.id] = l
	ws.active[l.id] = l
	ws.count(leGranted)
	co.mu.Unlock()
	// The attempt's own context dying (job timeout, shutdown, an autotune
	// probe giving up) is not the worker's doing: cancelled, not expired.
	a.setCancelLease(func(cause error) { co.settle(l.id, leCancelled, Outcome{Err: cause}) })
	co.note(leGranted,
		obs.Str("lease", l.id), obs.Str("worker", ws.id), obs.Str("job", a.JobID),
		obs.Str("mode", a.Spec.Mode), obs.Str("verify", fmt.Sprint(l.verify)))
	writeJSON(w, http.StatusOK, LeaseGrant{
		LeaseID:    l.id,
		JobID:      a.JobID,
		Attempt:    a.N,
		Spec:       a.Spec,
		SpecHash:   a.Hash(),
		Deadline:   l.deadline,
		LeaseTTL:   co.cfg.LeaseTTL.String(),
		TraceID:    a.JobID,
		ParentSpan: fmt.Sprintf("attempt-%d", a.N),
	})
}

// HandleHeartbeat implements POST /v1/workers/{id}/heartbeat: refreshes the
// worker's lease deadlines, relays solver progress, and reports leases the
// coordinator has already expired so the worker cancels those runs.
func (co *Coordinator) HandleHeartbeat(w http.ResponseWriter, r *http.Request) {
	wid := r.PathValue("id")
	var req HeartbeatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decode heartbeat: %v", err)
		return
	}
	now := time.Now()
	var resp HeartbeatResponse
	var deliver []func() // progress and trace relays, run outside co.mu
	var injected []string
	co.mu.Lock()
	ws, ok := co.workers[wid]
	if !ok {
		co.mu.Unlock()
		httpError(w, http.StatusNotFound, "unknown worker %q", wid)
		return
	}
	ws.health.beat(now.Sub(ws.lastSeen), co.cfg.Heartbeat, now)
	ws.lastSeen = now
	for _, hb := range req.Leases {
		l, ok := co.leases[hb.LeaseID]
		if !ok || l.worker != ws {
			resp.Expired = append(resp.Expired, hb.LeaseID)
			continue
		}
		if fault.Hit("dispatch.lease.expire") {
			injected = append(injected, hb.LeaseID)
			resp.Expired = append(resp.Expired, hb.LeaseID)
			continue
		}
		l.deadline = now.Add(co.cfg.LeaseTTL)
		if a := l.a; a.Progress != nil {
			deliver = append(deliver, func() { a.Progress(int(hb.Step), int(hb.Total)) })
		}
		if a := l.a; a.OnWorkerTrace != nil && hb.Trace != nil {
			deliver = append(deliver, func() { a.OnWorkerTrace(wid, *hb.Trace, 0) })
		}
	}
	co.mu.Unlock()
	co.heartbeats.Inc()
	for _, id := range injected {
		co.settle(id, leExpired, Outcome{Err: fmt.Errorf("fault dispatch.lease.expire tripped: %w", ErrLeaseExpired)})
	}
	for _, fn := range deliver {
		fn()
	}
	writeJSON(w, http.StatusOK, resp)
}

// HandleComplete implements POST /v1/workers/{id}/complete. A completion
// for an expired or unknown lease is rejected with 409 (the job was
// re-queued; admitting the upload would run it to completion twice), and a
// payload that does not round-trip the versioned spec hash is rejected with
// 422 and the attempt retried.
func (co *Coordinator) HandleComplete(w http.ResponseWriter, r *http.Request) {
	wid := r.PathValue("id")
	var req CompleteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decode completion: %v", err)
		return
	}
	now := time.Now()
	co.mu.Lock()
	ws, ok := co.workers[wid]
	if !ok {
		co.mu.Unlock()
		httpError(w, http.StatusNotFound, "unknown worker %q", wid)
		return
	}
	ws.lastSeen = now
	l, ok := co.leases[req.LeaseID]
	if ok = ok && l.worker == ws; ok {
		// The upload is proof of life: the reaper must not expire the lease
		// while its payload is being checked outside the lock.
		l.deadline = now.Add(co.cfg.LeaseTTL)
	}
	co.mu.Unlock()

	ev, o := leRejectedLate, Outcome{}
	var rejected error
	if ok {
		a := l.a
		// Graft the worker's final span timeline under the attempt before it
		// finishes: after that the scheduler may snapshot the job trace at
		// any moment.
		if a.OnWorkerTrace != nil && req.Trace != nil {
			a.OnWorkerTrace(ws.id, *req.Trace, len(req.Result))
		}
		if req.Error != "" {
			ev = leRunError
			o.Err = &runner.Error{Kind: runner.ParseKind(req.ErrorKind), Op: "remote run on " + ws.id, Err: errors.New(req.Error)}
		} else {
			payload := []byte(req.Result)
			if fault.Hit("dispatch.upload") && len(payload) > 0 {
				payload = payload[:len(payload)/2] // torn upload
			}
			ev = leCompleted
			if o.Res, rejected = validateUpload(payload, a.Hash()); rejected != nil {
				ev = leRejectedCorrupt
				o.Err = &runner.Error{Kind: runner.KindTransient, Op: "verify upload from " + ws.id, Err: rejected}
			}
		}
		if !co.settle(l.id, ev, o) {
			ev = leRejectedLate // settled some other way while the payload was checked
		}
	}
	switch ev {
	case leRejectedLate:
		co.note(leRejectedLate, obs.Str("lease", req.LeaseID), obs.Str("worker", wid))
		httpError(w, http.StatusConflict, "lease %q is not active (expired or unknown); result discarded", req.LeaseID)
	case leRejectedCorrupt:
		httpError(w, http.StatusUnprocessableEntity, "result rejected: %v", rejected)
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}
}

// validateUpload parses an uploaded result and checks it round-trips the
// lease's versioned spec hash: the payload's spec re-normalizes and
// re-hashes to exactly the hash the work was leased under, and the runner's
// own recorded SpecHash agrees. Anything else is a corrupt or mismatched
// upload.
func validateUpload(payload []byte, wantHash string) (*runner.Result, error) {
	var res runner.Result
	if err := json.Unmarshal(payload, &res); err != nil {
		return nil, fmt.Errorf("payload does not parse: %w", err)
	}
	n, err := res.Spec.Normalized()
	if err != nil {
		return nil, fmt.Errorf("payload spec invalid: %w", err)
	}
	h, err := n.Hash()
	if err != nil {
		return nil, fmt.Errorf("payload spec unhashable: %w", err)
	}
	if h != wantHash {
		return nil, fmt.Errorf("payload spec hash %s does not round-trip lease hash %s", h, wantHash)
	}
	if res.SpecHash != wantHash {
		return nil, fmt.Errorf("result records spec hash %s, lease granted %s", res.SpecHash, wantHash)
	}
	if res.StateHash == "" {
		return nil, errors.New("result carries no final-state hash")
	}
	return &res, nil
}

// newShadow builds a coordinator-spawned attempt — a second opinion, an
// autotune probe or a hedge duplicate — barred from worker exclude. Shadows
// are never themselves sampled for verification or hedged.
func newShadow(jobID string, spec runner.ExperimentSpec, n int64, exclude string) *Attempt {
	return &Attempt{JobID: jobID, Spec: spec, N: n, ExcludeWorker: exclude, shadow: true}
}

// Second-opinion verdicts: the dispatch_verify_total{outcome} labels.
const (
	verifyMatch    = "match"
	verifyMismatch = "mismatch"
	verifySkipped  = "skipped"
)

// secondOpinion runs a's spec again on an executor other than the one that
// produced first, a's result, and compares the two final-state hashes — the
// paper's determinism claim, checked across nodes. It counts and logs the
// verdict; what a verdict means is the caller's business. No second
// executor before ctx dies is skipped, not failed.
func (co *Coordinator) secondOpinion(ctx context.Context, a *Attempt, first Outcome) (verdict string, second Outcome) {
	second = co.d.Do(ctx, newShadow(a.JobID, a.Spec, a.N, first.Worker))
	attrs := []obs.Attr{obs.Str("job", a.JobID), obs.Str("mode", a.Spec.Mode),
		obs.Str("first", first.Backend+"/"+first.Worker), obs.Str("first_state", first.Res.StateHash),
		obs.Str("second", second.Backend+"/"+second.Worker)}
	switch {
	case second.Err != nil || second.Res == nil:
		co.verifyCtr.With(verifySkipped).Inc()
		co.log.Warn("second opinion skipped", append(attrs, obs.Str("cause", fmt.Sprint(second.Err)))...)
		return verifySkipped, second
	case second.Res.StateHash == first.Res.StateHash:
		co.verifyCtr.With(verifyMatch).Inc()
		co.log.Debug("second opinion matched", attrs...)
		return verifyMatch, second
	default:
		co.verifyCtr.With(verifyMismatch).Inc()
		co.log.Error("second opinion diverged", append(attrs, obs.Str("second_state", second.Res.StateHash))...)
		return verifyMismatch, second
	}
}

// crossCheck is the -verify-n path: a sampled attempt's first result is
// admitted unless a second executor found within VerifyWait disagrees with
// it, which fails the job permanently.
func (co *Coordinator) crossCheck(a *Attempt, first Outcome) {
	co.d.Go(func() {
		ctx, cancel := context.WithTimeout(co.runCtx, co.cfg.VerifyWait)
		defer cancel()
		if verdict, second := co.secondOpinion(ctx, a, first); verdict == verifyMismatch {
			first.Err = &runner.Error{Kind: runner.KindPermanent, Op: "cross-node verification",
				Err: fmt.Errorf("state hash divergence: %s on %s vs %s on %s/%s",
					first.Res.StateHash, first.Worker, second.Res.StateHash, second.Backend, second.Worker)}
			first.Res = nil
		}
		a.finish(first)
	})
}

// VerifyDemotion executes spec once and takes a second opinion on it,
// reporting the primary result and whether the two final-state hashes were
// bit-identical — the gate internal/serve/autotune requires before
// committing a precision demotion. The second opinion excludes only the
// remote worker that ran the primary: when a remote worker ran it, any
// other backend — another worker or a local lane — may take the shadow;
// when a local lane ran it there is no worker to exclude, so on a node
// with local lanes the shadow may re-run on the same backend, which checks
// run-to-run determinism rather than cross-node agreement. ctx bounds the
// whole probe; a probe that finds no second executor in time returns the
// primary result unverified (verified=false, err=nil), never an error —
// the demotion is simply not committed.
func (co *Coordinator) VerifyDemotion(ctx context.Context, spec runner.ExperimentSpec) (*runner.Result, bool, error) {
	probe := newShadow("autotune-probe", spec, 1, "")
	first := co.d.Do(ctx, probe)
	if first.Err != nil {
		return nil, false, first.Err
	}
	if first.Res == nil || first.Res.StateHash == "" {
		return nil, false, errors.New("dispatch: demotion probe returned no final-state hash")
	}
	verdict, _ := co.secondOpinion(ctx, probe, first)
	return first.Res, verdict == verifyMatch, nil
}

// HandleDeregister implements POST /v1/workers/{id}/deregister: a graceful
// goodbye. Any leases the worker still holds are requeued synchronously —
// their attempts finish with ErrLeaseExpired before the response goes out,
// so the scheduler re-posts the jobs under their original IDs immediately
// instead of waiting for the TTL reaper. A draining worker reports its
// wind-down time in the optional body; deliberate handback is not a health
// event, so no expiry penalty is scored.
func (co *Coordinator) HandleDeregister(w http.ResponseWriter, r *http.Request) {
	wid := r.PathValue("id")
	var req DeregisterRequest
	_ = json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req) // body optional
	co.mu.Lock()
	ws, ok := co.workers[wid]
	if !ok {
		co.mu.Unlock()
		httpError(w, http.StatusNotFound, "unknown worker %q", wid)
		return
	}
	delete(co.workers, wid)
	var held []string
	for id := range ws.active {
		held = append(held, id)
	}
	co.mu.Unlock()
	for _, id := range held {
		co.settle(id, leRequeuedDrain, Outcome{Err: fmt.Errorf("worker %s deregistered: %w", wid, ErrLeaseExpired)})
	}
	co.d.ClearWorkerScore(wid)
	if req.DrainSeconds > 0 {
		co.drainHist.Observe(req.DrainSeconds)
	}
	co.log.Info("worker deregistered",
		obs.Str("worker", wid), obs.Str("name", ws.name),
		obs.Str("requeued", fmt.Sprint(len(held))),
		obs.Str("drain_seconds", fmt.Sprintf("%.3f", req.DrainSeconds)))
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// HandleList implements GET /v1/workers: the fleet view.
func (co *Coordinator) HandleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, co.view(time.Now()))
}

// view snapshots the fleet, workers sorted by ID.
func (co *Coordinator) view(now time.Time) FleetView {
	co.mu.Lock()
	view := FleetView{Workers: make([]WorkerView, 0, len(co.workers))}
	for _, ws := range co.workers {
		wv := WorkerView{
			ID:               ws.id,
			Name:             ws.name,
			ReadAddr:         ws.readAddr,
			Capabilities:     ws.caps,
			RegisteredAt:     ws.registeredAt,
			LastSeenAgo:      now.Sub(ws.lastSeen).Round(time.Millisecond).String(),
			ActiveLeases:     len(ws.active),
			Leased:           ws.tally[tallyLeased],
			Completed:        ws.tally[tallyCompleted],
			Expired:          ws.tally[tallyExpired],
			Health:           string(ws.health.state),
			HealthScore:      roundScore(ws.health.score),
			JoulesTotal:      ws.joules,
			CostDollarsTotal: ws.costDollars,
		}
		if ws.arch != nil {
			wv.Arch = ws.arch.Name
		}
		if ws.scrape != nil {
			wv.MetricsAge = now.Sub(ws.scrapedAt).Round(time.Millisecond).String()
		}
		view.Workers = append(view.Workers, wv)
		view.ActiveLeases += len(ws.active)
	}
	co.mu.Unlock()
	slices.SortFunc(view.Workers, func(a, b WorkerView) int { return cmp.Compare(a.ID, b.ID) })
	return view
}

// collect is the coordinator's scrape-time collector: the fleet gauges are
// read off the same snapshot GET /v1/workers serves, so the two cannot
// disagree and a departed worker's series goes with it. Active leases sum
// per worker name — the stable identity; a re-registered worker briefly has
// two IDs under one name.
func (co *Coordinator) collect(emit func(obs.Sample)) {
	gauge := func(name, help string, v int, labelPairs ...string) {
		emit(obs.Sample{Name: name, Help: help, Type: "gauge", Value: float64(v), LabelPairs: labelPairs})
	}
	view := co.view(time.Now())
	gauge("dispatch_workers_registered",
		"Remote workers currently registered with the coordinator.", len(view.Workers))
	var names []string
	leases := map[string]int{}
	states := map[HealthState]int{}
	for _, wv := range view.Workers {
		if _, seen := leases[wv.Name]; !seen {
			names = append(names, wv.Name)
		}
		leases[wv.Name] += wv.ActiveLeases
		states[HealthState(wv.Health)]++
	}
	for _, name := range names {
		gauge("dispatch_worker_active_leases", "Active leases per remote worker.", leases[name], "worker", name)
	}
	for _, state := range []HealthState{HealthHealthy, HealthProbation, HealthQuarantined} {
		gauge("precisiond_worker_health", "Registered workers by circuit-breaker state.", states[state], "state", string(state))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
