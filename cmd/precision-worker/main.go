// Command precision-worker is a fleet node: it registers with a precisiond
// coordinator, long-polls for lease grants, executes leased experiments
// through the deterministic runner, heartbeats while running, and uploads
// results. Placement never changes results (DESIGN.md §5): a worker
// computes exactly the bytes the daemon would have computed locally, and
// the coordinator admits an upload only if it round-trips the versioned
// spec hash.
//
// Usage:
//
//	precision-worker -coordinator http://127.0.0.1:7717
//	precision-worker -slots 2 -lanes 2          # two concurrent leases
//	precision-worker -apps clamr -modes min,mixed
//	precision-worker -read-addr 127.0.0.1:0     # serve /metrics for the fleet scrape
//	precision-worker -arch 'Tesla P100'         # energy/cost platform profile
//	precision-worker -drain-grace 60s           # SIGTERM drain deadline
//	precision-worker -faults 'worker.slow=x:4'  # act as a 4x straggler
//
// Observability (DESIGN.md §14): with -read-addr the worker serves its own
// Prometheus exposition at GET <read-addr>/metrics, which the coordinator
// scrapes on the heartbeat cadence and folds into GET /metrics/fleet.
// Each lease grant carries trace context (the job's trace ID plus the
// coordinator-side attempt span); the worker records its solver, per-phase
// and checkpoint spans under it, streams partial snapshots on heartbeats,
// and ships the final timeline beside the result upload — never inside the
// result payload, which stays the byte-identical deterministic document.
// The -arch profile (see internal/arch; default Haswell) is advertised at
// registration so the coordinator can price each completed job in joules
// and dollars from its deterministic counters.
//
// The worker holds no durable state. Kill it — even SIGKILL — and its
// leases expire at the coordinator after the lease TTL; the scheduler
// re-queues the jobs under their original IDs and another node picks them
// up.
//
// The first SIGINT/SIGTERM starts a graceful drain: lease polling stops,
// running leases finish (heartbeats continue so they are not expired),
// results upload, and the worker deregisters reporting how long the drain
// took — no work is lost and nothing is re-run. A second signal, or the
// -drain-grace deadline, hard-cancels the runs and deregisters
// immediately (the coordinator re-queues the leases on deregistration).
//
// Fault injection (armed via -faults or the shared PRECISIOND_FAULTS
// environment variable):
//
//	worker.heartbeat.drop  suppress outgoing heartbeats (partition sim)
//	worker.flap            same, for periodic e:<k> arming — the worker
//	                       looks intermittently unreachable
//	worker.slow            x:<factor>: inflate every run's wall time by
//	                       the factor — a straggler simulator that keeps
//	                       results bit-identical
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve/dispatch"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "http://127.0.0.1:7717", "precisiond base URL")
		name        = flag.String("name", "", "worker name advertised at registration (default: hostname)")
		slots       = flag.Int("slots", 1, "leases executed concurrently")
		lanes       = flag.Int("lanes", 0, "solver lanes per lease (default: GOMAXPROCS/slots)")
		apps        = flag.String("apps", "", "comma-separated app allowlist advertised to the coordinator (empty = all)")
		modes       = flag.String("modes", "", "comma-separated precision-mode allowlist (empty = all)")
		readAddr    = flag.String("read-addr", "", "serve this worker's /metrics, the coordinator's scrape target for GET /metrics/fleet, on this address (empty = off; use :0 for any free port)")
		archName    = flag.String("arch", "Haswell", "platform profile advertised for energy/cost accounting (see internal/arch; empty = none)")
		faults      = flag.String("faults", "", "arm fault-injection points, e.g. 'worker.heartbeat.drop=n:3'")
		drainGrace  = flag.Duration("drain-grace", 30*time.Second, "max time a graceful drain (first SIGINT/SIGTERM) waits for running leases before hard-cancelling")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "precision-worker:", err)
		os.Exit(1)
	}
	logger := obs.NewLogger(os.Stderr, level)
	fatal := func(err error) {
		logger.Error("fatal", obs.Str("error", err.Error()))
		os.Exit(1)
	}

	if *faults != "" {
		if err := fault.Arm(*faults); err != nil {
			fatal(err)
		}
	} else if err := fault.ArmFromEnv(); err != nil {
		fatal(err)
	}
	if fault.Enabled() {
		logger.Warn("fault injection ARMED")
	}

	if *slots < 1 {
		*slots = 1
	}
	if *lanes <= 0 {
		*lanes = runtime.GOMAXPROCS(0) / *slots
		if *lanes < 1 {
			*lanes = 1
		}
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	var archSpec *arch.Spec
	if *archName != "" {
		spec, err := arch.FindSpec(*archName)
		if err != nil {
			fatal(err)
		}
		archSpec = &spec
	}

	// Two-stage shutdown: the first signal cancels pollCtx (no new leases;
	// running ones finish and upload under continued heartbeats), the second
	// signal — or the drain grace expiring — cancels runCtx (hard-cancel).
	runCtx, hardStop := context.WithCancel(context.Background())
	defer hardStop()
	pollCtx, stopPolling := context.WithCancel(runCtx)
	defer stopPolling()
	ctx := pollCtx // registration stops at first signal

	var drainedAt atomic.Int64 // unix nanos of the first signal (0 = none)
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		drainedAt.Store(time.Now().UnixNano())
		logger.Info("drain started; finishing running leases",
			obs.Str("signal", sig.String()), obs.Str("grace", drainGrace.String()))
		stopPolling()
		select {
		case sig = <-sigCh:
			logger.Warn("second signal; hard-cancelling runs", obs.Str("signal", sig.String()))
		case <-time.After(*drainGrace):
			logger.Warn("drain grace expired; hard-cancelling runs")
		case <-runCtx.Done():
			return // all loops already exited
		}
		hardStop()
	}()

	w := &worker{
		base:  strings.TrimRight(*coordinator, "/"),
		name:  *name,
		lanes: *lanes,
		arch:  archSpec,
		caps: dispatch.Capabilities{
			Apps:       splitList(*apps),
			Modes:      splitList(*modes),
			Slots:      *slots,
			Lanes:      *lanes,
			GoMaxProcs: runtime.GOMAXPROCS(0),
		},
		hc:         &http.Client{Timeout: 0}, // long-polls; per-request bounds below
		log:        logger,
		leases:     make(map[string]*activeLease),
		registered: make(chan struct{}, 1),

		mLeases: obs.Default.CounterVec("precision_worker_leases_total",
			"Leases executed on this node, by outcome.", "outcome"),
		mRunDur: obs.Default.HistogramVec("precision_worker_run_seconds",
			"Lease execution wall time on this node.", obs.DurationBuckets, "app", "mode"),
		mHeartbeats: obs.Default.Counter("precision_worker_heartbeats_total",
			"Heartbeats sent to the coordinator."),
	}

	// The worker's own exposition, advertised at registration as the
	// coordinator's scrape target (DESIGN.md §14). Off unless asked.
	var metricsSrv *http.Server
	if *readAddr != "" {
		ln, err := net.Listen("tcp", *readAddr)
		if err != nil {
			fatal(err)
		}
		w.readAddr = "http://" + ln.Addr().String()
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", obs.Default.Handler())
		metricsSrv = &http.Server{Handler: mux}
		go metricsSrv.Serve(ln)
		logger.Info("metrics server up", obs.Str("addr", w.readAddr))
	}

	if err := w.register(ctx); err != nil {
		fatal(err)
	}
	// Printed unconditionally so scripts can pair PIDs with worker IDs.
	fmt.Printf("registered as %s with %s\n", w.workerID(), w.base)

	// Heartbeats outlive the poll context: a draining worker must keep
	// beating or the coordinator expires the leases it is trying to finish.
	hbCtx, stopHB := context.WithCancel(runCtx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() { defer hbWG.Done(); w.heartbeatLoop(hbCtx) }()

	var wg sync.WaitGroup
	for i := 0; i < *slots; i++ {
		wg.Add(1)
		go func(slot int) { defer wg.Done(); w.leaseLoop(pollCtx, runCtx, slot) }(i)
	}
	wg.Wait()
	stopHB()
	hbWG.Wait()

	// Graceful goodbye: deregistering requeues any leases the coordinator
	// still attributes to us, so their jobs go back on the board immediately.
	// A drained exit reports how long finishing the leases took.
	var drainSeconds float64
	if t := drainedAt.Load(); t != 0 {
		drainSeconds = time.Since(time.Unix(0, t)).Seconds()
	}
	dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if metricsSrv != nil {
		_ = metricsSrv.Shutdown(dctx)
	}
	if err := w.deregister(dctx, drainSeconds); err != nil {
		logger.Warn("deregister", obs.Str("error", err.Error()))
	} else {
		logger.Info("deregistered", obs.Str("worker", w.workerID()),
			obs.Str("drain", time.Duration(drainSeconds*float64(time.Second)).Round(time.Millisecond).String()))
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// worker is the node's coordinator client plus its table of running leases.
type worker struct {
	base     string
	name     string
	lanes    int
	arch     *arch.Spec // platform profile advertised for energy accounting
	caps     dispatch.Capabilities
	hc       *http.Client
	log      *obs.Logger
	readAddr string // advertised base URL of the /metrics listener

	mLeases     obs.CounterVec
	mRunDur     obs.HistogramVec
	mHeartbeats obs.Counter

	mu        sync.Mutex
	id        string
	leaseTTL  time.Duration
	heartbeat time.Duration
	pollWait  time.Duration
	leases    map[string]*activeLease

	// regMu serializes re-registration (see reregister); registered wakes
	// the heartbeat loop so a new cadence applies at once.
	regMu      sync.Mutex
	registered chan struct{}
}

// activeLease is one running grant: its cancel hook (fired when the
// coordinator reports the lease expired), the solver's progress, relayed
// on heartbeats, and the worker-side span timeline, streamed back as
// partial snapshots on heartbeats so long runs stitch incrementally.
type activeLease struct {
	cancel      context.CancelFunc
	step, total atomic.Int64
	trace       *obs.Trace
}

// ckptMeter observes the final-state checkpoint as the runner streams it
// through: total bytes and the first-to-last-write wall span (the
// serialization window, not the negligible time inside Write). It tees into
// the runner's own hasher path without perturbing the bytes, and is only
// read after the run returns — single writer, no locking.
type ckptMeter struct {
	bytes       int64
	first, last time.Time
}

func (c *ckptMeter) Write(p []byte) (int, error) {
	now := time.Now()
	if c.first.IsZero() {
		c.first = now
	}
	c.last = now
	c.bytes += int64(len(p))
	return len(p), nil
}

func (c *ckptMeter) totals() (int64, time.Duration) {
	return c.bytes, c.last.Sub(c.first)
}

func (w *worker) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// register announces the worker, retrying with backoff until the
// coordinator answers (it may still be booting) or ctx dies.
func (w *worker) register(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	for {
		err := w.registerOnce(ctx)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("register: %w", err)
		}
		w.log.Warn("register failed; retrying",
			obs.Str("coordinator", w.base), obs.Str("backoff", backoff.String()),
			obs.Str("error", err.Error()))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 3*time.Second {
			backoff = 3 * time.Second
		}
	}
}

func (w *worker) registerOnce(ctx context.Context) error {
	var resp dispatch.RegisterResponse
	// The full profile ships on every register — including the implicit
	// re-registers after a coordinator restart — so the fleet's view of
	// this node's capabilities and arch never goes stale.
	status, err := w.postJSON(ctx, "/v1/workers/register",
		dispatch.RegisterRequest{Name: w.name, Capabilities: w.caps, ReadAddr: w.readAddr, Arch: w.arch}, &resp, 5*time.Second)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("register: coordinator answered %d", status)
	}
	ttl, _ := time.ParseDuration(resp.LeaseTTL)
	hb, _ := time.ParseDuration(resp.Heartbeat)
	poll, _ := time.ParseDuration(resp.PollWait)
	if ttl <= 0 || hb <= 0 || poll <= 0 {
		return fmt.Errorf("register: malformed cadences %+v", resp)
	}
	w.mu.Lock()
	w.id = resp.WorkerID
	w.leaseTTL, w.heartbeat, w.pollWait = ttl, hb, poll
	w.mu.Unlock()
	select {
	case w.registered <- struct{}{}:
	default: // a wake-up is already pending
	}
	w.log.Info("registered",
		obs.Str("worker", resp.WorkerID), obs.Str("name", w.name),
		obs.Str("lease_ttl", ttl.String()), obs.Str("heartbeat", hb.String()))
	return nil
}

// reregister replaces the identity the coordinator forgot (it restarted).
// Every lease slot and the heartbeat loop sees its own 404 for the stale
// ID; the first caller registers, and the rest — whose 404 was for an ID
// that has meanwhile been replaced — just pick up the new one, so one
// restart registers this node once.
func (w *worker) reregister(ctx context.Context, stale string) error {
	w.regMu.Lock()
	defer w.regMu.Unlock()
	if w.workerID() != stale {
		return nil
	}
	w.log.Warn("coordinator forgot us; re-registering", obs.Str("worker", stale))
	return w.register(ctx)
}

func (w *worker) deregister(ctx context.Context, drainSeconds float64) error {
	id := w.workerID()
	if id == "" {
		return nil
	}
	status, err := w.postJSON(ctx, "/v1/workers/"+id+"/deregister",
		dispatch.DeregisterRequest{DrainSeconds: drainSeconds}, nil, 2*time.Second)
	if err != nil {
		return err
	}
	if status != http.StatusOK && status != http.StatusNotFound {
		return fmt.Errorf("deregister: coordinator answered %d", status)
	}
	return nil
}

// leaseLoop is one slot: long-poll for a grant, execute it, upload, repeat.
// Polling stops at pollCtx (graceful drain); a grant already held runs on
// runCtx so a drain lets it finish while a hard stop cancels it.
func (w *worker) leaseLoop(pollCtx, runCtx context.Context, slot int) {
	sl := w.log.With(obs.Str("slot", fmt.Sprint(slot)))
	for pollCtx.Err() == nil {
		grant, err := w.lease(pollCtx)
		if err != nil {
			if pollCtx.Err() != nil {
				return
			}
			sl.Warn("lease poll failed", obs.Str("error", err.Error()))
			select {
			case <-pollCtx.Done():
				return
			case <-time.After(500 * time.Millisecond):
			}
			continue
		}
		if grant == nil {
			continue // poll expired empty; re-poll
		}
		w.runLease(runCtx, sl, grant)
	}
}

// lease long-polls once. nil grant (no error) means an empty poll. A 404
// re-registers — the coordinator restarted and forgot us.
func (w *worker) lease(ctx context.Context) (*dispatch.LeaseGrant, error) {
	w.mu.Lock()
	id, poll := w.id, w.pollWait
	w.mu.Unlock()
	var grant dispatch.LeaseGrant
	status, err := w.postJSON(ctx, "/v1/workers/lease",
		dispatch.LeaseRequest{WorkerID: id, Wait: poll.String()}, &grant, poll+5*time.Second)
	switch {
	case err != nil:
		return nil, err
	case status == http.StatusNoContent:
		return nil, nil
	case status == http.StatusNotFound:
		return nil, w.reregister(ctx, id)
	case status != http.StatusOK:
		return nil, fmt.Errorf("lease: coordinator answered %d", status)
	}
	return &grant, nil
}

// runLease executes one grant and uploads its outcome. The run is cancelled
// if the coordinator reports the lease expired (a late upload would be
// rejected with 409 anyway — the job has been re-queued).
func (w *worker) runLease(ctx context.Context, sl *obs.Logger, g *dispatch.LeaseGrant) {
	ll := sl.With(obs.Str("lease", g.LeaseID), obs.Str("job", g.JobID))
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The worker-side timeline for this lease: rooted in the trace context
	// the grant carried, so the coordinator can stitch it under the job's
	// attempt span. Registered on the lease before the run starts so
	// heartbeats stream partial snapshots from the first beat.
	tr := obs.NewTrace(g.TraceID, "worker",
		obs.Str("worker", w.name), obs.Str("lease", g.LeaseID),
		obs.Str("parent_span", g.ParentSpan))
	al := &activeLease{cancel: cancel, trace: tr}
	w.mu.Lock()
	w.leases[g.LeaseID] = al
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.leases, g.LeaseID)
		w.mu.Unlock()
	}()

	ll.Info("lease granted",
		obs.Str("app", string(g.Spec.App)), obs.Str("mode", g.Spec.Mode),
		obs.Str("spec_hash", g.SpecHash), obs.Str("attempt", fmt.Sprint(g.Attempt)))
	started := time.Now()
	solve := tr.Root().Child("solve",
		obs.Str("app", string(g.Spec.App)), obs.Str("mode", g.Spec.Mode))
	var ckpt ckptMeter
	res, err := runner.Run(runCtx, g.Spec, runner.RunOpts{
		Workers:    w.lanes,
		Checkpoint: &ckpt,
		Progress: func(step, total int) {
			al.step.Store(int64(step))
			al.total.Store(int64(total))
		},
	})
	if err == nil {
		for _, p := range res.Phases {
			solve.AggregateChild("phase:"+p.Name, time.Duration(p.Seconds*float64(time.Second)))
		}
		solve.Annotate(obs.Str("outcome", "ok"))
	} else {
		solve.Annotate(obs.Str("outcome", "error"), obs.Str("error", err.Error()))
	}
	solve.End()
	if cb, cd := ckpt.totals(); cb > 0 {
		tr.Root().AggregateChild("checkpoint", cd,
			obs.Str("bytes", fmt.Sprint(cb)))
	}
	w.mRunDur.With(string(g.Spec.App), g.Spec.Mode).ObserveSince(started)
	if err == nil && fault.Hit("worker.slow") {
		// Straggler simulator: inflate the wall time after the run so the
		// result stays bit-identical — only the lease looks slow. x:<f>
		// stretches total time to f × the real duration.
		if factor, ok := fault.Param("worker.slow"); ok && factor > 1 {
			pad := time.Duration(float64(time.Since(started)) * (factor - 1))
			ll.Warn("run inflated (fault injection)",
				obs.Str("factor", fmt.Sprint(factor)), obs.Str("pad", pad.Round(time.Millisecond).String()))
			select {
			case <-runCtx.Done():
			case <-time.After(pad):
			}
		}
	}

	req := dispatch.CompleteRequest{LeaseID: g.LeaseID}
	if err != nil {
		req.Error = err.Error()
		req.ErrorKind = runner.Classify(err).String()
		ll.Warn("run failed", obs.Str("kind", req.ErrorKind), obs.Str("error", req.Error))
	} else {
		payload, merr := json.Marshal(res)
		if merr != nil {
			req.Error = fmt.Sprintf("marshal result: %v", merr)
			req.ErrorKind = runner.KindPermanent.String()
		} else {
			req.Result = payload
			ll.Info("run done",
				obs.Str("state", res.StateHash),
				obs.Str("wall", time.Since(started).Round(time.Millisecond).String()))
		}
	}
	outcome := "ok"
	if req.Error != "" {
		outcome = "error"
	}
	w.mLeases.With(outcome).Inc()
	// The final timeline travels beside the result, never inside it — the
	// uploaded payload stays the byte-identical deterministic document.
	tr.Root().Annotate(obs.Str("outcome", outcome))
	tr.Root().End()
	td := tr.Snapshot()
	req.Trace = &td
	if cerr := w.complete(ctx, req); cerr != nil {
		ll.Warn("completion not accepted", obs.Str("error", cerr.Error()))
	}
}

// complete uploads a terminal state with a small transport-level retry.
// 409 (lease expired; job re-queued elsewhere) and 422 (payload rejected)
// are final — the coordinator has already decided the attempt's fate.
func (w *worker) complete(ctx context.Context, req dispatch.CompleteRequest) error {
	id := w.workerID()
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				// Shutting down: one last try on a background context so a
				// finished result is not thrown away with the process.
			case <-time.After(time.Duration(attempt) * 200 * time.Millisecond):
			}
		}
		sendCtx := ctx
		if ctx.Err() != nil {
			var cancel context.CancelFunc
			sendCtx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
		}
		status, err := w.postJSON(sendCtx, "/v1/workers/"+id+"/complete", req, nil, 10*time.Second)
		switch {
		case err != nil:
			last = err
			continue
		case status == http.StatusOK:
			return nil
		case status == http.StatusConflict:
			return errors.New("lease expired before upload; the job was re-queued")
		case status == http.StatusUnprocessableEntity:
			return errors.New("coordinator rejected the payload")
		case status == http.StatusNotFound:
			return errors.New("coordinator no longer knows this worker")
		default:
			last = fmt.Errorf("coordinator answered %d", status)
		}
	}
	return fmt.Errorf("upload failed after retries: %w", last)
}

// heartbeatLoop reports all active leases at the coordinator's cadence and
// cancels runs whose leases the coordinator has expired. The fault point
// "worker.heartbeat.drop" suppresses sends — a partition simulator: the run
// continues while the coordinator's reaper expires the lease.
func (w *worker) heartbeatLoop(ctx context.Context) {
	cadence := func() time.Duration {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.heartbeat
	}
	t := time.NewTicker(cadence())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-w.registered:
			// A (re-)registration may have advertised a new cadence: beat
			// at it from now, not from the next tick of the old one.
			t.Reset(cadence())
			continue
		case <-t.C:
		}
		w.mu.Lock()
		id := w.id
		var hb dispatch.HeartbeatRequest
		held := make(map[string]*activeLease, len(w.leases))
		for lid, al := range w.leases {
			held[lid] = al
			lp := dispatch.LeaseProgress{
				LeaseID: lid, Step: al.step.Load(), Total: al.total.Load(),
			}
			if al.trace != nil {
				// Partial snapshot: long runs stream their spans so the
				// coordinator's stitched view grows while they execute.
				td := al.trace.Snapshot()
				lp.Trace = &td
			}
			hb.Leases = append(hb.Leases, lp)
		}
		w.mu.Unlock()
		if fault.Hit("worker.heartbeat.drop") {
			w.log.Warn("heartbeat dropped (fault injection)", obs.Str("worker", id))
			continue
		}
		if fault.Hit("worker.flap") {
			// Intermittent unreachability: armed e:<k>, every k-th beat is
			// swallowed, which the coordinator scores as a flap.
			w.log.Warn("heartbeat flapped (fault injection)", obs.Str("worker", id))
			continue
		}
		w.mHeartbeats.Inc()
		var resp dispatch.HeartbeatResponse
		status, err := w.postJSON(ctx, "/v1/workers/"+id+"/heartbeat", hb, &resp, 5*time.Second)
		if err != nil {
			if ctx.Err() == nil {
				w.log.Warn("heartbeat failed", obs.Str("error", err.Error()))
			}
			continue
		}
		if status == http.StatusNotFound {
			_ = w.reregister(ctx, id) // fails only when ctx died; the loop exits above
			continue
		}
		for _, lid := range resp.Expired {
			if al, ok := held[lid]; ok {
				w.log.Warn("lease expired by coordinator; cancelling run", obs.Str("lease", lid))
				al.cancel()
			}
		}
	}
}

// postJSON POSTs a JSON body and decodes a JSON reply into out (when
// non-nil and the reply has one). Returns the HTTP status.
func (w *worker) postJSON(ctx context.Context, path string, in, out any, timeout time.Duration) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s reply: %w", path, err)
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}
