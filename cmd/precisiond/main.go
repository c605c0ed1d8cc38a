// Command precisiond serves the repository's experiments over HTTP: a job
// queue with singleflight deduplication, a worker-limited scheduler, and a
// content-addressed on-disk result cache. Submitting the same experiment
// twice — across clients, sweeps or daemon restarts — costs one computation.
//
// Usage:
//
//	precisiond                          # listen on 127.0.0.1:7717
//	precisiond -addr :0                 # any free port (printed on stdout)
//	precisiond -cache /var/tmp/pcache   # persistent cache location
//	precisiond -workers 4 -queue-depth 128
//	precisiond -journal /var/tmp/precisiond.journal \
//	           -ckpt-dir /var/tmp/pckpt -ckpt-every 25
//	precisiond -log-level debug -debug-addr 127.0.0.1:7719
//	precisiond -lease-ttl 15s -verify-n 8     # tune the worker fleet
//	precisiond -workers 0                     # fleet-only: all work leased
//	precisiond -hedge-budget 0.15 -hedge-after 2s  # straggler hedging
//	precisiond -hot-bytes 134217728           # size the in-memory read tier
//	precisiond -campaign-budget 1000000 -campaign-slots 16
//	precisiond -arch 'Tesla P100'             # local energy/cost profile
//	precisiond -trace-export /tmp/traces      # Chrome trace_event dumps
//	precisiond -autotune-warm 5               # slower precision demotion
//
// The daemon is also the coordinator of a distributed worker fleet
// (DESIGN.md §9): cmd/precision-worker nodes register under /v1/workers,
// long-poll for lease grants off the same job board the local workers
// drain, heartbeat while running, and upload results. A lease whose worker
// goes silent for -lease-ttl expires and its job is re-queued under the
// original ID — a SIGKILL'd worker loses nothing. -verify-n N re-runs every
// Nth remotely-leased attempt on a second executor and admits the result
// only if both final-state hashes are bit-identical. -workers 0 turns off
// local execution entirely: the daemon only coordinates.
//
// Fleet health (DESIGN.md §13): every lease outcome feeds a per-worker
// EWMA circuit breaker (healthy → probation → quarantined, half-open
// probes to readmit); quarantined workers stop winning leases but keep
// heartbeating. GET /v1/workers reports each worker's breaker state and
// score. With -hedge-budget > 0 the coordinator re-dispatches a lease
// that outlives max(per-shape p99, -hedge-after) to a second worker —
// first result wins, a both-landed pair is hash-checked and journaled as
// a hedge_verified audit record. A job whose run fails with the same
// error kind on two distinct executors is parked as poisoned (released
// via DELETE /v1/jobs/{id}) instead of bouncing across the fleet.
//
// Campaigns (DESIGN.md §12) make parameter sweeps a server-side workload:
// POST /v1/campaigns takes a generator spec (grid, Monte Carlo ensemble or
// precision ladder) that the daemon expands lazily — weighted-fair across
// tenants, deduped against the cache before admission, journaled so a
// half-expanded campaign resumes after a crash under its original ID.
// -campaign-budget bounds the total estimated expansion (429 over it),
// -campaign-slots the in-flight fan-out, and -campaign-reserve holds queue
// slots campaigns may not occupy so interactive POST /v1/jobs stays
// responsive while a million-job campaign drains.
//
// Precision autotuning (DESIGN.md §15) closes the loop the escalation
// policy opened: a spec submitted with mode "auto" plus accuracy budgets
// (max_mass_error, max_linecut_linf) is resolved at admission to the
// cheapest concrete precision mode the fleet's accumulated evidence shows
// meets the budgets. A shape is tuned once an auto submission names it
// (concrete-only shapes are never probed); it starts at full, and after
// -autotune-warm clean results of that shape, auto or concrete, the daemon
// probes one rung down, commits the demotion only if a shadow run on a
// second executor reproduces it bit-identically and its measured fidelity
// fits the requesting budgets, and reverts (with hysteresis) on any later
// numerical escalation. The learned table is journaled with the WAL,
// recovered on restart, and readable at GET /v1/autotune; job views report
// the resolved tuned_mode and the modeled joules/dollars saved against the
// full-precision baseline.
//
// Result reads go through the tiered read path (DESIGN.md §11): an
// in-memory hot tier of pre-serialized payloads (-hot-bytes, 0 disables),
// ETag/If-None-Match revalidation on the result endpoints, and below them
// the digest-verified disk store.
//
// With -journal, every accepted job is write-ahead journaled before it is
// acknowledged; after a crash (even SIGKILL) the daemon replays unfinished
// jobs on startup, resuming started ones from their latest periodic
// checkpoint when -ckpt-dir is set. -job-timeout bounds each execution
// attempt; jobs whose precision rung trips a numerical guard are retried
// one rung up automatically (DESIGN.md §7).
//
// Observability (DESIGN.md §8, §14): the daemon logs structured key=value
// lines to stderr at -log-level and serves Prometheus metrics at
// GET /metrics on the API address. Every job records a span timeline
// readable at GET /v1/jobs/{id}/trace (and embedded in the result
// payload); remotely-executed attempts stitch the worker's own solver,
// phase and checkpoint spans under the job's attempt span, so the timeline
// is one coherent cross-node view (?format=chrome renders it as Chrome
// trace_event JSON, and -trace-export dumps the same per completed job).
// The coordinator scrapes each worker's /metrics on the heartbeat cadence
// and serves the summed fleet exposition at GET /metrics/fleet. Completed
// jobs are priced in modeled joules and dollars — the executing worker's
// registered arch profile (or this node's -arch for local runs) applied to
// the run's deterministic counters — surfacing as span attributes, the
// precisiond_job_joules_total / precisiond_job_cost_dollars_total metrics,
// and per-campaign $/experiment aggregates. -debug-addr opens a second,
// loopback-only listener serving net/http/pprof — profiling stays off the
// API surface and off by default.
//
// Fault injection for chaos testing is armed via -faults or the
// PRECISIOND_FAULTS environment variable, e.g.
// 'cache.put=p:0.1,journal.sync=n:3' (see internal/fault); armed points
// report their hit/trip counts on /metrics.
//
// The daemon prints "listening on <host:port>" once the socket is open and
// shuts down gracefully on SIGINT/SIGTERM: in-flight jobs are cancelled
// between solver steps, queued jobs are failed so waiting clients unblock
// (journaled jobs are replayed on the next start), and the cache (atomic
// writes only) is left consistent.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve/api"
	"repro/internal/serve/autotune"
	"repro/internal/serve/cache"
	"repro/internal/serve/campaign"
	"repro/internal/serve/dispatch"
	"repro/internal/serve/queue"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7717", "listen address (use :0 for any free port)")
		cacheDir     = flag.String("cache", "precision-cache", "result cache directory (created if needed)")
		hotBytes     = flag.Int64("hot-bytes", 64<<20, "in-memory hot tier byte cap for cached result payloads (0 = disabled)")
		workers      = flag.Int("workers", 2, "jobs executing concurrently on this node (0 = fleet-only; all work leased to remote workers)")
		queueDepth   = flag.Int("queue-depth", 64, "pending-job queue bound")
		lanes        = flag.Int("lanes", runtime.GOMAXPROCS(0), "total solver lanes divided among workers")
		journalPath  = flag.String("journal", "", "write-ahead job journal file (empty = no crash durability)")
		ckptDir      = flag.String("ckpt-dir", "", "periodic mid-run checkpoint directory (empty = resume from scratch)")
		ckptEvery    = flag.Int("ckpt-every", 25, "solver steps between periodic checkpoints (with -ckpt-dir)")
		jobTimeout   = flag.Duration("job-timeout", 0, "per-attempt deadline for every job (0 = none; clients may set ?timeout=)")
		grace        = flag.Duration("grace", 2*time.Second, "how long a cancelled run may linger before its lane is reclaimed")
		leaseTTL     = flag.Duration("lease-ttl", 15*time.Second, "how long a remote worker's lease survives without a heartbeat")
		heartbeat    = flag.Duration("heartbeat", 0, "heartbeat cadence advertised to workers (0 = lease-ttl/3)")
		verifyN      = flag.Int("verify-n", 0, "re-run every Nth remotely-leased attempt on a second executor and require bit-identical state hashes (0 = off)")
		hedgeBudget  = flag.Float64("hedge-budget", 0, "straggler hedging: max concurrent hedged duplicates as a fraction of total fleet slots (0 = off)")
		hedgeAfter   = flag.Duration("hedge-after", 0, "floor on how long a lease runs before a hedge may fire; the per-shape p99 raises it (0 = lease-ttl/2)")
		campBudget   = flag.Int64("campaign-budget", 1<<20, "cap on total estimated campaign expansion (new campaign + live remainders); over-budget submissions get 429")
		campSlots    = flag.Int("campaign-slots", 16, "campaign jobs concurrently in flight across all campaigns")
		campReserve  = flag.Int("campaign-reserve", -1, "queue slots held for interactive POST /v1/jobs that campaign expansion may not occupy (-1 = queue-depth/4)")
		archName     = flag.String("arch", "Haswell", "platform profile pricing locally-executed jobs in joules/dollars (see internal/arch; empty = no local energy accounting)")
		autotuneWarm = flag.Int("autotune-warm", 3, "clean results per scenario shape before the autotuner probes one precision rung down (shadow-verified)")
		traceExport  = flag.String("trace-export", "", "dump every completed job's stitched span timeline as Chrome trace_event JSON into this directory (empty = off)")
		faults       = flag.String("faults", "", "arm fault-injection points, e.g. 'cache.put=p:0.1,journal.sync=n:3'")
		logLevel     = flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = off)")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "precisiond:", err)
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
		src := *faults
		if src == "" {
			src = "$" + fault.EnvFaults
		}
		logger.Warn("fault injection ARMED", obs.Str("spec", src))
	}

	reg := obs.Default
	fault.RegisterMetrics(reg)

	c, err := cache.Open(*cacheDir, cache.WithHotBytes(*hotBytes))
	if err != nil {
		fatal(err)
	}
	c.RegisterMetrics(reg)
	var journal *queue.Journal
	if *journalPath != "" {
		journal, err = queue.OpenJournal(*journalPath)
		if err != nil {
			fatal(err)
		}
		defer journal.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// One dispatch board carries both backends: the local solver lanes and
	// the remote worker fleet. -workers 0 drops the local backend entirely.
	disp := dispatch.New(dispatch.Options{Obs: reg, Log: logger})
	coordCfg := dispatch.CoordinatorConfig{
		LeaseTTL:    *leaseTTL,
		Heartbeat:   *heartbeat,
		VerifyN:     *verifyN,
		HedgeBudget: *hedgeBudget,
		HedgeAfter:  *hedgeAfter,
		Obs:         reg,
		Log:         logger,
	}
	if journal != nil {
		// Hedge verifications are journaled as audit records: every hedged
		// pair that produced two completions leaves a hedge_verified line.
		coordCfg.HedgeRecord = func(jobID, specHash, stateHash, winner, loser string, match bool) {
			_ = journal.HedgeVerified(jobID, specHash, stateHash, winner, loser, match)
		}
	}
	fleet := dispatch.NewCoordinator(disp, coordCfg)

	// Closed-loop precision autotuning (DESIGN.md §15): mode:"auto" specs
	// resolve to the cheapest mode the fleet's evidence supports; demotions
	// only commit after a shadow run on a second executor reproduces the
	// result bit-identically (the same machinery -verify-n uses).
	tuner := autotune.New(autotune.Config{
		Journal:  journal,
		Verify:   fleet.VerifyDemotion,
		WarmRuns: *autotuneWarm,
		Obs:      reg,
		Log:      logger,
	})
	if journal != nil {
		if err := tuner.Recover(journal); err != nil {
			fatal(err)
		}
	}

	reserve := *campReserve
	if reserve < 0 {
		reserve = *queueDepth / 4
	}
	cfg := queue.Config{
		Tuner:        tuner,
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		Lanes:        *lanes,
		Cache:        c,
		Journal:      journal,
		JobTimeout:   *jobTimeout,
		AbandonGrace: *grace,
		Dispatch:     disp,
		DisableLocal: *workers == 0,
		Obs:          reg,
		Log:          logger,

		ReserveInteractive: reserve,
	}
	if *ckptDir != "" {
		cfg.CheckpointDir = *ckptDir
		cfg.CheckpointEvery = *ckptEvery
	}
	if *archName != "" {
		// Local energy accounting: jobs the fleet coordinator did not
		// already price (remote uploads carry the executing worker's
		// profile) are modeled on this node's profile.
		spec, err := arch.FindSpec(*archName)
		if err != nil {
			fatal(err)
		}
		cfg.Energy = func(backend, worker string, res *runner.Result) *runner.Energy {
			return dispatch.ComputeEnergy(spec, res)
		}
	}
	if *traceExport != "" {
		if err := os.MkdirAll(*traceExport, 0o755); err != nil {
			fatal(err)
		}
		dir := *traceExport
		cfg.OnComplete = func(job *queue.Job, res *runner.Result) {
			if res.Trace == nil {
				return
			}
			path := filepath.Join(dir, job.ID+".trace.json")
			if err := os.WriteFile(path, obs.ChromeTrace(*res.Trace), 0o644); err != nil {
				logger.Warn("trace export failed",
					obs.Str("job", job.ID), obs.Str("error", err.Error()))
			}
		}
		logger.Info("trace export on", obs.Str("dir", dir))
	}
	sched := queue.New(cfg)
	if journal != nil {
		requeued, healed, err := sched.Recover()
		if err != nil {
			fatal(err)
		}
		if requeued > 0 || healed > 0 {
			logger.Info("recovered jobs from journal",
				obs.Str("journal", *journalPath),
				obs.Str("requeued", fmt.Sprint(requeued)),
				obs.Str("healed", fmt.Sprint(healed)))
		}
	}
	sched.Start(ctx)

	// Campaign manager: server-side sweeps expanded lazily over the same
	// scheduler, journal and metrics registry (DESIGN.md §12).
	localSlots := *workers
	camps := campaign.New(campaign.Config{
		Sched:   sched,
		Journal: journal,
		Budget:  *campBudget,
		Slots:   *campSlots,
		// Shed bulk admission when quarantine eats the fleet: campaign
		// expansion tracks local lanes plus non-quarantined remote slots.
		HealthyCapacity: func() int { return localSlots + fleet.HealthyCapacity() },
		Obs:             reg,
		Log:             logger,
	})
	if journal != nil {
		resumed, err := camps.Recover()
		if err != nil {
			fatal(err)
		}
		if resumed > 0 {
			logger.Info("recovered campaigns from journal",
				obs.Str("journal", *journalPath),
				obs.Str("resumed", fmt.Sprint(resumed)))
		}
	}
	camps.Start(ctx)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Printed unconditionally so scripts can discover a :0-assigned port.
	fmt.Printf("listening on %s\n", ln.Addr())
	logger.Info("precisiond up",
		obs.Str("addr", ln.Addr().String()), obs.Str("cache", c.Dir()),
		obs.Str("workers", fmt.Sprint(*workers)),
		obs.Str("queue_depth", fmt.Sprint(*queueDepth)),
		obs.Str("log_level", level.String()))

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugLn, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		debugSrv = &http.Server{Handler: debugMux(reg)}
		go debugSrv.Serve(debugLn)
		logger.Info("debug server up (pprof + metrics)", obs.Str("addr", debugLn.Addr().String()))
	}

	srv := &http.Server{Handler: api.New(sched, c,
		api.WithMetrics(reg), api.WithDispatch(fleet), api.WithCampaigns(camps),
		api.WithAutotune(tuner))}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case err := <-done:
		fatal(err)
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("shutdown", obs.Str("error", err.Error()))
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(shutdownCtx)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("serve", obs.Str("error", err.Error()))
	}
	sched.Wait()
	camps.Wait()
	tuner.Quiesce()
	if fault.Enabled() {
		for _, fc := range fault.Counts() {
			logger.Info("fault point summary",
				obs.Str("point", fc.Name),
				obs.Str("trips", fmt.Sprint(fc.Trips)),
				obs.Str("hits", fmt.Sprint(fc.Hits)))
		}
	}
}

// debugMux builds the -debug-addr surface: net/http/pprof (the DefaultServeMux
// registrations, re-homed on a private mux so the API listener never exposes
// them) plus a convenience copy of /metrics.
func debugMux(reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", reg.Handler())
	return mux
}
