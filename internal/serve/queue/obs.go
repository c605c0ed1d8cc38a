package queue

import (
	"strconv"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runner"
)

// schedObs is the scheduler's pre-resolved instrument set in a metrics
// registry (Config.Obs, or a private one when none is configured). All
// fields are resolved once at New, so the scheduler's recording sites are
// plain atomic updates.
type schedObs struct {
	// events holds each transition row's precisiond_jobs_total{event}
	// child — the only count of job traffic, read by /metrics and Stats()
	// alike. Rows sharing a label share the child; uncounted rows hold a
	// no-op handle.
	events [numEvents]obs.Counter

	queueDepth obs.Gauge

	queueWait *obs.Histogram
	runDur    obs.HistogramVec // labels: app, mode
	fsync     *obs.Histogram

	workersBusy, lanesBusy obs.Gauge

	runFlops       obs.CounterVec // label: width
	runTransc      obs.CounterVec // label: width
	runMemBytes    obs.CounterVec // label: dir
	runConversions obs.Counter
	runLaunches    obs.Counter
	runAllocBytes  obs.Counter
	runAllocCount  obs.Counter

	jobJoules obs.FloatCounterVec // labels: app, mode
	jobCost   obs.FloatCounterVec // labels: app, mode
}

// newSchedObs resolves the scheduler's instruments.
func newSchedObs(r *obs.Registry, s *Scheduler) *schedObs {
	jobs := r.CounterVec("precisiond_jobs_total",
		"Scheduler job traffic by event (mirrors /v1/cache/stats).", "event")
	o := &schedObs{
		queueDepth: r.Gauge("precisiond_queue_depth",
			"Jobs admitted but not yet placed on a backend."),

		queueWait: r.Histogram("precisiond_queue_wait_seconds",
			"Time from admission to the first execution attempt.", obs.DurationBuckets),
		runDur: r.HistogramVec("precisiond_run_duration_seconds",
			"Duration of one execution attempt.", obs.DurationBuckets, "app", "mode"),
		fsync: r.Histogram("precisiond_journal_fsync_seconds",
			"Write-ahead journal append+fsync latency.", obs.FsyncBuckets),

		workersBusy: r.Gauge("precisiond_workers_busy",
			"Workers currently executing a job."),
		lanesBusy: r.Gauge("precisiond_lanes_busy",
			"Solver lanes currently assigned to running jobs."),

		runFlops: r.CounterVec("precisiond_run_flops_total",
			"Floating-point operations in completed runs, by compute width.", "width"),
		runTransc: r.CounterVec("precisiond_run_transcendental_total",
			"Transcendental evaluations in completed runs, by compute width.", "width"),
		runMemBytes: r.CounterVec("precisiond_run_mem_bytes_total",
			"Algorithmic memory traffic in completed runs, by direction.", "dir"),
		runConversions: r.Counter("precisiond_run_conversions_total",
			"Precision conversions in completed runs."),
		runLaunches: r.Counter("precisiond_run_kernel_launches_total",
			"Kernel sweeps in completed runs."),
		runAllocBytes: r.Counter("precisiond_run_alloc_bytes_total",
			"Heap bytes allocated around instrumented phases of completed runs."),
		runAllocCount: r.Counter("precisiond_run_alloc_objects_total",
			"Heap objects allocated around instrumented phases of completed runs."),

		jobJoules: r.FloatCounterVec("precisiond_job_joules_total",
			"Modeled energy of completed jobs (arch profile × deterministic counters).", "app", "mode"),
		jobCost: r.FloatCounterVec("precisiond_job_cost_dollars_total",
			"Modeled cloud cost of completed jobs (compute + checkpoint storage).", "app", "mode"),
	}
	for ev, row := range transitions {
		if row.counter != "" {
			o.events[ev] = jobs.With(row.counter)
		}
	}
	poisoned := o.events[evPoisoned]
	r.Collect(func(emit func(obs.Sample)) {
		emit(obs.Sample{
			Name:  "precisiond_jobs_poisoned_total",
			Help:  "Jobs parked as poisoned: the same failure kind on two distinct executors.",
			Type:  "counter",
			Value: float64(poisoned.Value()),
		})
	})
	r.Gauge("precisiond_workers", "Configured concurrent job executors.").Set(int64(s.cfg.Workers))
	r.Gauge("precisiond_lanes_per_worker", "Solver lanes handed to each running job.").Set(int64(s.lanes))
	return o
}

// observeResultCounters streams a completed run's metrics.Counters into the
// aggregate exposition counters.
func (o *schedObs) observeResultCounters(c metrics.Counters) {
	o.runFlops.With("16").Add(c.Flops16)
	o.runFlops.With("32").Add(c.Flops32)
	o.runFlops.With("64").Add(c.Flops64)
	o.runTransc.With("32").Add(c.Transcendental32)
	o.runTransc.With("64").Add(c.Transcendental64)
	o.runMemBytes.With("load").Add(c.LoadBytes)
	o.runMemBytes.With("store").Add(c.StoreBytes)
	o.runConversions.Add(c.Conversions)
	o.runLaunches.Add(c.KernelLaunches)
	o.runAllocBytes.Add(c.AllocBytes)
	o.runAllocCount.Add(c.AllocCount)
}

// observeEnergy accumulates a completed job's modeled energy/cost into the
// fleet-facing exposition counters.
func (o *schedObs) observeEnergy(app, mode string, e *runner.Energy) {
	o.jobJoules.With(app, mode).Add(e.Joules)
	o.jobCost.With(app, mode).Add(e.CostDollars)
}

// attrsForSpec renders the trace attributes identifying a spec.
func attrsForSpec(spec runner.ExperimentSpec, hash string) []obs.Attr {
	return []obs.Attr{
		obs.Str("app", string(spec.App)),
		obs.Str("mode", spec.Mode),
		obs.Str("spec_hash", hash),
	}
}

// intAttr renders an int attribute (obs attributes are strings).
func intAttr(key string, v int64) obs.Attr {
	return obs.Str(key, strconv.FormatInt(v, 10))
}
