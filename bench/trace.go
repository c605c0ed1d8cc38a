package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// The traced run. Layers are measured from outside the servers: client-side
// timing of HTTP calls (H), deltas of what the servers already export over
// the window (P), and in-process calls into each layer's public functions
// (C, in walk.go). Nothing here changes what the servers do.

// sample is one once-a-second scrape of the daemon's /metrics taken while
// tracing is on: how long it took and the gauges it read.
type sample struct {
	scrapeMs float64
	inflight float64 // precisiond_campaign_inflight
	backlog  float64 // precisiond_campaign_backlog
}

// scrape fetches and parses one Prometheus exposition, timing the call.
func (h *harness) scrape(ctx context.Context, url string) (promSnapshot, float64, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := h.hc.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(start)) / 1e6
	if err != nil {
		return nil, ms, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, ms, fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return parseProm(data), ms, nil
}

// scrapeWorkers sums the fleet workers' own expositions (each serves
// /metrics on its read address, listed by GET /v1/workers).
func (h *harness) scrapeWorkers(ctx context.Context) (promSnapshot, error) {
	sum := promSnapshot{}
	if len(h.cl.workers) == 0 {
		return sum, nil
	}
	var fleet struct {
		Workers []struct {
			ReadAddr string `json:"read_addr"`
		} `json:"workers"`
	}
	if err := h.hc.getJSON(ctx, "/v1/workers", &fleet); err != nil {
		return nil, err
	}
	for _, w := range fleet.Workers {
		if w.ReadAddr == "" {
			continue
		}
		snap, _, err := h.scrape(ctx, w.ReadAddr+"/metrics")
		if err != nil {
			return nil, err
		}
		for k, v := range snap {
			sum[k] += v
		}
	}
	return sum, nil
}

// sampler scrapes /metrics once a second while the current slice has tracing
// on, for the gauges a delta over the window cannot give. Its cost is part
// of what obs.trace_overhead_share measures.
func (h *harness) sampler(ctx context.Context, stop chan struct{}) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if !h.rec.on.Load() {
			continue
		}
		snap, ms, err := h.scrape(ctx, h.cl.base+"/metrics")
		if err != nil {
			continue // the clock notices a dead server; a missed sample is only missed
		}
		h.samples = append(h.samples, sample{
			scrapeMs: ms,
			inflight: snap.get("precisiond_campaign_inflight"),
			backlog:  snap.get("precisiond_campaign_backlog"),
		})
	}
}

// serverTrace is GET /v1/jobs/{id}/trace: the daemon's own stitched span
// timeline for one job.
type serverTrace struct {
	JobID string `json:"job_id"`
	Spans []struct {
		Name    string `json:"name"`
		Parent  int    `json:"parent"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
		Attrs   []struct {
			Key   string `json:"key"`
			Value string `json:"value"`
		} `json:"attrs"`
	} `json:"spans"`
}

func (t serverTrace) attr(i int, key string) string {
	for _, a := range t.Spans[i].Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

func (t serverTrace) spans() []span {
	out := make([]span, len(t.Spans))
	for i, s := range t.Spans {
		out[i] = span{Name: s.Name, Start: s.StartNs, End: s.EndNs, Parent: s.Parent, Aggregate: t.attr(i, "kind") == "aggregate"}
	}
	return out
}

// maxStitched bounds how many job traces a traced run fetches.
const maxStitched = 500

// stitched is the reduction of the fetched job traces.
type stitched struct {
	jobs         int
	bytes        float64            // Σ trace response bytes
	selfMs       map[string]float64 // span name → Σ self time, ms
	leaseOverMs  float64            // Σ (remote attempt − worker solve), ms
	remoteJobs   int
	uploadBytes  float64
	uploadEvents int
}

// fetchStitched reads the daemon's stitched trace of up to maxStitched
// foreground jobs of the window and reduces them to self time per span name.
func (h *harness) fetchStitched(ctx context.Context) (stitched, error) {
	st := stitched{selfMs: map[string]float64{}}
	seen := map[string]bool{}
	for _, o := range h.in {
		if o.err != "" || o.jobID == "" || seen[o.jobID] {
			continue
		}
		if st.jobs == maxStitched {
			break
		}
		seen[o.jobID] = true
		status, data, _, err := h.hc.call(ctx, "", noSpan, http.MethodGet, "/v1/jobs/"+o.jobID+"/trace", nil, "")
		if err != nil {
			return st, err
		}
		var tr serverTrace
		if status != http.StatusOK || json.Unmarshal(data, &tr) != nil {
			continue
		}
		st.jobs++
		st.bytes += float64(len(data))
		spans := tr.spans()
		for i := range spans {
			// A local attempt's self time is runner.Run outside the phase
			// timers; a remote one's is lease wait and upload. Keep them
			// apart.
			if spans[i].Name == "attempt" {
				if tr.attr(i, "worker") == "" {
					spans[i].Name = "attempt:local"
				} else {
					spans[i].Name = "attempt:remote"
				}
			}
		}
		for i, self := range selfTimes(spans) {
			st.selfMs[spans[i].Name] += float64(self) / 1e6
		}
		var attemptNs, solveNs int64
		for i, s := range tr.Spans {
			switch {
			case s.Name == "attempt" && tr.attr(i, "worker") != "":
				attemptNs += s.EndNs - s.StartNs
			case s.Name == "solve" && tr.attr(i, "node") == "worker":
				solveNs += s.EndNs - s.StartNs
			case s.Name == "upload":
				if b, err := strconv.ParseFloat(tr.attr(i, "bytes"), 64); err == nil {
					st.uploadBytes += b
					st.uploadEvents++
				}
			}
		}
		if attemptNs > 0 {
			st.remoteJobs++
			st.leaseOverMs += float64(attemptNs-solveNs) / 1e6
		}
	}
	return st, nil
}

// layerMetrics fills res.PerLayer with every per-layer metric of
// BENCHMARK.json. A metric a workload does not exercise reads 0.
func (h *harness) layerMetrics(ctx context.Context, res *runResult) error {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	windowS := res.Env.WindowS
	b0, b1 := h.t0, h.t1
	d := func(name string, labels ...string) float64 { return delta(b0.prom, b1.prom, name, labels...) }
	in := h.in

	// --- runner / clamr / self / checkpoint: from the result payloads of
	// the window (P). Preloaded payloads stand in on a read-only workload.
	var results []*resultLite
	for _, o := range in {
		if o.err == "" && o.res != nil {
			results = append(results, o.res)
		}
	}
	if len(results) == 0 {
		for i := range h.pre {
			var r resultLite
			if json.Unmarshal(h.pre[i].Payload, &r) == nil {
				results = append(results, &r)
			}
		}
	}
	type acc struct {
		wall                    []float64
		wallS, cellSteps        float64
		flops, bytes, ckptBytes float64
		n                       float64
	}
	by := map[string]*acc{}
	phase := map[string]float64{}
	appWall := map[string]float64{}
	var joules, joulesN, allocs, clamrSteps float64
	for _, r := range results {
		key := r.Spec.App + "_" + r.Spec.Mode
		a := by[key]
		if a == nil {
			a = &acc{}
			by[key] = a
		}
		size := float64(r.Cells)
		if r.Spec.App == "self" {
			size = float64(r.DOF)
		}
		a.n++
		a.wall = append(a.wall, r.WallSeconds*1e3)
		a.wallS += r.WallSeconds
		a.cellSteps += size * float64(r.Steps)
		a.flops += r.Counters.Flops16 + r.Counters.Flops32 + r.Counters.Flops64
		a.bytes += r.Counters.LoadBytes + r.Counters.StoreBytes
		a.ckptBytes += r.CheckpointBytes
		appWall[r.Spec.App] += r.WallSeconds
		for _, p := range r.Phases {
			phase[r.Spec.App+"."+p.Name] += p.Seconds
		}
		if r.Energy != nil {
			joules += r.Energy.Joules
			joulesN++
		}
		if r.Spec.App == "clamr" {
			allocs += r.Counters.AllocCount
			clamrSteps += float64(r.Steps)
		}
	}
	get := func(key string) *acc {
		if a := by[key]; a != nil {
			return a
		}
		return &acc{}
	}
	for _, key := range []string{"clamr_min", "clamr_mixed", "clamr_full", "self_min", "self_full"} {
		set("runner.run_ms."+key, median(get(key).wall), "ms")
	}
	set("runner.model_joules_per_job", ratio(joules, joulesN), "J")
	set("runner.full_over_min_run", ratio(median(get("clamr_full").wall), median(get("clamr_min").wall)), "ratio")
	set("clamr.finite_diff_share", ratio(phase["clamr.finite_diff"], appWall["clamr"]), "ratio")
	set("clamr.timestep_share", ratio(phase["clamr.timestep"], appWall["clamr"]), "ratio")
	set("clamr.amr_share", ratio(phase["clamr.amr"], appWall["clamr"]), "ratio")
	for _, mode := range []string{"min", "mixed", "full"} {
		a := get("clamr_" + mode)
		set("clamr.ns_per_cell_step."+mode, ratio(a.wallS*1e9, a.cellSteps), "ns")
		// Computed from the kernels' exact analytic tallies, not measured
		// traffic: cache misses are invisible here.
		set("clamr.flops_per_byte."+mode, ratio(a.flops, a.bytes), "flop/B")
		set("clamr.bytes_per_cell_step."+mode, ratio(a.bytes, a.cellSteps), "B")
	}
	set("clamr.allocs_per_step", ratio(allocs, clamrSteps), "count")
	set("self.rhs_share", ratio(phase["self.rhs"], appWall["self"]), "ratio")
	set("self.rk_share", ratio(phase["self.rk"], appWall["self"]), "ratio")
	set("self.filter_share", ratio(phase["self.filter"], appWall["self"]), "ratio")
	for _, mode := range []string{"min", "full"} {
		a := get("self_" + mode)
		set("self.ns_per_dof_step."+mode, ratio(a.wallS*1e9, a.cellSteps), "ns")
		set("self.flops_per_byte."+mode, ratio(a.flops, a.bytes), "flop/B")
	}
	set("checkpoint.bytes_per_job.min", ratio(get("clamr_min").ckptBytes, get("clamr_min").n), "B")
	set("checkpoint.bytes_per_job.full", ratio(get("clamr_full").ckptBytes, get("clamr_full").n), "B")

	// --- queue / journal / cache / campaign / dispatch / autotune: deltas
	// of the daemon's own exposition over the window (P).
	executed := d("precisiond_jobs_total", "event", "executed")
	submitted := d("precisiond_jobs_total", "event", "submitted")
	set("queue.wait_ms_mean", histogramDelta(b0.prom, b1.prom, "precisiond_queue_wait_seconds").Mean()*1e3, "ms")
	set("queue.dedup_hit_share", ratio(d("precisiond_jobs_total", "event", "dedup_hit"), submitted), "ratio")
	set("queue.cache_hit_share", ratio(d("precisiond_jobs_total", "event", "cache_hit"), submitted), "ratio")
	set("queue.retried", d("precisiond_jobs_total", "event", "retried"), "count")
	set("queue.rejected", d("precisiond_jobs_total", "event", "queue_rejected"), "count")
	fsync := histogramDelta(b0.prom, b1.prom, "precisiond_journal_fsync_seconds")
	set("journal.fsyncs_per_job", ratio(fsync.Count, executed), "count")
	set("journal.fsync_ms_mean", fsync.Mean()*1e3, "ms")
	set("journal.fsync_busy_share", ratio(fsync.Sum, windowS), "ratio")
	set("journal.bytes_per_job", ratio(float64(b1.journalB-b0.journalB), executed), "B")
	hot := b1.cache.Cache.HotHits - b0.cache.Cache.HotHits
	disk := b1.cache.Cache.DiskHits - b0.cache.Cache.DiskHits
	fetches := hot + disk + (b1.cache.Cache.RemoteHits - b0.cache.Cache.RemoteHits) + (b1.cache.Cache.Misses - b0.cache.Cache.Misses)
	set("cache.hot_hit_share", ratio(hot, fetches), "ratio")
	set("cache.disk_hit_share", ratio(disk, fetches), "ratio")
	set("cache.bytes_per_entry", ratio(b1.cache.Cache.Bytes, b1.cache.Cache.Entries), "B")
	set("campaign.jobs_per_s", ratio(float64(b1.campDone-b0.campDone), windowS), "1/s")
	var inflight, backlog, scrapeMs []float64
	for _, s := range h.samples {
		inflight = append(inflight, s.inflight)
		backlog = append(backlog, s.backlog)
		scrapeMs = append(scrapeMs, s.scrapeMs)
	}
	set("campaign.inflight_mean", mean(inflight), "count")
	set("campaign.backlog_mean", mean(backlog), "count")
	set("api.metrics_scrape_ms", median(scrapeMs), "ms")
	set("dispatch.place_wait_ms_mean", histogramDelta(b0.prom, b1.prom, "dispatch_place_wait_seconds", "backend", "fleet").Mean()*1e3, "ms")
	set("dispatch.heartbeats_per_job", ratio(d("dispatch_heartbeats_total"), executed), "count")
	set("dispatch.leases_expired", d("dispatch_leases_total", "event", "expired"), "count")
	set("dispatch.hedges_fired", d("precisiond_hedges_total", "outcome", "fired"), "count")
	slots := float64(len(h.cl.workers)) // one slot per worker
	idle := 0.0
	if slots > 0 {
		var busy float64
		for key, v := range b1.workerPro {
			if name, _, _, ok := splitSeries(key + " 0"); ok && name == "precision_worker_run_seconds_sum" {
				busy += v - b0.workerPro[key]
			}
		}
		idle = 1 - busy/(slots*windowS)
	}
	set("dispatch.slot_idle_share", idle, "ratio")
	set("autotune.probe_runs", d("precisiond_autotune_total", "decision", "probe_committed")+d("precisiond_autotune_total", "decision", "probe_rejected"), "count")
	resolved := map[string]float64{}
	var autos float64
	for _, o := range in {
		if o.op.Kind == kindAuto && o.err == "" {
			resolved[o.tunedMode]++
			autos++
		}
	}
	for _, mode := range []string{"half", "min", "mixed", "full"} {
		set("autotune.resolved_share."+mode, ratio(resolved[mode], autos), "ratio")
	}

	// --- api: client-side timing of the window's operations (H).
	lat := map[string][]float64{}
	var acks []float64
	var readBytes, reads float64
	for _, o := range in {
		if o.err != "" {
			continue
		}
		lat[o.op.Kind] = append(lat[o.op.Kind], o.latencyMs()*1e3)
		if o.res != nil {
			acks = append(acks, o.ackUs)
		}
		if o.readBytes > 0 {
			readBytes += float64(o.readBytes)
			reads++
		}
	}
	set("api.submit_ack_us", median(acks), "us")
	for _, k := range []struct{ kind, name string }{
		{kindResubmit, "api.resubmit_us"}, {kindRead200, "api.read_200_us"}, {kindRead304, "api.read_304_us"},
	} {
		set(k.name+"_p50", percentile(lat[k.kind], 50), "us")
		set(k.name+"_p99", percentile(lat[k.kind], 99), "us")
	}
	set("api.bytes_per_read", ratio(readBytes, reads), "B")

	// --- the daemon's own stitched traces of the foreground jobs.
	st, err := h.fetchStitched(ctx)
	if err != nil {
		return err
	}
	set("dispatch.lease_overhead_ms", ratio(st.leaseOverMs, float64(st.remoteJobs)), "ms")
	set("dispatch.upload_bytes_per_job", ratio(st.uploadBytes, float64(st.uploadEvents)), "B")
	set("obs.trace_bytes_per_job", ratio(st.bytes, float64(st.jobs)), "B")

	// --- tracing overhead: throughput in the slices with the benchmark's
	// spans and samplers on against the slices with them off. On an open
	// loop below capacity throughput is the schedule's, so this reads zero
	// plus noise there; campaign completions make it meaningful on
	// campaign_admit.
	var onOps, offOps, onS, offS float64
	for _, sl := range h.slices {
		n := float64(sl.campDone)
		for _, o := range in {
			if o.err == "" && !o.end.Before(sl.start) && o.end.Before(sl.end) {
				n++
			}
		}
		if sl.on {
			onOps, onS = onOps+n, onS+sl.end.Sub(sl.start).Seconds()
		} else {
			offOps, offS = offOps+n, offS+sl.end.Sub(sl.start).Seconds()
		}
	}
	overhead := 0.0
	if onS > 0 && offS > 0 && offOps > 0 {
		overhead = 1 - (onOps/onS)/(offOps/offS)
	}
	set("obs.trace_overhead_share", overhead, "ratio")

	// --- proc.
	ops := res.EndToEnd["ops_per_s"].Value * windowS
	set("proc.precisiond_cpu_share", ratio(b1.daemon.cpuS-b0.daemon.cpuS, windowS), "cores")
	set("proc.worker_cpu_share", ratio(b1.workers.cpuS-b0.workers.cpuS, windowS), "cores")
	set("proc.rss_growth_mb_per_kjob", ratio((b1.daemon.rssMB+b1.workers.rssMB)-(b0.daemon.rssMB+b0.workers.rssMB), ops/1000), "MiB")
	set("proc.bench_cpu_share", ratio(b1.selfCPU-b0.selfCPU, windowS), "cores")
	var late []float64
	for _, o := range in {
		if !o.due.IsZero() {
			late = append(late, float64(o.start.Sub(o.due))/1e6)
		}
	}
	set("proc.gen_late_p95_ms", percentile(late, 95), "ms")
	set("proc.failed_share", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")

	// --- in-process layer probes and the layer walk (C).
	if err := h.walkLayers(ctx, res, st, set); err != nil {
		return err
	}
	res.PerLayer = m
	return nil
}

// writeArtifacts leaves the run's inspectable files in bench/out: the input
// schedule as issued, the result, and for a traced run the Chrome trace.
func (h *harness) writeArtifacts(res *runResult) error {
	base := filepath.Join(h.env.outDir, h.def.name)
	f, err := os.Create(base + ".inputs.ndjson")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	// The schedule as issued: every executed operation by sequence number,
	// streams interleaved, capped at maxListedInputs.
	issued := append([]outcome(nil), h.outcomes...)
	sort.Slice(issued, func(a, b int) bool {
		if issued[a].op.Seq != issued[b].op.Seq {
			return issued[a].op.Seq < issued[b].op.Seq
		}
		return issued[a].op.Stream < issued[b].op.Stream
	})
	if len(issued) > maxListedInputs {
		issued = issued[:maxListedInputs]
	}
	header := map[string]any{"workload": h.def.name, "seed": h.seed, "issued": len(h.outcomes), "listed": len(issued)}
	if h.def.campaign != nil {
		header["campaign_jobs"] = campaignTols * len(tinyModes)
	}
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for i := range issued {
		if err := enc.Encode(&issued[i].op); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	suffix := ".result.json"
	if h.traced {
		suffix = ".traced.result.json"
		if err := writeChromeTrace(base+".trace.json", h.rec.snapshot()); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+suffix, data, 0o644)
}
