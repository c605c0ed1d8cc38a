package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/reduce"
	"repro/internal/runner"
	"repro/internal/serve/autotune"
	"repro/internal/serve/cache"
	"repro/internal/serve/campaign"
	"repro/internal/serve/queue"
)

// In-process measurement (source C): the benchmark calls each layer's public
// functions directly, with no HTTP, no queue and no second process in the
// way. Two parts. The layer walk replays the workload's own mix through the
// path a request takes inside the daemon, one span per call, and reduces it
// to a self-time table that is held against the measured lat_p50_ms. The
// layer probes time fixed calls in loops and give the C metrics, the same
// way on every workload so they compare across them.

const (
	walkMaxOps    = 200
	walkMaxWall   = 3 * time.Second
	probeJobs     = 48
	probeLoops    = 2000
	probeFastLoop = 20000
)

// walkRow is one layer call of the walk.
type walkRow struct {
	Call        string  `json:"call"`
	Count       int     `json:"count"`
	SelfMsPerOp float64 `json:"self_ms_per_op"`
	Share       float64 `json:"share"`
}

// walkTable is the traced run's account of where an operation's time goes.
type walkTable struct {
	// Ops replayed in-process and the self time per operation of each call,
	// largest first.
	Ops          int       `json:"ops"`
	Rows         []walkRow `json:"rows"`
	TotalMsPerOp float64   `json:"total_ms_per_op"`
	// LatP50Ms is the window's measured median; RemainderMs what the
	// in-process path does not account for: HTTP, queue and lease wait.
	LatP50Ms    float64 `json:"lat_p50_ms"`
	RemainderMs float64 `json:"remainder_ms"`
	// ServerSelfMsPerJob is the daemon's own stitched trace of the window's
	// foreground jobs reduced to self time per span name, and
	// ServerSolveShare the solver's part of it (a worker's solve span, a
	// local attempt's own time, and every phase:* aggregate) over lat_p50_ms. QueueWaitMsMean is the same wait from the daemon's
	// histogram, as a cross-check.
	ServerJobs         int                `json:"server_jobs"`
	ServerSelfMsPerJob map[string]float64 `json:"server_self_ms_per_job"`
	ServerSolveShare   float64            `json:"server_solve_share"`
	QueueWaitMsMean    float64            `json:"queue_wait_ms_mean"`
}

func (w *walkTable) print() {
	fmt.Printf("   -- layer walk: %d ops in-process, %.3f ms/op against lat_p50 %.3f ms (remainder %.3f ms: HTTP, queue, lease)\n",
		w.Ops, w.TotalMsPerOp, w.LatP50Ms, w.RemainderMs)
	for _, r := range w.Rows {
		fmt.Printf("      %-24s n=%-5d %10.4f ms/op  %5.1f%%\n", r.Call, r.Count, r.SelfMsPerOp, 100*r.Share)
	}
	fmt.Printf("   -- daemon's stitched trace, self time per job over %d jobs (solver share of lat_p50: %.2f; queue wait histogram mean %.3f ms)\n",
		w.ServerJobs, w.ServerSolveShare, w.QueueWaitMsMean)
	names := make([]string, 0, len(w.ServerSelfMsPerJob))
	for n := range w.ServerSelfMsPerJob {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return w.ServerSelfMsPerJob[names[a]] > w.ServerSelfMsPerJob[names[b]] })
	for _, n := range names {
		fmt.Printf("      %-24s %10.4f ms/job\n", n, w.ServerSelfMsPerJob[n])
	}
}

// walker owns the in-process instances of the layers: a cache, a journal and
// an autotuner on a scratch directory, as the daemon wires them.
type walker struct {
	dir      string
	hotBytes int64
	cache    *cache.Cache
	journal  *queue.Journal
	tuner    *autotune.Tuner
	rec      *recorder
	jobs     uint64
}

func newWalker(dir string, hotBytes int64) (*walker, error) {
	if hotBytes <= 0 {
		hotBytes = 64 << 20 // the daemon's default
	}
	w := &walker{dir: dir, hotBytes: hotBytes, rec: newRecorder()}
	w.rec.enable(true)
	if err := w.reopenCache(); err != nil {
		return nil, err
	}
	j, err := queue.OpenJournal(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		return nil, err
	}
	w.journal = j
	w.tuner = autotune.New(autotune.Config{})
	return w, nil
}

// reopenCache drops the hot tier and keeps the disk entries, like a daemon
// restart.
func (w *walker) reopenCache() error {
	c, err := cache.Open(filepath.Join(w.dir, "cache"), cache.WithHotBytes(w.hotBytes))
	if err != nil {
		return err
	}
	w.cache = c
	return nil
}

func (w *walker) close() { _ = w.journal.Close() }

// replay takes one operation through the calls the daemon makes for it:
// Normalized → Hash → Tuner.Resolve → Cache.Fetch, and on a miss
// Journal.Submitted → Journal.Started → runner.Run → marshal → Cache.Put →
// Journal.Done → Cache.Fetch. A read by hash is the fetch alone; a
// revalidation (304) touches no layer below the API and is skipped.
func (w *walker) replay(ctx context.Context, o op, id int64) error {
	if o.Kind == kindRead304 {
		return nil
	}
	parent := w.rec.begin("op", -1, id, 0)
	defer w.rec.end(parent)
	call := func(name string) int { return w.rec.begin(name, parent, id, 0) }
	fetch := func(hash string) bool {
		sp := call("cache.fetch")
		_, src, ok := w.cache.Fetch(hash)
		if !ok {
			src = "miss"
		}
		w.rec.endAs(sp, "cache.fetch:"+string(src))
		return ok
	}
	if o.Kind == kindRead200 {
		fetch(o.Hash)
		return nil
	}
	sp := call("runner.normalize")
	n, err := o.Spec.Normalized()
	w.rec.end(sp)
	if err != nil {
		return err
	}
	sp = call("autotune.resolve")
	n, err = w.tuner.Resolve(n)
	w.rec.end(sp)
	if err != nil {
		return err
	}
	sp = call("runner.hash")
	hash, err := n.Hash()
	w.rec.end(sp)
	if err != nil {
		return err
	}
	if fetch(hash) {
		return nil
	}
	w.jobs++
	jobID := fmt.Sprintf("walk-%06d", w.jobs)
	sp = call("journal.submitted")
	err = w.journal.Submitted(jobID, hash, n, w.jobs+1)
	w.rec.end(sp)
	if err != nil {
		return err
	}
	sp = call("journal.started")
	err = w.journal.Started(jobID, n.Mode)
	w.rec.end(sp)
	if err != nil {
		return err
	}
	sp = call("runner.run")
	res, err := runner.Run(ctx, n, runner.RunOpts{Workers: 1})
	w.rec.end(sp)
	if err != nil {
		return err
	}
	sp = call("runner.marshal")
	payload, err := json.Marshal(res)
	w.rec.end(sp)
	if err != nil {
		return err
	}
	sp = call("cache.put")
	err = w.cache.Put(hash, payload)
	w.rec.end(sp)
	if err != nil {
		return err
	}
	sp = call("journal.done")
	err = w.journal.Done(jobID)
	w.rec.end(sp)
	if err != nil {
		return err
	}
	fetch(hash)
	return nil
}

// perCall is the mean duration, in the given unit of ns, of the walk's spans
// with this name.
func perCall(spans []span, name string, unitNs float64) float64 {
	var sum float64
	n := 0
	for _, s := range spans {
		if s.Name == name {
			sum += float64(s.End - s.Start)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / unitNs
}

// timeLoop runs fn n times and returns the mean ns per call.
func timeLoop(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// walkLayers runs the layer walk and the layer probes and records the C
// metrics through set.
func (h *harness) walkLayers(ctx context.Context, res *runResult, st stitched, set func(string, float64, string)) error {
	// --- the walk: this workload's mix, from the same generator and seed.
	dir := filepath.Join(h.env.runDir, h.def.name+"-walk")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := newWalker(dir, h.hotBytes)
	if err != nil {
		return err
	}
	defer w.close()
	for _, p := range h.pre { // what set-up preloaded is on disk, the hot tier empty
		if err := w.cache.Put(p.Hash, p.Payload); err != nil {
			return err
		}
	}
	if err := w.reopenCache(); err != nil {
		return err
	}
	gen := h.def.stream(h.seed, 0, h.pre, max(h.def.rate, 1))
	start := time.Now()
	ops := 0
	for ; ops < walkMaxOps && time.Since(start) < walkMaxWall; ops++ {
		if err := w.replay(ctx, gen(), int64(ops)); err != nil {
			return fmt.Errorf("layer walk: %w", err)
		}
	}
	table := &walkTable{Ops: ops, LatP50Ms: res.EndToEnd["lat_p50_ms"].Value}
	spans := w.rec.snapshot()
	selfNs, counts := selfByName(spans)
	for name, ns := range selfNs {
		call := name
		if name == "op" {
			call = "(between calls)"
		}
		ms := float64(ns) / 1e6 / float64(ops)
		table.Rows = append(table.Rows, walkRow{Call: call, Count: counts[name], SelfMsPerOp: ms})
		table.TotalMsPerOp += ms
	}
	sort.Slice(table.Rows, func(a, b int) bool { return table.Rows[a].SelfMsPerOp > table.Rows[b].SelfMsPerOp })
	for i := range table.Rows {
		if table.TotalMsPerOp > 0 {
			table.Rows[i].Share = table.Rows[i].SelfMsPerOp / table.TotalMsPerOp
		}
	}
	table.RemainderMs = table.LatP50Ms - table.TotalMsPerOp
	table.ServerJobs = st.jobs
	table.ServerSelfMsPerJob = map[string]float64{}
	var solveMs float64
	for name, ms := range st.selfMs {
		if st.jobs > 0 {
			table.ServerSelfMsPerJob[name] = ms / float64(st.jobs)
		}
		if name == "solve" || name == "attempt:local" || strings.HasPrefix(name, "phase:") {
			solveMs += ms
		}
	}
	if st.jobs > 0 && table.LatP50Ms > 0 {
		table.ServerSolveShare = solveMs / float64(st.jobs) / table.LatP50Ms
	}
	table.QueueWaitMsMean = histogramDelta(h.t0.prom, h.t1.prom, "precisiond_queue_wait_seconds").Mean() * 1e3
	res.LayerWalk = table

	// --- the probes: fixed tiny work, identical on every workload.
	if err := h.probeLayers(ctx, set); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	return nil
}

// probeLayers times each layer's public entry points on fixed inputs.
func (h *harness) probeLayers(ctx context.Context, set func(string, float64, string)) error {
	dir := filepath.Join(h.env.runDir, h.def.name+"-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := newWalker(dir, 0)
	if err != nil {
		return err
	}
	defer w.close()

	// The full path on tiny unique jobs: journal appends, marshal, cache put.
	jobs := make([]op, probeJobs)
	for i := range jobs {
		spec := tinySpec(tinyModes[i%len(tinyModes)], uniqueTol(tolPreload, h.seed, uint64(1_000_000+i)))
		jobs[i] = op{Kind: kindSolve, Spec: &spec, Hash: mustHash(spec)}
		if err := w.replay(ctx, jobs[i], int64(i)); err != nil {
			return err
		}
	}
	// The same keys from disk (hot tier dropped).
	if err := w.reopenCache(); err != nil {
		return err
	}
	for i, j := range jobs {
		if err := w.replay(ctx, op{Kind: kindRead200, Hash: j.Hash}, int64(probeJobs+i)); err != nil {
			return err
		}
	}
	spans := w.rec.snapshot()
	set("journal.append_us", perCall(spans, "journal.submitted", 1e3), "us")
	set("runner.marshal_us", perCall(spans, "runner.marshal", 1e3), "us")
	set("cache.put_us", perCall(spans, "cache.put", 1e3), "us")
	set("cache.fetch_disk_us", perCall(spans, "cache.fetch:disk", 1e3), "us")
	set("cache.fetch_hot_ns", timeLoop(probeFastLoop, func(i int) { w.cache.Fetch(jobs[i%probeJobs].Hash) }), "ns")
	set("runner.normalize_hash_us", timeLoop(probeLoops, func(i int) {
		n, _ := jobs[i%probeJobs].Spec.Normalized()
		_, _ = n.Hash()
	})/1e3, "us")
	auto := *jobs[0].Spec
	auto.Mode, auto.MaxMassError = runner.ModeAuto, autoBudget
	set("autotune.resolve_us", timeLoop(probeLoops, func(int) { _, _ = w.tuner.Resolve(auto) })/1e3, "us")

	// Scheduler.Submit of a unique spec with a journal, while earlier
	// submissions execute: admission as a client sees it.
	sctx, cancel := context.WithCancel(ctx)
	sched := queue.New(queue.Config{Workers: 1, Lanes: 1, Cache: w.cache, Journal: w.journal})
	sched.Start(sctx)
	var admitNs float64
	var admitted []*queue.Job
	for i := 0; i < probeJobs; i++ {
		spec := tinySpec(tinyModes[i%len(tinyModes)], uniqueTol(tolPreload, h.seed, uint64(2_000_000+i)))
		t := time.Now()
		job, err := sched.Submit(spec)
		admitNs += float64(time.Since(t))
		if err != nil {
			cancel()
			sched.Wait()
			return err
		}
		admitted = append(admitted, job)
	}
	for _, job := range admitted {
		select {
		case <-job.Done():
		case <-ctx.Done():
		}
	}
	cancel()
	sched.Wait()
	set("queue.admit_us", admitNs/probeJobs/1e3, "us")

	// OpenJournal (replay + compaction) on a copy of the run's own journal.
	data, err := os.ReadFile(h.cl.journal)
	if err != nil {
		return err
	}
	replayCopy := filepath.Join(dir, "replay.ndjson")
	if err := os.WriteFile(replayCopy, data, 0o644); err != nil {
		return err
	}
	records := float64(bytes.Count(data, []byte{'\n'}))
	t := time.Now()
	j, err := queue.OpenJournal(replayCopy)
	replayMs := float64(time.Since(t)) / 1e6
	if err != nil {
		return err
	}
	_ = j.Close()
	if records > 0 {
		set("journal.replay_ms_per_krecord", replayMs/(records/1000), "ms")
	} else {
		set("journal.replay_ms_per_krecord", 0, "ms")
	}

	// Campaign expansion: cursor index → spec → content address, on the
	// grid campaign_admit submits.
	raw, err := json.Marshal(admitCampaign(h.seed).Generator)
	if err != nil {
		return err
	}
	var gs campaign.GeneratorSpec
	if err := json.Unmarshal(raw, &gs); err != nil {
		return err
	}
	g, err := campaign.NewGenerator(gs)
	if err != nil {
		return err
	}
	set("campaign.expand_us", timeLoop(probeLoops, func(i int) {
		spec, _ := g.At(int64(i) % g.Total())
		_, _ = spec.Hash()
	})/1e3, "us")

	// The per-job trace lifecycle of a remotely executed job (the path
	// BENCH_9's ObsJobTrace tracks).
	remote := workerSideTrace()
	set("obs.job_trace_us", timeLoop(probeLoops, func(int) {
		tr := obs.NewTrace("job-000001", "job", obs.Str("app", "clamr"), obs.Str("mode", "mixed"))
		tr.Root().Child("queue_wait").End()
		att := tr.Root().Child("attempt", obs.Str("mode", "mixed"), obs.Str("n", "1"))
		att.Event("upload", obs.Str("worker", "worker-001"), obs.Str("bytes", "8192"))
		att.SetRemote(remote)
		att.Annotate(obs.Str("outcome", "ok"))
		att.End()
		tr.Root().End()
		_ = tr.Snapshot()
	})/1e3, "us")

	// Kernel support layers, sized like a solve_cold CLAMR run.
	var adaptNs float64
	const adaptCycles = 5
	for c := 0; c < adaptCycles; c++ {
		m, err := mesh.New(128, 128, 2, mesh.UnitBounds)
		if err != nil {
			return err
		}
		flags := make([]mesh.RefineFlag, m.NumCells())
		for i := range flags {
			if i%7 == 0 {
				flags[i] = mesh.Refine
			}
		}
		t := time.Now()
		if _, err := m.Adapt(flags); err != nil {
			return err
		}
		adaptNs += float64(time.Since(t))
	}
	set("mesh.adapt_ms", adaptNs/adaptCycles/1e6, "ms")
	pool := par.NewPool(2)
	sink := make([]float64, 4)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sink[i] = float64(i)
		}
	}
	pool.ForN(2, len(sink), body)
	set("par.dispatch_ns", timeLoop(probeFastLoop, func(int) { pool.ForN(2, len(sink), body) }), "ns")
	pool.Close()
	xs := make([]float64, 1<<16)
	for i := range xs {
		xs[i] = float64(mix64(uint64(i))%2001)/1000 - 1
	}
	var sum float64
	const sumLoops = 50
	set("reduce.sum_ns_per_elem", timeLoop(sumLoops, func(int) { sum += reduce.SumReproducible(xs) })/float64(len(xs)), "ns")
	_ = sum
	const cells = 54424 // a solve_cold CLAMR mesh after its AMR cycles
	state := make([]float64, cells)
	index := make([]int32, cells)
	const encodeLoops = 10
	set("checkpoint.encode_ms", timeLoop(encodeLoops, func(int) {
		cw := checkpoint.NewWriter(io.Discard, "clamr", 40, 0.1)
		for _, name := range []string{"H", "U", "V"} {
			cw.AddF64(name, state)
		}
		for _, name := range []string{"i", "j", "level"} {
			cw.AddI32(name, index)
		}
		_, _ = cw.Flush()
	})/1e6, "ms")
	return nil
}

// workerSideTrace is the span snapshot a typical lease ships back: solve with
// three phase aggregates, then the checkpoint.
func workerSideTrace() obs.TraceData {
	tr := obs.NewTrace("job-bench", "worker", obs.Str("worker", "worker-001"))
	solve := tr.Root().Child("solve", obs.Str("mode", "mixed"))
	for _, p := range []string{"timestep", "finite_diff", "amr"} {
		solve.AggregateChild("phase:"+p, time.Millisecond)
	}
	solve.End()
	tr.Root().AggregateChild("checkpoint", time.Millisecond, obs.Str("bytes", "4096"))
	tr.Root().End()
	return tr.Snapshot()
}
