package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A run sets its topology up from nothing several times; setup_s is the
// median and the last boot is the one measured against. A set-up that takes
// milliseconds (a bare daemon boot) is repeated more often, until the
// repeats together took setupMinTotal, so that its median is as steady as
// that of a set-up that preloads for a second.
const (
	setupMinRepeats = 3
	setupMaxRepeats = 15
	setupMinTotal   = time.Second
)

// drainGrace is how long after the window an operation may still finish
// before it counts as failed.
const drainGrace = 5 * time.Second

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envRecord is what a reader needs to compare two result files honestly.
type envRecord struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	JournalFS   string  `json:"journal_fs"`
	BuildS      float64 `json:"build_s"`
	WarmupS     float64 `json:"warmup_s"`
	WindowS     float64 `json:"window_s"`
	OpenLoop    bool    `json:"open_loop"`
	Clients     int     `json:"clients,omitempty"`
	RatePerS    float64 `json:"rate_per_s,omitempty"`
	LatLimitMs  float64 `json:"latency_limit_ms,omitempty"`
	SetupRuns   int     `json:"setup_runs"`
	FleetSize   int     `json:"fleet_workers"`
	SliceS      float64 `json:"trace_slice_s,omitempty"`
	HotBytes    int64   `json:"hot_bytes,omitempty"`
	PreloadKeys int     `json:"preload_keys,omitempty"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Traced   bool              `json:"traced"`
	Env      envRecord         `json:"env"`
	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
	// Samples is the number of foreground latency samples behind the
	// percentiles, BeyondP95 how many of them lie above lat_p95_ms.
	Samples   int `json:"samples"`
	BeyondP95 int `json:"beyond_p95"`
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Correct is false when any output check failed; Valid is false when
	// the generator itself disturbed the measurement (see Notes).
	Correct bool     `json:"correct"`
	Valid   bool     `json:"valid"`
	Notes   []string `json:"notes,omitempty"`
	// Errors holds the first few failures verbatim.
	Errors []string `json:"errors,omitempty"`
	// ByKind breaks the foreground latencies down by operation kind
	// (informational; the gated percentiles are over all kinds).
	ByKind map[string]kindStats `json:"by_kind,omitempty"`
	// LayerWalk is the traced run's in-process self-time table.
	LayerWalk *walkTable `json:"layer_walk,omitempty"`
}

// kindStats is one operation kind's share of the window.
type kindStats struct {
	Count int     `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

const maxReportedErrors = 8

func (r *runResult) addError(msg string) {
	if len(r.Errors) < maxReportedErrors {
		r.Errors = append(r.Errors, msg)
	}
}

// boundary is what the benchmark reads at each edge of the window.
type boundary struct {
	at        time.Time
	daemon    procUsage
	workers   procUsage
	selfCPU   float64
	journalB  int64
	campDone  int64
	prom      promSnapshot // traced runs only
	workerPro promSnapshot // traced fleet runs: sum over worker /metrics
	cache     *cacheStatsReply
}

// cacheStatsReply is the part of GET /v1/cache/stats the benchmark reads.
type cacheStatsReply struct {
	Scheduler struct {
		Failed float64 `json:"failed"`
	} `json:"scheduler"`
	Cache struct {
		HotHits    float64 `json:"hot_hits"`
		RemoteHits float64 `json:"remote_hits"`
		DiskHits   float64 `json:"disk_hits"`
		Misses     float64 `json:"misses"`
		Entries    float64 `json:"entries"`
		Bytes      float64 `json:"bytes"`
	} `json:"cache"`
}

// campaignView is the part of GET /v1/campaigns/{id} the benchmark reads.
type campaignView struct {
	ID         string `json:"id"`
	Aggregates struct {
		Running   int64 `json:"running"`
		Completed int64 `json:"completed"`
	} `json:"aggregates"`
	Jobs []struct {
		Index     int64  `json:"index"`
		JobID     string `json:"job_id"`
		SpecHash  string `json:"spec_hash"`
		Status    string `json:"status"`
		StateHash string `json:"state_hash"`
	} `json:"jobs"`
}

// sliceMark is one slice of a traced window: when it ran, whether the
// benchmark's tracing was on, and how many campaign jobs completed in it.
type sliceMark struct {
	start, end time.Time
	on         bool
	campDone   int64
}

// harness carries one run's state from set-up to the report.
type harness struct {
	env    *benchEnv
	def    *workloadDef
	seed   int64
	window time.Duration
	traced bool

	cl       *cluster
	hc       *httpClient
	rec      *recorder
	pre      []preloaded
	hotBytes int64
	setupS   []float64
	campID   string

	// outcomes is every operation executed, warm-up and drain included, in
	// completion order; in is the subset the window counts.
	outcomes []outcome
	in       []outcome
	// winStart and winEnd are the window's nominal edges: what an
	// operation's membership is decided against. t0 and t1 are the boundary
	// reads taken at them (a moment later), what rates are computed from.
	winStart, winEnd time.Time
	t0, t1           boundary
	samples          []sample    // traced: 1/s gauge samples
	slices           []sliceMark // traced: one per tracing-on or -off slice of the window
}

// maxListedInputs caps <workload>.inputs.ndjson; read_warm issues hundreds
// of thousands of reads and the head of the schedule shows the mix.
const maxListedInputs = 20000

// runWorkload sets the topology up, drives the workload, checks its outputs
// and reduces the measurements. The cluster is gone when it returns.
func runWorkload(ctx context.Context, env *benchEnv, def *workloadDef, seed int64, window time.Duration, traced bool) (*runResult, error) {
	h := &harness{env: env, def: def, seed: seed, window: window, traced: traced, rec: newRecorder()}
	// Every boot gets a directory of its own and takes it along when it goes:
	// a journal or cache left from an earlier boot would be recovered into
	// the next one.
	discard := func() {
		if h.cl != nil {
			h.cl.kill()
			_ = os.RemoveAll(h.cl.dir)
			h.cl = nil
		}
	}
	defer discard()
	if def.preload != nil {
		h.pre = def.preload(seed)
	}
	var setupTotal time.Duration
	for i := 0; i < setupMaxRepeats && (i < setupMinRepeats || setupTotal < setupMinTotal); i++ {
		discard()
		dir, err := os.MkdirTemp(env.runDir, def.name+"-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := h.setup(ctx, dir); err != nil {
			return nil, fmt.Errorf("set-up %d of %s: %w", i+1, def.name, err)
		}
		took := time.Since(start)
		setupTotal += took
		h.setupS = append(h.setupS, took.Seconds())
	}
	h.hc = newHTTPClient(h.cl.base, h.rec)
	defer h.hc.close()

	if err := h.measure(ctx); err != nil {
		return nil, err
	}
	res := h.reduce()
	if err := h.verify(ctx, res); err != nil {
		return nil, err
	}
	if traced {
		if err := h.layerMetrics(ctx, res); err != nil {
			return nil, err
		}
	}
	if err := h.writeArtifacts(res); err != nil {
		return nil, err
	}
	res.Correct = len(res.Errors) == 0 && res.Failed == 0
	return res, nil
}

// setup boots the workload's topology on dir and preloads its results:
// process start → /healthz ok → workers registered → preload done.
func (h *harness) setup(ctx context.Context, dir string) error {
	cl, err := h.env.bootDaemon(dir, h.def.node)
	if err != nil {
		return err
	}
	h.cl = cl
	if n := h.def.node.fleetWorkers; n > 0 {
		if err := h.env.bootWorkers(cl, n); err != nil {
			return err
		}
	}
	if len(h.pre) == 0 {
		return nil
	}
	if err := h.preloadResults(ctx); err != nil {
		return err
	}
	if h.def.hotShare <= 0 {
		return nil
	}
	// Size the hot tier against what was actually stored, then restart on
	// the same cache: the daemon comes back with every result on disk, an
	// empty hot tier and no job records.
	var total int64
	for _, p := range h.pre {
		total += int64(len(p.Payload))
	}
	h.hotBytes = int64(h.def.hotShare * float64(total))
	cl.daemon.stop(syscall.SIGTERM, 3*time.Second)
	opts := h.def.node
	opts.hotBytes = h.hotBytes
	cl, err = h.env.bootDaemon(dir, opts)
	if err != nil {
		return err
	}
	h.cl = cl
	return nil
}

// preloadResults computes every preload spec through the service, two at a
// time, and keeps the canonical bytes of each.
func (h *harness) preloadResults(ctx context.Context) error {
	hc := newHTTPClient(h.cl.base, nil)
	defer hc.close()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(h.pre); i += 2 {
				s := hc.submitAndFetch(ctx, noSpan, &h.pre[i].Spec)
				if s.err == nil && s.view.SpecHash != h.pre[i].Hash {
					s.err = fmt.Errorf("spec_hash %s, computed locally %s", s.view.SpecHash, h.pre[i].Hash)
				}
				if s.err != nil {
					errs[g] = fmt.Errorf("preload %d: %w", i, s.err)
					return
				}
				h.pre[i].Payload = s.payload
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// readBoundary reads the window edge. Untraced runs touch the servers only
// where a workload's definition needs a server-side count (campaign
// completions); traced runs also scrape /metrics and /v1/cache/stats.
func (h *harness) readBoundary(ctx context.Context) (boundary, error) {
	b := boundary{at: time.Now(), selfCPU: selfCPU()}
	var err error
	if b.daemon, b.workers, err = h.cl.usage(); err != nil {
		return b, err
	}
	if st, err := os.Stat(h.cl.journal); err == nil {
		b.journalB = st.Size()
	}
	if h.campID != "" {
		var v campaignView
		if err := h.hc.getJSON(ctx, "/v1/campaigns/"+h.campID, &v); err != nil {
			return b, err
		}
		b.campDone = v.Aggregates.Completed
	}
	if h.traced {
		if b.prom, _, err = h.scrape(ctx, h.cl.base+"/metrics"); err != nil {
			return b, err
		}
		b.cache = new(cacheStatsReply)
		if err := h.hc.getJSON(ctx, "/v1/cache/stats", b.cache); err != nil {
			return b, err
		}
		if b.workerPro, err = h.scrapeWorkers(ctx); err != nil {
			return b, err
		}
	}
	return b, nil
}

// measure drives the workload: warm-up, then the window between two
// boundary reads, then a bounded drain.
func (h *harness) measure(ctx context.Context) error {
	if h.def.prime != nil {
		if err := h.def.prime(ctx, h); err != nil {
			return fmt.Errorf("prime %s: %w", h.def.name, err)
		}
	}
	start := time.Now()
	tWarm := start.Add(time.Duration(h.def.warmup * float64(time.Second)))
	tEnd := tWarm.Add(h.window)
	opCtx, cancel := context.WithDeadline(ctx, tEnd.Add(drainGrace))
	defer cancel()
	h.winStart, h.winEnd = tWarm, tEnd

	if h.def.campaign != nil {
		body, err := json.Marshal(h.def.campaign(h.seed))
		if err != nil {
			return err
		}
		status, data, _, err := h.hc.call(ctx, "", noSpan, http.MethodPost, "/v1/campaigns", body, "")
		if err != nil {
			return err
		}
		var v campaignView
		if status != http.StatusAccepted || json.Unmarshal(data, &v) != nil || v.ID == "" {
			return fmt.Errorf("submit campaign: %d %s", status, data)
		}
		h.campID = v.ID
	}

	var (
		wg   sync.WaitGroup
		outs [][]outcome // one slice per goroutine, merged after wg.Wait
	)
	if h.def.open {
		outs = make([][]outcome, openLoopClients)
		gen := h.def.stream(h.seed, 0, h.pre, h.def.rate)
		n := int(h.def.rate*(h.def.warmup+h.window.Seconds())) + 2
		// The generator must never wait for an executor, or the loop is no
		// longer open: the channel holds the whole schedule.
		due := make(chan *outcome, n)
		for e := 0; e < openLoopClients; e++ {
			wg.Add(1)
			go func(e int) {
				defer wg.Done()
				for o := range due {
					h.hc.execute(opCtx, o, h.pre, e)
					outs[e] = append(outs[e], *o)
				}
			}(e)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(due)
			for {
				o := &outcome{op: gen()}
				o.due = start.Add(time.Duration(o.op.DueMs * float64(time.Millisecond)))
				if !o.due.Before(tEnd) {
					return
				}
				select {
				case <-time.After(time.Until(o.due)):
				case <-opCtx.Done():
					return
				}
				due <- o
			}
		}()
	} else {
		outs = make([][]outcome, h.def.clients)
		for s := 0; s < h.def.clients; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				gen := h.def.stream(h.seed, s, h.pre, h.def.rate)
				for time.Now().Before(tEnd) && opCtx.Err() == nil {
					o := outcome{op: gen()}
					h.hc.execute(opCtx, &o, h.pre, s)
					outs[s] = append(outs[s], o)
				}
			}(s)
		}
	}

	// The window's clock: read the boundaries on time, toggle tracing by
	// slice, and stop everything the moment a server dies.
	err := h.clock(ctx, tWarm, tEnd)
	if err != nil {
		cancel()
	}
	wg.Wait()
	if err != nil {
		return err
	}
	if err := h.cl.alive(); err != nil {
		return err
	}
	for _, o := range outs {
		h.outcomes = append(h.outcomes, o...)
	}
	sort.Slice(h.outcomes, func(a, b int) bool { return h.outcomes[a].end.Before(h.outcomes[b].end) })
	for _, o := range h.outcomes {
		// A closed-loop operation counts when it completed inside the
		// window; an open-loop one when it was due inside it.
		at := o.end
		if h.def.open {
			at = o.due
		}
		if !at.Before(h.winStart) && at.Before(h.winEnd) {
			h.in = append(h.in, o)
		}
	}
	return h.stopCampaign(ctx)
}

// traceSlice is the length of one tracing-on or tracing-off slice of a
// traced window: the same servers, the same minute, alternating, so the
// difference in throughput between the two kinds of slice is the cost of the
// benchmark's own tracing and sampling.
const traceSlice = 2500 * time.Millisecond

func (h *harness) clock(ctx context.Context, tWarm, tEnd time.Time) error {
	sleepUntil := func(t time.Time) error {
		for {
			if err := h.cl.alive(); err != nil {
				return err
			}
			d := time.Until(t)
			if d <= 0 {
				return nil
			}
			if d > 100*time.Millisecond {
				d = 100 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(d):
			}
		}
	}
	if err := sleepUntil(tWarm); err != nil {
		return err
	}
	var err error
	if h.t0, err = h.readBoundary(ctx); err != nil {
		return err
	}
	if h.traced {
		stop := make(chan struct{})
		var swg sync.WaitGroup
		swg.Add(1)
		go func() { defer swg.Done(); h.sampler(ctx, stop) }()
		campDone := h.t0.campDone
		for slice := 0; ; slice++ {
			mark := sliceMark{start: time.Now(), on: slice%2 == 0}
			h.rec.enable(mark.on)
			next := tWarm.Add(time.Duration(slice+1) * traceSlice)
			if next.After(tEnd) {
				next = tEnd
			}
			err := sleepUntil(next)
			if err == nil && h.campID != "" {
				var v campaignView
				if err = h.hc.getJSON(ctx, "/v1/campaigns/"+h.campID, &v); err == nil {
					mark.campDone, campDone = v.Aggregates.Completed-campDone, v.Aggregates.Completed
				}
			}
			if err != nil {
				close(stop)
				swg.Wait()
				return err
			}
			mark.end = time.Now()
			h.slices = append(h.slices, mark)
			if !next.Before(tEnd) {
				break
			}
		}
		h.rec.enable(false)
		close(stop)
		swg.Wait()
	} else if err := sleepUntil(tEnd); err != nil {
		return err
	}
	h.t1, err = h.readBoundary(ctx)
	return err
}

// stopCampaign cancels the background campaign and waits for the jobs it
// had already admitted.
func (h *harness) stopCampaign(ctx context.Context) error {
	if h.campID == "" {
		return nil
	}
	if _, _, _, err := h.hc.call(ctx, "", noSpan, http.MethodDelete, "/v1/campaigns/"+h.campID, nil, ""); err != nil {
		return err
	}
	deadline := time.Now().Add(drainGrace)
	for {
		var v campaignView
		if err := h.hc.getJSON(ctx, "/v1/campaigns/"+h.campID, &v); err != nil {
			return err
		}
		if v.Aggregates.Running == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("campaign %s still has %d jobs running %v after cancellation", h.campID, v.Aggregates.Running, drainGrace)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// reduce turns the window's outcomes and boundary reads into the end-to-end
// metrics.
func (h *harness) reduce() *runResult {
	res := &runResult{
		Workload: h.def.name, Seed: h.seed, Traced: h.traced, Valid: true,
		EndToEnd: map[string]metric{},
		Env: envRecord{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: gitCommit(h.env.benchDir), JournalFS: fsType(h.cl.dir), BuildS: h.env.buildS,
			WarmupS: h.def.warmup, WindowS: h.t1.at.Sub(h.t0.at).Seconds(),
			OpenLoop: h.def.open, Clients: h.def.clients, RatePerS: h.def.rate, LatLimitMs: h.def.limitMs,
			SetupRuns: len(h.setupS), FleetSize: h.def.node.fleetWorkers,
			HotBytes: h.hotBytes, PreloadKeys: len(h.pre),
		},
	}
	if h.traced {
		res.Env.SliceS = traceSlice.Seconds()
	}
	windowS := res.Env.WindowS
	var lat, late []float64
	byKind := map[string][]float64{}
	good := 0
	for _, o := range h.in {
		res.Attempted++
		if o.err != "" {
			res.Failed++
			res.addError(fmt.Sprintf("%s #%d: %s", o.op.Kind, o.op.Seq, o.err))
			continue
		}
		lat = append(lat, o.latencyMs())
		byKind[o.op.Kind] = append(byKind[o.op.Kind], o.latencyMs())
		if h.def.open {
			late = append(late, float64(o.start.Sub(o.due))/1e6)
			if o.latencyMs() > h.def.limitMs {
				continue // completed and correct, but not goodput
			}
		}
		good++
	}
	// A closed-loop operation in flight at the end of the window may finish
	// during the drain and is then simply not counted; one that fails there,
	// or is cut off by the drain deadline, is a failure.
	for _, o := range h.outcomes {
		if !h.def.open && !o.end.Before(h.winEnd) && o.err != "" {
			res.Attempted++
			res.Failed++
			res.addError(fmt.Sprintf("%s #%d (draining): %s", o.op.Kind, o.op.Seq, o.err))
		}
	}
	ops := float64(good) + float64(h.t1.campDone-h.t0.campDone)
	cpuS := (h.t1.daemon.cpuS - h.t0.daemon.cpuS) + (h.t1.workers.cpuS - h.t0.workers.cpuS)
	res.Samples, res.BeyondP95 = len(lat), samplesBeyond(len(lat), 95)
	res.ByKind = map[string]kindStats{}
	for kind, xs := range byKind {
		res.ByKind[kind] = kindStats{len(xs), percentile(xs, 50), percentile(xs, 95)}
	}
	res.EndToEnd["setup_s"] = metric{median(h.setupS), "s"}
	res.EndToEnd["ops_per_s"] = metric{ops / windowS, "1/s"}
	res.EndToEnd["lat_p50_ms"] = metric{percentile(lat, 50), "ms"}
	res.EndToEnd["lat_p95_ms"] = metric{percentile(lat, 95), "ms"}
	if ops > 0 {
		res.EndToEnd["cpu_ms_per_op"] = metric{cpuS * 1000 / ops, "ms"}
	} else {
		res.EndToEnd["cpu_ms_per_op"] = metric{0, "ms"}
	}
	res.EndToEnd["peak_rss_mb"] = metric{h.t1.daemon.hwmMB + h.t1.workers.hwmMB, "MiB"}

	if res.Samples < 200 {
		res.note("only %d foreground latency samples (want ≥ 200 for a p95 with ten beyond it)", res.Samples)
	}
	benchShare := (h.t1.selfCPU - h.t0.selfCPU) / windowS
	if h.def.open {
		gapMs := 1000 / h.def.rate
		if p := percentile(late, 95); p > 0.1*gapMs {
			res.Valid = false
			res.note("generator ran late: p95 %.2f ms exceeds a tenth of the %.0f ms inter-arrival gap", p, gapMs)
		}
		if benchShare > 0.3 {
			res.Valid = false
			res.note("the generator used %.2f of a core; an open loop above 0.3 competes with the servers", benchShare)
		}
	}
	return res
}

// gitCommit names the checkout's commit when it is a git repository (the
// driver's checkouts are not).
func gitCommit(benchDir string) string {
	head, err := os.ReadFile(filepath.Join(benchDir, "..", ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if rest, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(benchDir, "..", ".git", rest))
		if err != nil {
			return ref
		}
		return strings.TrimSpace(string(data))
	}
	return ref
}
