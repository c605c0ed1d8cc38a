package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro"
	"repro/internal/runner"
)

// Operation kinds. A kind names what the benchmark does, never anything the
// servers are told: they receive only experiment specs.
const (
	kindSolve    = "solve"    // unique spec: POST /v1/jobs, blocking GET …/result
	kindResubmit = "resubmit" // preloaded spec again: POST (born done) + GET …/result
	kindRead200  = "read_200" // GET /v1/results/{hash}, expects the body
	kindRead304  = "read_304" // same with If-None-Match, expects no body
	kindWarm     = "warm"     // fleet: a spec computed during set-up, again
	kindPair     = "pair"     // fleet: one unique spec submitted twice at once
	kindAuto     = "auto"     // fleet: mode "auto" with a loose accuracy budget
)

// op is one scheduled operation. The schedule is a pure function of the
// workload and the seed; bench/out/<workload>.inputs.ndjson lists it.
type op struct {
	Seq    int     `json:"seq"`
	Stream int     `json:"stream"`
	Kind   string  `json:"kind"`
	DueMs  float64 `json:"due_ms,omitempty"` // open loop: offset from the start of warm-up
	Key    int     `json:"key,omitempty"`    // index into the preloaded set
	Shape  string  `json:"shape,omitempty"`
	// Spec is what is sent; Hash its locally computed content address ("" for
	// auto specs, whose concrete mode the service picks).
	Spec *runner.ExperimentSpec `json:"spec,omitempty"`
	Hash string                 `json:"hash,omitempty"`
}

// preloaded is one result the set-up phase computes before measurement.
type preloaded struct {
	Spec runner.ExperimentSpec
	Hash string
	// Payload is the canonical result bytes, fetched once at set-up; every
	// later read of the key must return exactly these.
	Payload []byte
}

// workloadDef is one traffic mix. Sizes are fixed here, not flags: a
// benchmark whose workloads can be tuned per run compares nothing.
type workloadDef struct {
	name string
	// open selects an open loop at rate ops/s; otherwise clients closed-loop
	// streams run back to back.
	open    bool
	clients int
	rate    float64
	// limitMs is the committed latency limit of an open loop: an operation
	// slower than this (from the time it was due) is not goodput.
	limitMs float64
	warmup  float64 // seconds of unmeasured traffic before the window
	node    nodeOpts
	// preload lists the results set-up computes (nil: none).
	preload func(seed int64) []preloaded
	// hotShare, when > 0, restarts the daemon after preloading with a hot
	// tier of this share of the preloaded bytes.
	hotShare float64
	// campaign, when set, is the background campaign submitted at the start
	// of warm-up and cancelled after the window.
	campaign func(seed int64) campaignSpec
	// prime, when set, runs once before warm-up starts (unmeasured, and not
	// part of setup_s): state the service learns lazily, brought to where a
	// long-running service has it.
	prime func(ctx context.Context, h *harness) error
	// stream builds the generator of one stream's operations.
	stream func(seed int64, stream int, pre []preloaded, rate float64) func() op
}

// Latency limits and the fleet rate were committed from the seed
// measurement (see README.md, "Committed constants"): the limit is twice
// the seed p95, the fleet rate about half the measured cold capacity.
const (
	probeRate       = 10.0
	probeLimitMs    = 32.0
	fleetRate       = 8.0
	fleetLimitMs    = 150.0
	openLoopClients = 16
)

var workloads = []*workloadDef{
	{
		// every spec unique and mid-size: the solve is >90% of submit-to-result,
		// so kernel and precision work shows here and journal/cache/api work
		// does not
		name:    "solve_cold",
		clients: 2,
		warmup:  2,
		node:    nodeOpts{hotBytes: -1},
		stream:  solveColdStream,
	},
	{
		// no solve and no journal record: api, cache tiers and spec hashing do
		// all the work, with the hot tier a quarter of the working set so
		// eviction policy matters
		name:     "read_warm",
		clients:  2,
		warmup:   2,
		node:     nodeOpts{hotBytes: -1},
		preload:  readWarmPreload,
		hotShare: 0.25,
		stream:   readWarmStream,
	},
	{
		// write-side twin of read_warm: tiny unique jobs make journal fsync
		// under the scheduler lock, the campaign pump and the interactive
		// reserve set both throughput and probe latency
		name:     "campaign_admit",
		open:     true,
		rate:     probeRate,
		limitMs:  probeLimitMs,
		warmup:   5,
		node:     nodeOpts{hotBytes: -1},
		campaign: admitCampaign,
		stream:   probeStream,
	},
	{
		// the only workload where lease long-poll, heartbeat, upload, replica
		// pull-back and autotune sit on the blocking path; the three local
		// workloads must stay flat under a fleet-transport change
		name:    "fleet_mixed",
		open:    true,
		rate:    fleetRate,
		limitMs: fleetLimitMs,
		warmup:  1,
		node:    nodeOpts{fleetWorkers: 2, hotBytes: -1},
		preload: fleetPreload,
		prime:   fleetPrime,
		stream:  fleetStream,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// mix64 is SplitMix64's finalizer: decorrelates seeds derived from small
// integers.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func streamRNG(seed int64, salt uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(uint64(seed) ^ mix64(salt)))))
}

// Unique specs keep their shape and perturb dry_tol, CLAMR's dry-cell height
// floor: the dam-break heights are O(1), so a floor anywhere in [1e-6, 1e-5)
// changes the content address and not one flop. Values are d.NNNNNNNNNe-06
// with the leading digit naming a class (so a probe can never collide with a
// campaign job) and the nine digits a seed-derived base plus a counter.
const tolSpace = 1_000_000_000

func uniqueTol(class int, seed int64, n uint64) float64 {
	base := mix64(uint64(seed)^mix64(uint64(class))) % tolSpace
	s := fmt.Sprintf("%d.%09de-06", class, (base+n)%tolSpace)
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic(err) // the format above always parses
	}
	return v
}

// dry_tol classes.
const (
	tolCampaign = 1
	tolProbe    = 2
	tolPreload  = 3
	tolSolve    = 4
	tolFleet    = 5
	tolPair     = 6
)

// mustHash computes a spec's content address with the same code the servers
// use; every response is checked against it.
func mustHash(s runner.ExperimentSpec) string {
	h, err := s.Hash()
	if err != nil {
		panic(fmt.Sprintf("bench: generated an invalid spec %+v: %v", s, err))
	}
	return h
}

func shapeOf(s runner.ExperimentSpec) string { return s.App + "_" + s.Mode }

// shuffledCycle yields 0..n-1 in blocks, each block a fresh permutation, so
// every window sees the same mix whatever the seed and only the order moves.
func shuffledCycle(rng *rand.Rand, n int) func() int {
	var block []int
	return func() int {
		if len(block) == 0 {
			block = rng.Perm(n)
		}
		v := block[0]
		block = block[1:]
		return v
	}
}

// --- solve_cold ---------------------------------------------------------

// solveShapes are the paper's mid-size runs: CLAMR 128² with two AMR levels
// at three precisions and two kernels, SELF 4³ elements of order 5 at two.
// Step counts are cut from the paper's (100 and 20) so that two closed-loop
// clients complete well over 200 solves in the window on two cores.
func solveShapes() []runner.ExperimentSpec {
	var out []runner.ExperimentSpec
	for _, mode := range []string{"min", "mixed", "full"} {
		for _, kernel := range []string{"unvectorized", "vectorized"} {
			out = append(out, runner.ExperimentSpec{
				App: runner.AppCLAMR, Mode: mode, Steps: 50,
				NX: 128, NY: 128, MaxLevel: 2, Kernel: kernel, AMRInterval: 20,
			})
		}
	}
	for _, mode := range []string{"min", "full"} {
		out = append(out, runner.ExperimentSpec{
			App: runner.AppSELF, Mode: mode, Steps: 5, Elements: 4, Order: 5,
		})
	}
	return out
}

// selfLineCutBase: SELF has no dry_tol, so unique SELF specs vary the line
// cut resolution (a few samples of post-processing, nothing in the solve).
const selfLineCutBase = 16

func solveColdStream(seed int64, stream int, _ []preloaded, _ float64) func() op {
	shapes := solveShapes()
	rng := streamRNG(seed, uint64(stream)+1)
	pick := shuffledCycle(rng, len(shapes))
	seq, nSelf := 0, 0
	return func() op {
		spec := shapes[pick()]
		if spec.App == runner.AppCLAMR {
			spec.DryTol = uniqueTol(tolSolve, seed, uint64(seq*2+stream))
		} else {
			spec.LineCutN = selfLineCutBase + nSelf*2 + stream
			nSelf++
		}
		o := op{Seq: seq, Stream: stream, Kind: kindSolve, Shape: shapeOf(spec), Spec: &spec, Hash: mustHash(spec)}
		seq++
		return o
	}
}

// --- read_warm ----------------------------------------------------------

const readWarmKeys = 256

// tinySpec is the smallest useful CLAMR run (~0.6 ms): 16² cells, one AMR
// level, five steps.
func tinySpec(mode string, tol float64) runner.ExperimentSpec {
	return runner.ExperimentSpec{
		App: runner.AppCLAMR, Mode: mode, Steps: 5,
		NX: 16, NY: 16, MaxLevel: 1, DryTol: tol,
	}
}

var tinyModes = []string{"min", "mixed", "full"}

func readWarmPreload(seed int64) []preloaded {
	out := make([]preloaded, readWarmKeys)
	for i := range out {
		spec := tinySpec(tinyModes[i%len(tinyModes)], uniqueTol(tolPreload, seed, uint64(i)))
		out[i] = preloaded{Spec: spec, Hash: mustHash(spec)}
	}
	return out
}

func readWarmStream(seed int64, stream int, pre []preloaded, _ float64) func() op {
	rng := streamRNG(seed, uint64(stream)+1)
	// Key popularity is Zipf(1.1): rank k is drawn with weight (1+k)^-1.1.
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(pre)-1))
	kinds := []string{kindResubmit, kindResubmit, kindRead200, kindRead200, kindRead304}
	pick := shuffledCycle(rng, len(kinds))
	seq := 0
	return func() op {
		k := int(zipf.Uint64())
		o := op{Seq: seq, Stream: stream, Kind: kinds[pick()], Key: k, Hash: pre[k].Hash}
		if o.Kind == kindResubmit {
			o.Spec = &pre[k].Spec
		}
		seq++
		return o
	}
}

// --- campaign_admit -----------------------------------------------------

// campaignSpec mirrors the JSON shape POST /v1/campaigns accepts; the
// benchmark builds it itself so that nothing but the wire format couples it
// to the server's campaign package.
type campaignSpec struct {
	Generator struct {
		Kind string                `json:"kind"`
		Base runner.ExperimentSpec `json:"base"`
		Axes []campaignAxis        `json:"axes"`
	} `json:"generator"`
}

type campaignAxis struct {
	Field  string `json:"field"`
	Values []any  `json:"values"`
}

// campaignTols × 3 modes = 90 000 tiny jobs: at the seed's ~500 jobs/s that
// outlasts warm-up plus window five times over, and still would after a 4×
// admission speed-up.
const campaignTols = 30000

func admitCampaign(seed int64) campaignSpec {
	var c campaignSpec
	c.Generator.Kind = "grid"
	c.Generator.Base = tinySpec("min", 0)
	tols := make([]any, campaignTols)
	for i := range tols {
		tols[i] = uniqueTol(tolCampaign, seed, uint64(i))
	}
	modes := make([]any, len(tinyModes))
	for i, m := range tinyModes {
		modes[i] = m
	}
	c.Generator.Axes = []campaignAxis{{Field: "dry_tol", Values: tols}, {Field: "mode", Values: modes}}
	return c
}

// campaignJobSpec is index i of that grid (axes[0] slowest), for checking
// the server's expansion against a local one.
func campaignJobSpec(seed int64, i int) runner.ExperimentSpec {
	return tinySpec(tinyModes[i%len(tinyModes)], uniqueTol(tolCampaign, seed, uint64(i/len(tinyModes))))
}

func probeStream(seed int64, _ int, _ []preloaded, rate float64) func() op {
	gap := 1000 / rate
	seq := 0
	return func() op {
		spec := tinySpec(tinyModes[seq%len(tinyModes)], uniqueTol(tolProbe, seed, uint64(seq)))
		o := op{Seq: seq, Kind: kindSolve, DueMs: float64(seq) * gap, Shape: shapeOf(spec), Spec: &spec, Hash: mustHash(spec)}
		seq++
		return o
	}
}

// --- fleet_mixed --------------------------------------------------------

// fleetShapes are the eleven runs behind a quick-scale paper sweep, 20–125 ms
// each.
func fleetShapes() []runner.ExperimentSpec { return runner.SweepSpecs(repro.QuickScale) }

// fleetPreload computes the unperturbed sweep once during set-up; the warm
// repeats of the mix are resubmissions of these.
func fleetPreload(int64) []preloaded {
	shapes := fleetShapes()
	out := make([]preloaded, len(shapes))
	for i, s := range shapes {
		out[i] = preloaded{Spec: s, Hash: mustHash(s)}
	}
	return out
}

// autoBudget is loose enough that every precision rung meets it once the
// fleet has evidence for the shape.
const autoBudget = 1e-3

// autoShape is the scenario the auto specs revisit: the quick sweep's 48²
// vectorized CLAMR run. Autotune keys its table on the spec with mode, steps
// and budgets erased, so varying the step count keeps every auto spec unique
// while all of them teach and consult one table entry.
func autoShape() runner.ExperimentSpec {
	for _, s := range fleetShapes() {
		if s.App == runner.AppCLAMR && s.Kernel == "vectorized" {
			s.Mode, s.MaxMassError = runner.ModeAuto, autoBudget
			return s
		}
	}
	panic("bench: the quick sweep has no vectorized CLAMR shape")
}

// Step counts of auto specs: priming uses [primeSteps, windowSteps), the
// schedule counts up from windowSteps.
const (
	primeSteps  = 15
	windowSteps = 55
)

// fleetPrime walks the auto shape's precision ladder to its bottom before
// warm-up. A fresh autotune table demotes one rung per three clean results,
// and each demotion probe holds both workers for about a second (the probe's
// result is never cached, so the workers' replica pull-back retries ten
// times): a learning transient a service pays once per shape, which would
// otherwise land in some windows and not in others.
func fleetPrime(ctx context.Context, h *harness) error {
	hc := newHTTPClient(h.cl.base, nil)
	defer hc.close()
	spec := autoShape()
	for steps := primeSteps; steps < windowSteps; steps++ {
		spec.Steps = steps
		s := hc.submitAndFetch(ctx, noSpan, &spec)
		if s.err != nil {
			return s.err
		}
		if s.view.TunedMode == "half" {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(150 * time.Millisecond):
		}
	}
	return nil // the ladder did not reach its bottom; the run measures it as it is
}

func fleetStream(seed int64, _ int, pre []preloaded, rate float64) func() op {
	shapes := fleetShapes()
	var clamrShapes []runner.ExperimentSpec
	for _, s := range shapes {
		if s.App == runner.AppCLAMR {
			clamrShapes = append(clamrShapes, s)
		}
	}
	rng := streamRNG(seed, 1)
	// Blocks of twenty: 10 cold, 5 warm, 3 duplicate pairs, 2 auto.
	var kinds []string
	for _, k := range []struct {
		kind string
		n    int
	}{{kindSolve, 10}, {kindWarm, 5}, {kindPair, 3}, {kindAuto, 2}} {
		for i := 0; i < k.n; i++ {
			kinds = append(kinds, k.kind)
		}
	}
	pickKind := shuffledCycle(rng, len(kinds))
	pickCold := shuffledCycle(rng, len(shapes))
	pickPair := shuffledCycle(rng, len(clamrShapes))
	pickWarm := shuffledCycle(rng, len(pre))
	gap := 1000 / rate
	seq, nCold, nPair, nAuto, nSelf := 0, 0, 0, 0, 0
	return func() op {
		o := op{Seq: seq, Kind: kinds[pickKind()], DueMs: float64(seq) * gap}
		switch o.Kind {
		case kindSolve:
			spec := shapes[pickCold()]
			if spec.App == runner.AppCLAMR {
				spec.DryTol = uniqueTol(tolFleet, seed, uint64(nCold))
			} else {
				spec.LineCutN += 1 + nSelf
				nSelf++
			}
			nCold++
			o.Spec, o.Hash = &spec, mustHash(spec)
		case kindWarm:
			o.Key = pickWarm()
			o.Spec, o.Hash = &pre[o.Key].Spec, pre[o.Key].Hash
		case kindPair:
			spec := clamrShapes[pickPair()]
			spec.DryTol = uniqueTol(tolPair, seed, uint64(nPair))
			nPair++
			o.Spec, o.Hash = &spec, mustHash(spec)
		case kindAuto:
			spec := autoShape()
			spec.Steps = windowSteps + nAuto
			nAuto++
			o.Spec = &spec
		}
		o.Shape = shapeOf(*o.Spec)
		seq++
		return o
	}
}
