package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"sort"

	"repro/internal/runner"
)

// Aggregates is the running summary a campaign streams over NDJSON: the
// online version of the paper's sweep tables. Counts advance as jobs
// reach terminal states; the statistical fields fold in every completed
// result — including deduped jobs, whose cached payloads are folded in at
// admission so a warm campaign still reports full statistics.
type Aggregates struct {
	Total     int64 `json:"total"`
	Expanded  int64 `json:"expanded"`
	Admitted  int64 `json:"admitted"`
	Running   int64 `json:"running"`
	Completed int64 `json:"completed"`
	Deduped   int64 `json:"deduped"`
	Recovered int64 `json:"recovered,omitempty"`
	Failed    int64 `json:"failed"`

	// MassError summarizes conservation error over completed runs that
	// report one (CLAMR).
	MassError *Quantiles `json:"mass_error,omitempty"`
	// LineCutDelta is the max-abs deviation of each non-full line cut
	// from the full-precision run of the same scenario, when the campaign
	// contains both.
	LineCutDelta *DeltaStats `json:"line_cut_delta,omitempty"`
	// Energy, when any completed result carried energy accounting, sums
	// the fleet's modeled joules and dollars over the campaign — the
	// $/experiment figure the client prints.
	Energy *EnergyStats `json:"energy,omitempty"`
	// PerMode keys on the submitted precision mode.
	PerMode map[string]*ModeStats `json:"per_mode,omitempty"`
	// ResultDigest is the SHA-256 over the sorted "spec_hash state_hash"
	// pairs of completed jobs, set once the campaign is terminal — the
	// bit-match handle smoke tests compare against a client-side sweep.
	ResultDigest string `json:"result_digest,omitempty"`
}

// Quantiles are nearest-rank quantiles over an observed sample.
type Quantiles struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// DeltaStats summarize line-cut deviations from the full-precision run.
type DeltaStats struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
}

// EnergyStats is the campaign's modeled energy/cost roll-up: sums over
// every completed result that carried per-job accounting. Jobs counts the
// contributors, so a partially accounted campaign (some workers registered
// without an arch profile) is visible as Jobs < Completed.
type EnergyStats struct {
	Jobs        int64   `json:"jobs"`
	Joules      float64 `json:"joules"`
	CostDollars float64 `json:"cost_dollars"`
}

// ModeStats is the per-precision slice of the aggregates.
type ModeStats struct {
	Jobs      int64 `json:"jobs"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Escalated int64 `json:"escalated"`
	// EscalationRate is Escalated / Completed — the online per-precision
	// escalation-rate trend.
	EscalationRate float64      `json:"escalation_rate"`
	LineCutDelta   *DeltaStats  `json:"line_cut_delta,omitempty"`
	Energy         *EnergyStats `json:"energy,omitempty"`
}

// agg accumulates the statistical half of Aggregates. Counts live on the
// campaign; agg owns mass-error samples, per-mode tallies and the
// line-cut-vs-full matching. Callers hold the campaign lock.
type agg struct {
	massErrs []float64
	sorted   bool

	modes     map[string]*modeAcc
	scenarios map[string]*scenario

	deltaN   int64
	deltaSum float64
	deltaMax float64

	energyJobs   int64
	joules, cost float64
}

type modeAcc struct {
	jobs, completed, failed, escalated int64
	deltaN                             int64
	deltaSum, deltaMax                 float64
	energyJobs                         int64
	joules, cost                       float64
}

// scenario tracks one problem (spec with mode erased) so non-full line
// cuts can be diffed against the full-precision reference regardless of
// the order results land in.
type scenario struct {
	fullY   []float64
	pending []pendingCut
}

type pendingCut struct {
	mode string
	y    []float64
}

func newAgg() *agg {
	return &agg{modes: make(map[string]*modeAcc), scenarios: make(map[string]*scenario)}
}

func (a *agg) mode(m string) *modeAcc {
	acc, ok := a.modes[m]
	if !ok {
		acc = &modeAcc{}
		a.modes[m] = acc
	}
	return acc
}

// admit records one admitted index under its submitted mode. (The three
// folds share the outcome table's signature; only complete reads a result.)
func (a *agg) admit(mode string, _ *runner.Result) { a.mode(mode).jobs++ }

// fail records a terminal failure under its submitted mode.
func (a *agg) fail(mode string, _ *runner.Result) { a.mode(mode).failed++ }

// complete folds one completed result in under its submitted mode.
func (a *agg) complete(mode string, res *runner.Result) {
	acc := a.mode(mode)
	acc.completed++
	if len(res.Escalations) > 0 {
		acc.escalated++
	}
	if e := res.Energy; e != nil {
		a.energyJobs++
		a.joules += e.Joules
		a.cost += e.CostDollars
		acc.energyJobs++
		acc.joules += e.Joules
		acc.cost += e.CostDollars
	}
	if res.MassError != nil {
		a.massErrs = append(a.massErrs, math.Abs(*res.MassError))
		a.sorted = false
	}
	if res.LineCut == nil {
		return
	}
	key := scenarioKey(res.Spec)
	sc, ok := a.scenarios[key]
	if !ok {
		sc = &scenario{}
		a.scenarios[key] = sc
	}
	// res.Spec carries the mode that actually ran, so a min job that
	// escalated to full doubles as the scenario's full reference.
	if res.Spec.Mode == "full" && sc.fullY == nil {
		sc.fullY = append([]float64(nil), res.LineCut.Y...)
		for _, p := range sc.pending {
			a.recordDelta(p.mode, maxAbsDiff(p.y, sc.fullY))
		}
		sc.pending = nil
	}
	if mode == "full" {
		return
	}
	if sc.fullY != nil {
		a.recordDelta(mode, maxAbsDiff(res.LineCut.Y, sc.fullY))
	} else {
		sc.pending = append(sc.pending, pendingCut{mode: mode, y: append([]float64(nil), res.LineCut.Y...)})
	}
}

func (a *agg) recordDelta(mode string, d float64) {
	a.deltaN++
	a.deltaSum += d
	if d > a.deltaMax {
		a.deltaMax = d
	}
	acc := a.mode(mode)
	acc.deltaN++
	acc.deltaSum += d
	if d > acc.deltaMax {
		acc.deltaMax = d
	}
}

// stats renders the statistical fields into out.
func (a *agg) stats(out *Aggregates) {
	if n := len(a.massErrs); n > 0 {
		if !a.sorted {
			sort.Float64s(a.massErrs)
			a.sorted = true
		}
		out.MassError = &Quantiles{
			Count: int64(n),
			P50:   rank(a.massErrs, 0.50),
			P90:   rank(a.massErrs, 0.90),
			P99:   rank(a.massErrs, 0.99),
			Max:   a.massErrs[n-1],
		}
	}
	if a.deltaN > 0 {
		out.LineCutDelta = &DeltaStats{Count: a.deltaN, Mean: a.deltaSum / float64(a.deltaN), Max: a.deltaMax}
	}
	if a.energyJobs > 0 {
		out.Energy = &EnergyStats{Jobs: a.energyJobs, Joules: a.joules, CostDollars: a.cost}
	}
	if len(a.modes) > 0 {
		out.PerMode = make(map[string]*ModeStats, len(a.modes))
		for m, acc := range a.modes {
			ms := &ModeStats{
				Jobs:      acc.jobs,
				Completed: acc.completed,
				Failed:    acc.failed,
				Escalated: acc.escalated,
			}
			if acc.completed > 0 {
				ms.EscalationRate = float64(acc.escalated) / float64(acc.completed)
			}
			if acc.deltaN > 0 {
				ms.LineCutDelta = &DeltaStats{Count: acc.deltaN, Mean: acc.deltaSum / float64(acc.deltaN), Max: acc.deltaMax}
			}
			if acc.energyJobs > 0 {
				ms.Energy = &EnergyStats{Jobs: acc.energyJobs, Joules: acc.joules, CostDollars: acc.cost}
			}
			out.PerMode[m] = ms
		}
	}
}

// rank is the nearest-rank quantile of a sorted sample.
func rank(sorted []float64, q float64) float64 {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// maxAbsDiff is the L∞ distance between two cuts; mismatched lengths
// (different line_cut_n on one axis) compare over the shared prefix and
// count the tail as full deviation of the longer cut.
func maxAbsDiff(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var max float64
	for i := 0; i < n; i++ {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	for _, rest := range [][]float64{a[n:], b[n:]} {
		for _, v := range rest {
			if d := math.Abs(v); d > max {
				max = d
			}
		}
	}
	return max
}

// scenarioKey canonicalizes a spec with its precision mode erased: the
// identity under which precision variants of the same problem meet.
func scenarioKey(spec runner.ExperimentSpec) string {
	spec.Mode = ""
	b, err := json.Marshal(spec)
	if err != nil {
		return spec.App
	}
	return string(b)
}

// ResultDigest hashes the sorted "spec_hash state_hash" pairs of a
// campaign's completed jobs — the same bytes `precision-client -grid`
// digests client-side, so equality means bit-identical results.
func ResultDigest(pairs []string) string {
	sort.Strings(pairs)
	h := sha256.New()
	for _, p := range pairs {
		io.WriteString(h, p)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
