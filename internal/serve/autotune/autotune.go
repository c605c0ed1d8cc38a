// Package autotune closes the precision loop: it resolves accuracy-budgeted
// specs (mode "auto" plus max_mass_error / max_linecut_linf) to the cheapest
// concrete precision mode the fleet's accumulated evidence supports, per
// (app, scenario-shape).
//
// The service has always learned upward — the runner's guards escalate
// half→min→mixed→full on numerical failure — but nothing ever demoted a
// workload back down once the fleet had evidence it was safe. This package
// is a greedy, one-rung-at-a-time demotion search (Precimonious-style, the
// tool family of the paper's §III.B) run as an online policy: a shape gets
// a row when an auto submission first names it, starts at
// full, and after a warm streak of clean results probes one rung down the
// ladder. A probe only commits if a shadow run on a second executor
// reproduces it bit-identically (the -verify-n machinery) and its measured
// fidelity fits the budgets that asked for it; a failed probe or a later
// escalation reverts the entry and quarantines the demotion with
// hysteresis (the warm requirement doubles). Shapes nobody asked to tune
// have no row and cost nothing: their results are not observed.
//
// The decision table is journaled through the scheduler's WAL (`tuned`
// records, latest-per-key across compaction; a row's first record is
// written when it is created), so a SIGKILL'd coordinator recovers its
// learned state — including the escalation histories of jobs that
// finished before the crash, which replay now surfaces.
package autotune

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/precision"
	"repro/internal/runner"
	"repro/internal/serve/queue"
)

// probeTimeout bounds one demotion probe, primary plus shadow.
const probeTimeout = 2 * time.Minute

// VerifyFunc executes a concrete spec out-of-band (bypassing the queue and
// the result cache) and reports the primary result plus whether a shadow
// run on a second executor reproduced its final-state hash bit-identically.
// The coordinator's VerifyDemotion is the production implementation.
type VerifyFunc func(ctx context.Context, spec runner.ExperimentSpec) (*runner.Result, bool, error)

// rung places a canonical mode name on precision.Ladder. The table stores
// names — they are its journal and HTTP form; a name that does not parse
// lands on full, the safe end.
func rung(mode string) precision.Mode {
	m, _ := precision.Parse(mode)
	return m
}

// Key derives the scenario-shape key for a spec: the normalized spec with
// mode, step count and budgets zeroed. Mode is excluded because the key
// indexes the decision *about* the mode; steps because fidelity evidence
// for a shape transfers across sweep lengths (the worst observed value is
// kept), so a sweep that varies only steps warms a single entry.
func Key(spec runner.ExperimentSpec) (string, error) {
	n, err := spec.Normalized()
	if err != nil {
		return "", err
	}
	n.Mode = ""
	n.Steps = 0
	n.MaxMassError = 0
	n.MaxLinecutLinf = 0
	b, err := json.Marshal(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// evidence is what the table knows about one (shape, mode): worst measured
// fidelity, whether a shadow run verified the mode bit-identically, and the
// modeled energy of the verifying run.
type evidence struct {
	// MassError is the worst |relative mass error| observed at this mode
	// (nil = never measured). Linf is the worst L∞ distance of the line
	// cut from the full-precision reference.
	MassError *float64 `json:"mass_error,omitempty"`
	Linf      *float64 `json:"linf,omitempty"`
	// Verified marks the mode shadow-verified: two executors reproduced
	// the run bit-identically. Only verified evidence resolves requests.
	Verified bool    `json:"verified,omitempty"`
	Joules   float64 `json:"joules,omitempty"`
	Dollars  float64 `json:"dollars,omitempty"`
}

// state is the journaled form of one decision-table entry.
type state struct {
	App string `json:"app"`
	// Spec is the latest concrete spec observed for the shape — the probe
	// template (its steps are overridden to RefSteps when a reference
	// exists, so probes re-run the exact scenario the reference measured).
	Spec runner.ExperimentSpec `json:"spec"`
	// Committed is the cheapest shadow-verified mode ("full" until a
	// demotion commits).
	Committed string `json:"committed"`
	// Floor is the lowest admissible mode: an escalation at mode M floors
	// everything at or below M out. "" means no floor (half admissible).
	Floor string `json:"floor,omitempty"`
	// Warm is the current warm-streak requirement before the next probe;
	// it doubles on every revert or failed probe (hysteresis) and is 0
	// until the first incident (the configured default applies).
	Warm     int                 `json:"warm,omitempty"`
	Evidence map[string]evidence `json:"evidence,omitempty"`
	// Full-precision reference: the line cut, the steps it was captured
	// at, and the modeled energy of a full run at those steps — the
	// fidelity yardstick and the savings baseline.
	RefLineCut  *runner.Series `json:"ref_line_cut,omitempty"`
	RefSteps    int            `json:"ref_steps,omitempty"`
	FullJoules  float64        `json:"full_joules,omitempty"`
	FullDollars float64        `json:"full_dollars,omitempty"`
}

// entry is one live decision-table row: journaled state plus volatile
// warm-up and probe bookkeeping.
type entry struct {
	state
	key     string
	streak  int  // consecutive clean results since the last incident/probe
	probing bool // one in-flight probe per key
	// Budgets from the most recent auto resolution for this shape: a probe
	// must fit them to commit (a budget breach blocks the demotion).
	lastMaxMass float64
	lastMaxLinf float64
	// Cumulative modeled savings vs the full baseline (volatile, like the
	// metrics it feeds).
	savedJoules  float64
	savedDollars float64
}

func (e *entry) warmNeed(def int) int {
	if e.Warm > 0 {
		return e.Warm
	}
	return def
}

// floorRank is the rank of the lowest admissible mode.
func (e *entry) floorRank() int {
	if e.Floor == "" {
		return 0
	}
	return rung(e.Floor).Rank()
}

// recomputeCommitted resets Committed to the cheapest verified mode at or
// above the floor (full when none).
func (e *entry) recomputeCommitted() {
	e.Committed = "full"
	for _, m := range precision.Ladder[e.floorRank():] {
		if ev, ok := e.Evidence[m.Name()]; ok && ev.Verified {
			e.Committed = m.Name()
			return
		}
	}
}

// Config wires a Tuner.
type Config struct {
	// Journal, when non-nil, persists the decision table (latest record
	// per shape key, surviving compaction).
	Journal *queue.Journal
	// Verify runs the shadow-verified demotion probe. nil disables
	// demotion entirely: auto specs then always resolve to full.
	Verify VerifyFunc
	// WarmRuns is the clean-result streak required before a probe
	// (default 3); reverts double the requirement per entry.
	WarmRuns int
	// Obs, when non-nil, registers the autotune instruments.
	Obs *obs.Registry
	// Log, when non-nil, receives autotune decisions.
	Log *obs.Logger
}

// Tuner is the closed-loop precision policy. It implements the scheduler's
// queue.AutoTuner hooks: Resolve at admission, ObserveResult /
// ObserveEscalation from the execution loop, Savings at completion.
type Tuner struct {
	cfg Config
	log *obs.Logger

	decisions    obs.CounterVec // label: decision
	demotionsCtr obs.Counter
	revertsCtr   obs.Counter
	savedJoules  obs.FloatCounterVec // label: mode
	savedDollars obs.FloatCounterVec // label: mode

	mu      sync.Mutex
	entries map[string]*entry

	probeWG sync.WaitGroup
}

// New builds a Tuner.
func New(cfg Config) *Tuner {
	if cfg.WarmRuns <= 0 {
		cfg.WarmRuns = 3
	}
	t := &Tuner{cfg: cfg, log: cfg.Log, entries: map[string]*entry{}}
	if cfg.Obs != nil {
		t.decisions = cfg.Obs.CounterVec("precisiond_autotune_total",
			"Autotune decisions: demoted, full_cold, full_no_evidence, full_budget, "+
				"probe_committed, probe_rejected, escalated.", "decision")
		t.demotionsCtr = cfg.Obs.Counter("precisiond_autotune_demotions_total",
			"Shadow-verified precision demotions committed to the decision table.")
		t.revertsCtr = cfg.Obs.Counter("precisiond_autotune_reverts_total",
			"Committed demotions reverted by escalation evidence.")
		t.savedJoules = cfg.Obs.FloatCounterVec("precisiond_autotune_saved_joules_total",
			"Modeled joules saved by runs resolved below full precision, by mode.", "mode")
		t.savedDollars = cfg.Obs.FloatCounterVec("precisiond_autotune_saved_dollars_total",
			"Modeled dollars saved by runs resolved below full precision, by mode.", "mode")
	}
	return t
}

// ensureLocked returns the entry for key, creating it from the concrete
// template spec if absent. Caller holds t.mu. Resolve of an auto spec is
// its one caller: that is the only way a row comes to exist (Recover
// restores journaled ones).
func (t *Tuner) ensureLocked(key string, tmpl runner.ExperimentSpec) *entry {
	e, ok := t.entries[key]
	if !ok {
		e = &entry{key: key}
		e.App = tmpl.App
		e.Spec = tmpl
		e.Committed = "full"
		e.Evidence = map[string]evidence{}
		t.entries[key] = e
	}
	return e
}

// lookup returns the existing entry for spec's shape with t.mu held, or
// nil (lock not held) when the shape has no row.
func (t *Tuner) lookup(spec runner.ExperimentSpec) *entry {
	key, err := Key(spec)
	if err != nil {
		return nil
	}
	t.mu.Lock()
	e, ok := t.entries[key]
	if !ok {
		t.mu.Unlock()
		return nil
	}
	return e
}

// Resolve maps a spec onto the cheapest concrete mode the table's verified
// evidence shows meets its budgets. Concrete specs pass through normalized;
// auto specs resolve to full until evidence exists, and the first auto
// spec of a shape creates (and journals) its row. The returned spec has
// its budgets stripped, so it hashes exactly like a plain submission of the
// same shape at the chosen mode — the cache/dedup contract is untouched.
func (t *Tuner) Resolve(spec runner.ExperimentSpec) (runner.ExperimentSpec, error) {
	n, err := spec.Normalized()
	if err != nil {
		return spec, err
	}
	if n.Mode != runner.ModeAuto {
		return n, nil
	}
	key, err := Key(n)
	if err != nil {
		return spec, err
	}
	mode, decision := "full", "full_cold"
	created := false
	t.mu.Lock()
	if e, ok := t.entries[key]; ok {
		decision = "full_no_evidence"
		e.lastMaxMass, e.lastMaxLinf = n.MaxMassError, n.MaxLinecutLinf
		top := len(precision.Ladder) - 1 // cheapest admissible first, full excluded
		for _, m := range precision.Ladder[e.floorRank():top] {
			ev, ok := e.Evidence[m.Name()]
			if !ok || !ev.Verified {
				continue
			}
			if !budgetOK(n, ev) {
				decision = "full_budget"
				continue
			}
			mode, decision = m.Name(), "demoted"
			break
		}
	} else {
		e := t.ensureLocked(key, n.Concrete("full"))
		e.lastMaxMass, e.lastMaxLinf = n.MaxMassError, n.MaxLinecutLinf
		created = true
	}
	t.mu.Unlock()
	if created {
		// Journaled at birth, so the shape stays requested across a restart
		// and Recover's escalation replay finds its row.
		t.journalEntry(key)
	}
	t.decisions.With(decision).Inc()
	t.log.Debug("autotune resolved",
		obs.Str("app", n.App), obs.Str("mode", mode), obs.Str("decision", decision))
	return n.Concrete(mode), nil
}

// budgetOK reports whether measured evidence fits the request's budgets.
// A zero budget is unconstrained on that axis; a set budget requires a
// finite measurement within it.
func budgetOK(req runner.ExperimentSpec, ev evidence) bool {
	if req.MaxMassError > 0 {
		if ev.MassError == nil || !finite(*ev.MassError) || *ev.MassError > req.MaxMassError {
			return false
		}
	}
	if req.MaxLinecutLinf > 0 {
		if ev.Linf == nil || !finite(*ev.Linf) || *ev.Linf > req.MaxLinecutLinf {
			return false
		}
	}
	return true
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ObserveResult feeds one completed (non-cached) run of a requested shape
// into its row — concrete and auto traffic alike: full runs refresh the
// fidelity reference and the savings baseline, demoted runs fold their
// measured fidelity in worst-case, and a clean streak at the committed
// frontier launches the next demotion probe. A shape with no row is
// ignored.
func (t *Tuner) ObserveResult(spec runner.ExperimentSpec, res *runner.Result) {
	if res == nil {
		return
	}
	e := t.lookup(spec)
	if e == nil {
		return
	}
	key, mode := e.key, spec.Mode
	var probeSpec *runner.ExperimentSpec
	var savedJ, savedD float64
	e.Spec = spec
	changed := false
	if mode == "full" {
		if res.LineCut != nil && len(res.LineCut.Y) > 0 {
			if e.RefLineCut == nil || e.RefSteps != res.Steps {
				changed = true
			}
			lc := *res.LineCut
			e.RefLineCut = &lc
			e.RefSteps = res.Steps
		}
		if res.Energy != nil && res.Steps > 0 {
			if e.FullJoules == 0 {
				changed = true
			}
			e.FullJoules = res.Energy.Joules
			e.FullDollars = res.Energy.CostDollars
		}
		ev := e.Evidence["full"]
		ev.Verified = true // full is the reference, definitionally faithful
		if foldFidelityLocked(&ev, e, res) {
			changed = true
		}
		e.Evidence["full"] = ev
	} else {
		ev := e.Evidence[mode]
		if foldFidelityLocked(&ev, e, res) {
			changed = true
		}
		e.Evidence[mode] = ev
		if j, d, ok := e.savings(res); ok && j > 0 {
			savedJ, savedD = j, d
			e.savedJoules += savedJ
			e.savedDollars += savedD
		}
	}
	e.streak++
	if t.cfg.Verify != nil && !e.probing && e.streak >= e.warmNeed(t.cfg.WarmRuns) {
		if cand, ok := rung(e.Committed).Prev(); ok && cand.Rank() >= e.floorRank() {
			if !e.Evidence[cand.Name()].Verified {
				e.probing = true
				ps := e.Spec.Concrete(cand.Name())
				if e.RefSteps > 0 {
					ps.Steps = e.RefSteps
				}
				probeSpec = &ps
			}
		}
	}
	t.mu.Unlock()
	if savedJ > 0 {
		t.savedJoules.With(mode).Add(savedJ)
		t.savedDollars.With(mode).Add(savedD)
	}
	if changed {
		t.journalEntry(key)
	}
	if probeSpec != nil {
		t.probeWG.Add(1)
		go t.probe(key, *probeSpec)
	}
}

// foldFidelityLocked folds a run's measured fidelity into ev worst-case:
// |mass error| from the result, L∞ of its line cut against the entry's
// full-precision reference (only when captured at the same step count).
// Reports whether ev changed. Caller holds t.mu.
func foldFidelityLocked(ev *evidence, e *entry, res *runner.Result) bool {
	changed := false
	if res.MassError != nil {
		m := math.Abs(*res.MassError)
		if ev.MassError == nil || m > *ev.MassError {
			ev.MassError = &m
			changed = true
		}
	}
	if e.RefLineCut != nil && res.LineCut != nil && res.Steps == e.RefSteps &&
		len(res.LineCut.Y) == len(e.RefLineCut.Y) {
		linf := 0.0
		for i, y := range res.LineCut.Y {
			if d := math.Abs(y - e.RefLineCut.Y[i]); d > linf || math.IsNaN(d) {
				linf = d
			}
			if math.IsNaN(linf) {
				break // non-finite dominates everything
			}
		}
		if ev.Linf == nil || linf > *ev.Linf ||
			(math.IsNaN(linf) && !math.IsNaN(*ev.Linf)) {
			ev.Linf = &linf
			changed = true
		}
	}
	if res.Energy != nil && ev.Joules == 0 {
		ev.Joules = res.Energy.Joules
		ev.Dollars = res.Energy.CostDollars
		changed = true
	}
	return changed
}

// probe runs the shadow-verified demotion check for key at probeSpec's mode
// and commits or rejects the rung.
func (t *Tuner) probe(key string, probeSpec runner.ExperimentSpec) {
	defer t.probeWG.Done()
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	res, verified, err := t.cfg.Verify(ctx, probeSpec)
	mode := probeSpec.Mode

	t.mu.Lock()
	e, ok := t.entries[key]
	if !ok {
		t.mu.Unlock()
		return
	}
	e.probing = false
	reject := func(cause string) {
		// Hysteresis: the rung stays quarantined behind a doubled warm
		// requirement; the streak restarts from zero.
		e.Warm = e.warmNeed(t.cfg.WarmRuns) * 2
		e.streak = 0
		t.mu.Unlock()
		t.decisions.With("probe_rejected").Inc()
		t.log.Info("autotune demotion rejected",
			obs.Str("app", probeSpec.App), obs.Str("mode", mode), obs.Str("cause", cause))
		t.journalEntry(key)
	}
	switch {
	case err != nil:
		reject(fmt.Sprintf("probe error: %v", err))
		return
	case res == nil || !verified:
		reject("shadow run not bit-identical (or no second executor)")
		return
	}
	ev := evidence{Verified: true}
	foldFidelityLocked(&ev, e, res)
	if ev.MassError != nil && !finite(*ev.MassError) {
		reject("non-finite mass error")
		return
	}
	if ev.Linf != nil && !finite(*ev.Linf) {
		reject("non-finite line-cut deviation")
		return
	}
	// The budgets that warmed this probe must hold, or the demotion is a
	// breach and never commits.
	req := runner.ExperimentSpec{MaxMassError: e.lastMaxMass, MaxLinecutLinf: e.lastMaxLinf}
	if !budgetOK(req, ev) {
		reject("measured fidelity breaches the requesting budget")
		return
	}
	e.Evidence[mode] = ev
	e.recomputeCommitted()
	e.streak = 0 // warm at the new frontier before probing the next rung
	t.mu.Unlock()
	t.demotionsCtr.Inc()
	t.decisions.With("probe_committed").Inc()
	t.log.Info("autotune demotion committed",
		obs.Str("app", probeSpec.App), obs.Str("mode", mode),
		obs.Str("state", res.StateHash))
	t.journalEntry(key)
}

// ObserveEscalation feeds a numerical failure at esc.FromMode into the
// row of a requested shape: that mode and everything below it is floored
// out, committed demotions at or below it revert, and the warm requirement
// doubles. A shape with no row is ignored.
func (t *Tuner) ObserveEscalation(spec runner.ExperimentSpec, esc runner.Escalation) {
	e := t.lookup(spec)
	if e == nil {
		return
	}
	key, failed := e.key, rung(esc.FromMode)
	newFloor, _ := failed.Next() // full saturates
	if newFloor.Rank() > e.floorRank() {
		e.Floor = newFloor.Name()
	}
	reverted := false
	for m := range e.Evidence {
		if m != "full" && rung(m).Rank() <= failed.Rank() {
			delete(e.Evidence, m)
		}
	}
	if rung(e.Committed).Rank() <= failed.Rank() {
		e.recomputeCommitted()
		reverted = true
	}
	e.Warm = e.warmNeed(t.cfg.WarmRuns) * 2
	e.streak = 0
	t.mu.Unlock()
	if reverted {
		t.revertsCtr.Inc()
	}
	t.decisions.With("escalated").Inc()
	t.log.Info("autotune floor raised",
		obs.Str("app", spec.App), obs.Str("failed_mode", esc.FromMode),
		obs.Str("floor", newFloor.Name()), obs.Str("reverted", fmt.Sprint(reverted)))
	t.journalEntry(key)
}

// Savings reports the modeled energy/cost a completed run saved against the
// shape's full-precision baseline (scaled to the run's step count). ok is
// false for full runs, unpriced runs, and shapes with no baseline yet.
func (t *Tuner) Savings(spec runner.ExperimentSpec, res *runner.Result) (joules, dollars float64, ok bool) {
	if res == nil || res.Energy == nil || spec.Mode == "full" || res.Steps <= 0 {
		return 0, 0, false
	}
	e := t.lookup(spec)
	if e == nil {
		return 0, 0, false
	}
	defer t.mu.Unlock()
	return e.savings(res)
}

// savings prices res against the entry's full-precision baseline scaled to
// its step count, each figure floored at zero. ok is false without a
// baseline or a priced result.
func (e *entry) savings(res *runner.Result) (joules, dollars float64, ok bool) {
	if e.FullJoules <= 0 || e.RefSteps <= 0 || res.Energy == nil || res.Steps <= 0 {
		return 0, 0, false
	}
	scale := float64(res.Steps) / float64(e.RefSteps)
	return math.Max(0, e.FullJoules*scale-res.Energy.Joules),
		math.Max(0, e.FullDollars*scale-res.Energy.CostDollars), true
}

// journalEntry persists key's current state as a `tuned` WAL record.
func (t *Tuner) journalEntry(key string) {
	if t.cfg.Journal == nil {
		return
	}
	t.mu.Lock()
	e, ok := t.entries[key]
	if !ok {
		t.mu.Unlock()
		return
	}
	b, err := json.Marshal(e.state)
	t.mu.Unlock()
	if err != nil {
		return
	}
	if err := t.cfg.Journal.Tuned(key, b); err != nil {
		t.log.Warn("autotune journal append failed", obs.Str("err", err.Error()))
	}
}

// Recover rebuilds the decision table from the journal: the latest tuned
// record per key, then the escalation histories of jobs that reached a
// terminal state before the restart — evidence replay used to drop with
// the done record, now surfaced so floors survive without re-observing
// the failures.
func (t *Tuner) Recover(j *queue.Journal) error {
	if j == nil {
		return nil
	}
	t.mu.Lock()
	for key, raw := range j.TunedRecords() {
		var st state
		if err := json.Unmarshal(raw, &st); err != nil {
			t.mu.Unlock()
			return fmt.Errorf("autotune: tuned record for %q: %w", key, err)
		}
		if st.Evidence == nil {
			st.Evidence = map[string]evidence{}
		}
		if st.Committed == "" {
			st.Committed = "full"
		}
		t.entries[key] = &entry{state: st, key: key}
	}
	n := len(t.entries)
	t.mu.Unlock()
	for _, de := range j.DoneEscalations() {
		for _, esc := range de.Escalations {
			t.ObserveEscalation(de.Spec, esc)
		}
	}
	t.log.Info("autotune table recovered",
		obs.Str("entries", fmt.Sprint(n)),
		obs.Str("done_escalations", fmt.Sprint(len(j.DoneEscalations()))))
	return nil
}

// Quiesce blocks until every in-flight demotion probe has settled — test
// and shutdown hook.
func (t *Tuner) Quiesce() { t.probeWG.Wait() }

// EvidenceView is one mode's row in an entry view: evidence, with verified
// always present.
type EvidenceView struct {
	MassError *float64 `json:"mass_error,omitempty"`
	Linf      *float64 `json:"linf,omitempty"`
	Verified  bool     `json:"verified"`
	Joules    float64  `json:"joules,omitempty"`
	Dollars   float64  `json:"dollars,omitempty"`
}

// EntryView is one decision-table row in GET /v1/autotune.
type EntryView struct {
	Key          string                  `json:"key"`
	App          string                  `json:"app"`
	Committed    string                  `json:"committed"`
	Floor        string                  `json:"floor,omitempty"`
	Streak       int                     `json:"streak"`
	WarmRequired int                     `json:"warm_required"`
	Probing      bool                    `json:"probing,omitempty"`
	RefSteps     int                     `json:"ref_steps,omitempty"`
	FullJoules   float64                 `json:"full_joules,omitempty"`
	FullDollars  float64                 `json:"full_dollars,omitempty"`
	SavedJoules  float64                 `json:"saved_joules"`
	SavedDollars float64                 `json:"saved_dollars"`
	Evidence     map[string]EvidenceView `json:"evidence,omitempty"`
}

// Snapshot returns the decision table sorted by key.
func (t *Tuner) Snapshot() []EntryView {
	t.mu.Lock()
	out := make([]EntryView, 0, len(t.entries))
	for key, e := range t.entries {
		v := EntryView{
			Key:          key,
			App:          e.App,
			Committed:    e.Committed,
			Floor:        e.Floor,
			Streak:       e.streak,
			WarmRequired: e.warmNeed(t.cfg.WarmRuns),
			Probing:      e.probing,
			RefSteps:     e.RefSteps,
			FullJoules:   e.FullJoules,
			FullDollars:  e.FullDollars,
			SavedJoules:  e.savedJoules,
			SavedDollars: e.savedDollars,
		}
		if len(e.Evidence) > 0 {
			v.Evidence = make(map[string]EvidenceView, len(e.Evidence))
			for m, ev := range e.Evidence {
				v.Evidence[m] = EvidenceView(ev)
			}
		}
		out = append(out, v)
	}
	t.mu.Unlock()
	slices.SortFunc(out, func(a, b EntryView) int { return strings.Compare(a.Key, b.Key) })
	return out
}
