// Package campaign turns parameter sweeps into a first-class server-side
// workload. A campaign spec declares a *generator* — a cartesian grid over
// ExperimentSpec fields, a seeded Monte Carlo ensemble, or a
// precision-refinement ladder — and the Manager expands it lazily: a
// cursor walks indices [0, Total) and materializes one spec at a time, so
// a million-job campaign never exists as a slice in memory.
//
// Every expanded spec is admitted through the scheduler's normal Submit
// path, which means the cache probe and singleflight dedup of
// internal/serve/queue act as dedup-before-admission: a spec whose result
// is already cached (or already in flight) costs one lookup, is counted
// under outcome "deduped", and still contributes its cached result to the
// campaign's running aggregates.
//
// Admission order across live campaigns is weighted-fair (wfq.go): each
// campaign is a flow with a virtual finish time advanced by 1/weight per
// admission, and the pump always picks the eligible flow with the
// smallest finish time. Combined with the scheduler's interactive queue
// reserve (queue.Config.ReserveInteractive), a large campaign cannot
// starve interactive POST /v1/jobs traffic.
//
// Campaign state — the spec, the expansion cursor, terminal status — is
// journaled through the scheduler's WAL (queue.Journal campaign records),
// so Recover resumes a half-expanded campaign under its original ID:
// indices below the journaled cursor are re-admitted through the same
// Submit path (cache hits for completed work, dedup hits onto
// journal-recovered in-flight jobs) and fresh expansion continues from
// the cursor. No spec hash is ever executed twice across incarnations.
package campaign

import (
	"fmt"
	"strings"

	"repro/internal/runner"
)

// Status is a campaign's lifecycle state.
type Status string

// Campaign lifecycle: running → completed | cancelled. A campaign with
// failed jobs still completes; the failure count is in the aggregates.
const (
	StatusRunning   Status = "running"
	StatusCompleted Status = "completed"
	StatusCancelled Status = "cancelled"
)

// Generator kinds.
const (
	KindGrid     = "grid"
	KindEnsemble = "ensemble"
	KindLadder   = "ladder"
)

// Spec is the submitted description of a campaign.
type Spec struct {
	// Tenant names the campaign's owner in views and logs; empty normalizes
	// to "default". Fairness between campaigns is Weight alone.
	Tenant string `json:"tenant,omitempty"`
	// Weight is the campaign's WFQ share (1..1000, default 1). A weight-10
	// campaign is admitted ten jobs for every one of a weight-1 campaign.
	Weight int `json:"weight,omitempty"`
	// Generator declares how specs are derived from indices.
	Generator GeneratorSpec `json:"generator"`
}

// GeneratorSpec declares a pure index→spec mapping. All three kinds are
// random-access: spec i is computed from (spec, i) alone, which is what
// makes lazy cursors, journal replay and deterministic re-expansion work.
type GeneratorSpec struct {
	// Kind is "grid", "ensemble" or "ladder".
	Kind string `json:"kind"`
	// Base is the template spec every expansion starts from.
	Base runner.ExperimentSpec `json:"base"`
	// Axes lists the fields a grid sweeps (cartesian product, axes[0]
	// slowest) or an ensemble samples from.
	Axes []Axis `json:"axes,omitempty"`
	// Draws is the ensemble size (required for kind "ensemble").
	Draws int `json:"draws,omitempty"`
	// Seed seeds the ensemble's per-index RNG streams.
	Seed int64 `json:"seed,omitempty"`
	// Rungs lists the ladder's precision modes, low to high; empty
	// defaults to ["min", "mixed", "full"].
	Rungs []string `json:"rungs,omitempty"`
}

// Axis is one swept ExperimentSpec field and its candidate values.
// Fields are addressed by their JSON names ("mode", "steps", "nx", ...).
type Axis struct {
	Field  string `json:"field"`
	Values []any  `json:"values"`
}

// Normalized validates the campaign spec and returns its canonical form.
func (s Spec) Normalized() (Spec, error) {
	out := s
	out.Tenant = strings.TrimSpace(s.Tenant)
	if out.Tenant == "" {
		out.Tenant = "default"
	}
	if out.Weight == 0 {
		out.Weight = 1
	}
	if out.Weight < 1 || out.Weight > 1000 {
		return out, fmt.Errorf("campaign: weight must be in [1, 1000], got %d", s.Weight)
	}
	if _, err := NewGenerator(out.Generator); err != nil {
		return out, err
	}
	return out, nil
}

// JobRef is one expanded index's admission record in a campaign view.
type JobRef struct {
	Index    int64  `json:"index"`
	JobID    string `json:"job_id,omitempty"`
	SpecHash string `json:"spec_hash,omitempty"`
	Mode     string `json:"mode,omitempty"`
	// Status is the queue lifecycle state ("queued", "running", "done",
	// "failed") or "invalid" when the expanded spec failed validation.
	Status    string `json:"status"`
	StateHash string `json:"state_hash,omitempty"`
	Deduped   bool   `json:"deduped,omitempty"`
	Recovered bool   `json:"recovered,omitempty"`
	Error     string `json:"error,omitempty"`
}

// View is an immutable snapshot of a campaign for handlers and clients.
type View struct {
	ID         string     `json:"id"`
	Tenant     string     `json:"tenant"`
	Weight     int        `json:"weight"`
	Status     Status     `json:"status"`
	Error      string     `json:"error,omitempty"`
	Spec       Spec       `json:"spec"`
	Aggregates Aggregates `json:"aggregates"`
	// Jobs is populated only when explicitly requested (?jobs=1): one
	// entry per expanded index, in expansion order.
	Jobs []JobRef `json:"jobs,omitempty"`
}
