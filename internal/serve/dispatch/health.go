package dispatch

import (
	"math"
	"time"
)

// HealthState is a worker's circuit-breaker position. The coordinator
// scores every lease outcome into an EWMA "badness" per worker; crossing
// thresholds walks the worker healthy → probation → quarantined, and a
// half-open probe lease is the only way back out of quarantine.
type HealthState string

const (
	// HealthHealthy workers take leases normally.
	HealthHealthy HealthState = "healthy"
	// HealthProbation workers still take leases but are one bad outcome
	// from quarantine; sustained good completions decay them back.
	HealthProbation HealthState = "probation"
	// HealthQuarantined workers are skipped by lease matching except for a
	// single half-open probe lease every ProbeAfter.
	HealthQuarantined HealthState = "quarantined"
)

// Penalty weights folded into the EWMA. A clean completion contributes
// penGood (0), so a recovering worker's score decays geometrically.
const (
	penGood   = 0.0
	penFlap   = 0.4 // heartbeat gap: a beat arrived late (or was dropped)
	penSlow   = 0.8 // completion ≥ slowFactor × fleet median for its shape
	penExpiry = 1.0 // lease died by TTL — the worker went dark mid-run
	penReject = 1.0 // upload failed the spec-hash round-trip (422)
)

// healthParams fixes the breaker geometry. The defaults quarantine after
// ~2 consecutive expiries or ~3 consecutive slow completions from a clean
// score, and the readmit threshold sits well below the probation trip so
// the breaker cannot chatter at the boundary (hysteresis).
type healthParams struct {
	alpha          float64       // EWMA weight of the newest observation
	probationAt    float64       // score ≥ this: healthy → probation
	quarantineAt   float64       // score ≥ this: → quarantined
	readmitBelow   float64       // score < this: → healthy
	probeAfter     time.Duration // quarantine age before a half-open probe
	probeDiscount  float64       // score multiplier on a successful probe
	slowFactor     float64       // completion slower than factor × median is "slow"
	minSlowSamples int           // median needs this many samples to judge slowness
}

func defaultHealthParams(leaseTTL time.Duration) healthParams {
	return healthParams{
		alpha:          0.4,
		probationAt:    0.3,
		quarantineAt:   0.6,
		readmitBelow:   0.15,
		probeAfter:     2 * leaseTTL,
		probeDiscount:  0.3,
		slowFactor:     2.0,
		minSlowSamples: 3,
	}
}

// workerHealth is one worker's rolling score and breaker state. All
// methods are called with the coordinator mutex held; the struct has no
// locking of its own so it stays trivially testable.
type workerHealth struct {
	p     healthParams
	score float64
	state HealthState
	// since is when the current state was entered; probeAt is the earliest
	// time a quarantined worker may receive its half-open probe; probing
	// marks an outstanding probe lease (at most one).
	since   time.Time
	probeAt time.Time
	probing bool
}

func newWorkerHealth(p healthParams, now time.Time) *workerHealth {
	return &workerHealth{p: p, state: HealthHealthy, since: now}
}

// observe folds one outcome penalty into the EWMA and walks the state
// machine. Quarantine is entered from any state the moment the score
// crosses quarantineAt; leaving quarantine happens only through probe.
func (h *workerHealth) observe(penalty float64, now time.Time) {
	h.score = h.score*(1-h.p.alpha) + penalty*h.p.alpha
	switch h.state {
	case HealthHealthy:
		if h.score >= h.p.quarantineAt {
			h.enter(HealthQuarantined, now)
		} else if h.score >= h.p.probationAt {
			h.enter(HealthProbation, now)
		}
	case HealthProbation:
		if h.score >= h.p.quarantineAt {
			h.enter(HealthQuarantined, now)
		} else if h.score < h.p.readmitBelow {
			h.enter(HealthHealthy, now)
		}
	case HealthQuarantined:
		// Scored while quarantined (an old lease finishing, a flap): stay
		// put — only probeResult readmits.
	}
}

// beat scores the gap since the worker's previous sign of life: a heartbeat
// arriving well past the advertised cadence means earlier beats were
// dropped or delayed — a flap, scored but far below an expiry.
func (h *workerHealth) beat(gap, cadence time.Duration, now time.Time) {
	if gap > cadence*3/2 {
		h.observe(penFlap, now)
	}
}

func (h *workerHealth) enter(s HealthState, now time.Time) {
	if h.state == s {
		return
	}
	h.state = s
	h.since = now
	if s == HealthQuarantined {
		h.probeAt = now.Add(h.p.probeAfter)
		h.probing = false
	}
}

// admissible reports whether the worker may take a lease now. probe is
// true when the grant must be marked a half-open probe (the worker is
// quarantined and its probe window opened); the caller sets h.probing
// via beginProbe when it actually grants one.
func (h *workerHealth) admissible(now time.Time) (probe, ok bool) {
	switch h.state {
	case HealthQuarantined:
		if !h.probing && !now.Before(h.probeAt) {
			return true, true
		}
		return false, false
	default:
		return false, true
	}
}

// beginProbe marks the single outstanding half-open probe lease.
func (h *workerHealth) beginProbe() { h.probing = true }

// probeAborted releases the probe slot without judging it — the long-poll
// timed out before any attempt was granted.
func (h *workerHealth) probeAborted(now time.Time) { h.probing = false }

// probeResult settles a half-open probe. Success discounts the score and
// readmits (to probation, or straight to healthy if the score cleared the
// readmit threshold); failure re-arms the probe timer and keeps the
// quarantine.
func (h *workerHealth) probeResult(success bool, now time.Time) {
	h.probing = false
	if !success {
		h.probeAt = now.Add(h.p.probeAfter)
		return
	}
	h.score *= h.p.probeDiscount
	if h.score < h.p.readmitBelow {
		h.enter(HealthHealthy, now)
	} else {
		h.enter(HealthProbation, now)
	}
}

// roundScore trims the EWMA for JSON views.
func roundScore(s float64) float64 { return math.Round(s*1000) / 1000 }
