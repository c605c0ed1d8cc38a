package campaign

import "repro/internal/obs"

// mgrObs is the manager's pre-resolved instrument set: one counter child
// per table row, resolved here and nowhere else. The zero value (no
// registry configured) is a set of no-op handles.
type mgrObs struct {
	events   [numCampEvents]obs.Counter // precisiond_campaigns_total{event}
	outcomes [numOutcomes]obs.Counter   // precisiond_campaign_jobs_total{outcome}
}

// newMgrObs resolves the row counters and registers the three campaign
// gauges as scrape-time views of snapshot: nothing stores them, so they
// cannot drift from the books they describe.
func newMgrObs(r *obs.Registry, snapshot func() load) mgrObs {
	campaigns := r.CounterVec("precisiond_campaigns_total",
		"Campaign lifecycle traffic by event.", "event")
	jobs := r.CounterVec("precisiond_campaign_jobs_total",
		"Campaign job expansion traffic by outcome (deduped = answered from cache before admission).", "outcome")
	var o mgrObs
	for ev, row := range campRows {
		if row.event != "" {
			o.events[ev] = campaigns.With(row.event)
		}
	}
	for out, row := range outcomeRows {
		if row.outcome != "" {
			o.outcomes[out] = jobs.With(row.outcome)
		}
	}
	r.Collect(func(emit func(obs.Sample)) {
		gauge := func(name, help string, v int64) {
			emit(obs.Sample{Name: name, Help: help, Type: "gauge", Value: float64(v)})
		}
		l := snapshot()
		gauge("precisiond_campaigns_active", "Campaigns currently expanding or draining.", l.active)
		gauge("precisiond_campaign_inflight", "Campaign jobs admitted and not yet terminal (slot usage).", l.inflight)
		gauge("precisiond_campaign_backlog", "Unexpanded indices across live campaigns.", l.backlog)
	})
	return o
}
