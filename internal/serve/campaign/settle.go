// The two campaign tables: a campaign lifecycle event is one campRows row
// raised through Manager.emit, and what happens to one expanded index is
// one outcomeRows row booked through Manager.settle — nothing else counts,
// journals, logs or tallies for a campaign. DESIGN.md §12 renders both.
package campaign

import (
	"encoding/json"
	"strconv"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve/queue"
)

// campEvent names one row of the campaign-event table.
type campEvent uint8

// The rows, in lifecycle order.
const (
	ceSubmitted       campEvent = iota // validated, within budget, journaled: live
	ceRejected                         // failed validation or the expansion budget
	ceRecovered                        // found pending in the journal at boot: live again under its ID
	ceRecoveryInvalid                  // found pending, but its spec no longer validates
	ceCancelled                        // an operator stopped its expansion
	ceCompleted                        // fully expanded and every index terminal
	numCampEvents
)

// campRow is one row. Rows without a next status (rejected,
// recovery_invalid) are raised for a campaign that never comes to exist.
type campRow struct {
	event   string    // precisiond_campaigns_total{event} label ("" = uncounted)
	record  string    // journal record type appended ("" = none)
	durable bool      // the record must land first: an append failure vetoes the event
	next    Status    // state the campaign moves to
	level   obs.Level // log line (msg "" = silent)
	msg     string
}

var campRows = [numCampEvents]campRow{
	ceSubmitted: {event: "submitted", record: "campaign", durable: true, next: StatusRunning, level: obs.LevelInfo, msg: "campaign submitted"},
	ceRejected:  {event: "rejected"},
	ceRecovered: {event: "recovered", next: StatusRunning, level: obs.LevelInfo, msg: "campaign recovered"},
	// Closed in the journal rather than wedged forever.
	ceRecoveryInvalid: {record: "campaign_failed", durable: true, level: obs.LevelWarn, msg: "recovered campaign invalid"},
	ceCancelled:       {event: "cancelled", record: "campaign_failed", next: StatusCancelled, level: obs.LevelInfo, msg: "campaign cancelled"},
	ceCompleted:       {event: "completed", record: "campaign_done", next: StatusCompleted, level: obs.LevelInfo, msg: "campaign completed"},
}

// detail carries the particulars of one raised campaign event.
type detail struct {
	id      string     // recovery_invalid: the journaled ID (there is no campaign)
	err     string     // failure text: the campaign_failed record, the campaign's Error
	nextNum uint64     // submitted: the first campaign number the record leaves unused
	attrs   []obs.Attr // ride on the row's log line
}

// emit raises one campaign-event row: journal record, state change and the
// bookkeeping it implies (registered when live; WFQ flow dropped and Done
// closed when over), count, log line. A non-nil return means a durable
// row's record could not be appended and the event did not happen.
//
// The terminal rows flip the status first, under the campaign lock and only
// from running, so a cancel racing the last settle has exactly one winner;
// their record follows, and losing it costs a redundant resume at worst.
func (m *Manager) emit(ev campEvent, c *Campaign, d detail) error {
	row := &campRows[ev]
	id := d.id
	if c != nil {
		id = c.id
	}
	terminal := row.next == StatusCancelled || row.next == StatusCompleted
	if terminal {
		c.mu.Lock()
		if c.status != StatusRunning {
			c.mu.Unlock()
			return nil
		}
		c.status, c.errMsg = row.next, d.err
		if row.next == StatusCompleted {
			c.digest = c.digestLocked()
		}
		c.mu.Unlock()
	}
	if err := m.record(row.record, id, c, d); err != nil {
		if row.durable {
			return err
		}
		m.log.Warn("journal append failed", obs.Str("campaign", id), obs.Str("event", row.event), obs.Str("err", err.Error()))
	}
	if row.next != "" {
		m.mu.Lock()
		if terminal {
			m.fair.forget(id)
		} else {
			m.camps[id] = c
			m.order = append(m.order, id)
		}
		m.mu.Unlock()
		m.kickPump()
	}
	m.o.events[ev].Inc()
	if row.msg != "" {
		m.log.Log(row.level, row.msg, append([]obs.Attr{obs.Str("campaign", id)}, d.attrs...)...)
	}
	if terminal {
		c.signalDone() // last: whoever waits on Done finds the event counted and logged
	}
	return nil
}

// record appends the journal record a row names, if any.
func (m *Manager) record(typ, id string, c *Campaign, d detail) error {
	j := m.cfg.Journal
	if j == nil {
		return nil
	}
	switch typ {
	case "campaign":
		raw, err := json.Marshal(c.spec)
		if err != nil {
			return err
		}
		return j.CampaignSubmitted(id, raw, d.nextNum)
	case "campaign_done":
		return j.CampaignDone(id)
	case "campaign_failed":
		return j.CampaignFailed(id, d.err)
	}
	return nil
}

// outcome names one row of the index-outcome table.
type outcome uint8

// The rows: the pump books exactly one of the first four per expanded
// index, and every index that got a job later lands on one of the last three.
const (
	ioInvalid   outcome = iota // would not decode, or the scheduler refused its spec
	ioAdmitted                 // a job was queued, or joined in flight
	ioDeduped                  // answered from the result cache before admission
	ioRecovered                // re-admission of an index a pre-crash incarnation had admitted
	ioCompleted                // its job produced a result
	ioFailed                   // its job failed for good
	ioDeferred                 // shutdown failed its job: the next incarnation re-runs it
	numOutcomes
)

// outcomeRow is one row. Each row moves its own per-campaign tally; the
// view's counts are sums of those, and Σ slot·tally is the jobs in flight.
type outcomeRow struct {
	outcome string // precisiond_campaign_jobs_total{outcome} label ("" = uncounted)
	status  string // JobRef status written ("" = the job's own, as admitted)
	slot    int8   // +1: the index's job takes an admission slot; −1: gives it back
	// fold is the aggregate fold run under the index's submitted mode.
	fold func(a *agg, mode string, res *runner.Result)
}

var outcomeRows = [numOutcomes]outcomeRow{
	// A terminal per-index failure, not a campaign failure.
	ioInvalid:   {outcome: "invalid", status: "invalid"},
	ioAdmitted:  {outcome: "admitted", slot: +1, fold: (*agg).admit},
	ioDeduped:   {outcome: "deduped", slot: +1, fold: (*agg).admit},
	ioRecovered: {outcome: "recovered", slot: +1, fold: (*agg).admit},
	ioCompleted: {outcome: "completed", status: string(queue.StatusDone), slot: -1, fold: (*agg).complete},
	ioFailed:    {outcome: "failed", status: string(queue.StatusFailed), slot: -1, fold: (*agg).fail},
	// Not held against the campaign, which stays live in the journal.
	ioDeferred: {status: string(queue.StatusQueued), slot: -1},
}

// settle books one outcome row for index ref.Index of c: the JobRef, the
// tally and the aggregate fold under one campaign-lock hold, then the count,
// then what the slot implies. A job that took a slot holds it until its own
// terminal row — booked right here when it was born done (a cache answer
// still reports), by a watcher otherwise — and a slot given back wakes the
// pump. The pump's rows (slot ≥ 0) advance the journaled cursor; any row may
// be the campaign's last.
//
// job is the admitted job of a slot-taking row, res the decoded result of a
// completed one. c.refs[k].Index == k: the pump appends one ref per index,
// in order, before it takes the next.
func (m *Manager) settle(c *Campaign, out outcome, ref JobRef, job *queue.Job, res *runner.Result) {
	row := &outcomeRows[out]
	if row.status != "" {
		ref.Status = row.status
	}
	c.mu.Lock()
	if row.slot >= 0 {
		c.refs = append(c.refs, ref)
	} else {
		c.refs[ref.Index] = ref
	}
	c.tally[out]++
	if out == ioCompleted && ref.Deduped {
		c.deduped++
	}
	if out == ioCompleted && ref.Recovered {
		c.recovered++
	}
	if row.fold != nil {
		row.fold(c.agg, ref.Mode, res)
	}
	c.mu.Unlock()
	m.o.outcomes[out].Inc()

	if row.slot < 0 {
		m.kickPump()
	} else {
		if job != nil {
			select {
			case <-job.Done():
				m.land(c, ref, job)
			default:
				m.wg.Add(1)
				go func() {
					defer m.wg.Done()
					<-job.Done()
					m.land(c, ref, job)
				}()
			}
		}
		m.journalCursor(c)
	}
	m.maybeFinalize(c)
}

// landed is a result payload as land decodes it: the fields the
// aggregates fold, with the embedded trace — often the larger half of the
// payload, and folded by nothing — left as raw bytes.
type landed struct {
	runner.Result
	Trace json.RawMessage `json:"trace,omitempty"`
}

// land settles a terminal job's index on the row its end state names.
func (m *Manager) land(c *Campaign, ref JobRef, job *queue.Job) {
	var res landed
	payload, ok := job.Result()
	if ok {
		ok = json.Unmarshal(payload, &res) == nil
	}
	switch {
	case ok:
		ref.StateHash = res.StateHash
		m.settle(c, ioCompleted, ref, nil, &res.Result)
	case m.stopping():
		m.settle(c, ioDeferred, ref, nil, nil)
	default:
		ref.Error = job.Snapshot().Error
		m.settle(c, ioFailed, ref, nil, nil)
	}
}

// journalCursor persists the expansion cursor when it has advanced by
// CursorEvery since the last write (or the campaign is fully expanded).
// Written after the admissions it covers, so a crash can only re-admit —
// and re-admissions dedup.
func (m *Manager) journalCursor(c *Campaign) {
	if m.cfg.Journal == nil {
		return
	}
	c.mu.Lock()
	cur := c.next
	write := c.status == StatusRunning &&
		cur > c.cursorHW &&
		(cur-c.cursorHW >= int64(m.cfg.CursorEvery) || cur == c.gen.Total())
	if write {
		c.cursorHW = cur
	}
	c.mu.Unlock()
	if !write {
		return
	}
	if err := m.cfg.Journal.CampaignCursor(c.id, cur); err != nil {
		m.log.Warn("journal cursor", obs.Str("campaign", c.id), obs.Str("err", err.Error()))
	}
}

// maybeFinalize completes the campaign once every index has ended with a
// result or without one — which implies fully expanded and nothing in
// flight. During shutdown it leaves the campaign live so the journal's
// pending record carries it into the next incarnation.
func (m *Manager) maybeFinalize(c *Campaign) {
	if m.stopping() {
		return
	}
	c.mu.Lock()
	completed, failed := c.tally[ioCompleted], c.failedLocked()
	c.mu.Unlock()
	if completed+failed >= c.gen.Total() {
		_ = m.emit(ceCompleted, c, detail{attrs: []obs.Attr{
			obs.Str("completed", strconv.FormatInt(completed, 10)),
			obs.Str("failed", strconv.FormatInt(failed, 10))}})
	}
}
