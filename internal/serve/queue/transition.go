// The job transition table: every state change of a job — its journal
// record, precisiond_jobs_total{event} count, trace event, log line and the
// bookkeeping its next state implies — is one row here, raised through
// Scheduler.emit and nowhere else. DESIGN.md §7 renders the table.
package queue

import (
	"encoding/json"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve/cache"
)

// event names one row of the table.
type event uint8

// The rows, in lifecycle order.
const (
	evSubmitted       event = iota // a submission arrived, whatever becomes of it
	evDedupHit                     // collapsed onto the in-flight job for its spec hash
	evCacheHit                     // answered from the result cache: born done
	evQueueRejected                // bounced by the queue bound
	evAdmitted                     // journaled, then enqueued
	evAttempt                      // an attempt is offered to the dispatch board
	evPlaced                       // a backend took the attempt
	evAbandoned                    // a local run ignored cancellation past the grace
	evRequeued                     // remote lease expired: re-offered, no retry budget spent
	evResumeDiscarded              // checkpoint would not resume: restart from the initial condition
	evRetried                      // transient failure: back off, run again
	evEscalated                    // numerical failure: climb one precision rung
	evTimedOut                     // attempt deadline exceeded (evFailed follows)
	evExecuted                     // attempt succeeded
	evFailed                       // terminal failure
	evShutdown                     // scheduler stopping: failed locally, still owed to the journal
	evPoisoned                     // same failure kind on two distinct executors: parked
	evUnpoisoned                   // operator released a parked job
	evRecovered                    // found pending in the journal at boot; one of the next three, or evFailed, follows
	evReplayed                     // … and enqueued again
	evHealed                       // … and completed from the cache
	evReparked                     // … and parked again, still poisoned
	numEvents
)

// transition is one row: what a state change appends to the journal,
// counts, records in the job's trace and logs, and the state it leaves the
// job in.
type transition struct {
	name    string    // row name, as DESIGN.md §7 and the tests call it
	counter string    // precisiond_jobs_total{event} label ("" = uncounted)
	record  string    // journal record type ("" = none)
	durable bool      // the record must land first: an append failure vetoes the transition
	span    string    // event recorded on the trace root ("" = none)
	status  string    // terminal rows: the trace root's status attr
	next    Status    // state the job moves to ("" = unchanged)
	level   obs.Level // log line (msg "" = silent)
	msg     string
}

var transitions = [numEvents]transition{
	evSubmitted:       {name: "submitted", counter: "submitted"},
	evDedupHit:        {name: "dedup_hit", counter: "dedup_hit", span: "dedup_hit"},
	evCacheHit:        {name: "cache_hit", counter: "cache_hit", span: "cache_hit", status: "done", next: StatusDone, level: obs.LevelDebug, msg: "cache hit"},
	evQueueRejected:   {name: "queue_rejected", counter: "queue_rejected"},
	evAdmitted:        {name: "admitted", record: recSubmitted, durable: true, next: StatusQueued, level: obs.LevelDebug, msg: "job queued"},
	evAttempt:         {name: "attempt", record: recStarted, level: obs.LevelDebug, msg: "attempt start"},
	evPlaced:          {name: "placed", next: StatusRunning},
	evAbandoned:       {name: "abandoned", counter: "abandoned"},
	evRequeued:        {name: "requeued", counter: "requeued", span: "requeued", level: obs.LevelWarn, msg: "lease expired; requeueing attempt"},
	evResumeDiscarded: {name: "resume_discarded", span: "resume_discarded", level: obs.LevelWarn, msg: "checkpoint resume failed; restarting from the initial condition"},
	evRetried:         {name: "retried", counter: "retried", level: obs.LevelWarn, msg: "transient failure; retrying"},
	evEscalated:       {name: "escalated", counter: "escalated", record: recEscalated, span: "escalation", level: obs.LevelWarn, msg: "numerical failure; escalating precision"},
	evTimedOut:        {name: "timed_out", counter: "timed_out"},
	evExecuted:        {name: "executed", counter: "executed", record: recDone, status: "done", next: StatusDone, level: obs.LevelInfo, msg: "job done"},
	evFailed:          {name: "failed", counter: "failed", record: recFailed, status: "failed", next: StatusFailed, level: obs.LevelError, msg: "job failed"},
	evShutdown:        {name: "shutdown", counter: "failed", status: "shutdown", next: StatusFailed},
	evPoisoned:        {name: "poisoned", counter: "poisoned", record: recPoisoned, span: "poisoned", status: "poisoned", next: StatusPoisoned, level: obs.LevelError, msg: "job poisoned; parked pending operator release"},
	evUnpoisoned:      {name: "unpoisoned", counter: "unpoisoned", record: recUnpoisoned, durable: true, span: "unpoisoned", next: StatusQueued, level: obs.LevelInfo, msg: "poisoned job released for retry"},
	evRecovered:       {name: "recovered", counter: "recovered", span: "recovered"},
	evReplayed:        {name: "replayed", next: StatusQueued, level: obs.LevelInfo, msg: "recovery requeued job"},
	evHealed:          {name: "healed", record: recDone, status: "done", next: StatusDone, level: obs.LevelInfo, msg: "recovery healed job from cache"},
	evReparked:        {name: "reparked", counter: "poisoned", status: "poisoned", next: StatusPoisoned, level: obs.LevelWarn, msg: "recovery re-parked poisoned job"},
}

// detail carries the particulars of one raised transition.
type detail struct {
	attrs   []obs.Attr         // ride on the row's trace event and log line
	err     string             // failure text: journal record, error attr, the job's Error
	mode    string             // attempt: the precision mode the started record names
	esc     *runner.Escalation // escalated: the climb its record carries
	res     *runner.Result     // executed: emit embeds the trace, serializes and caches it
	payload []byte             // cache_hit, healed: the stored result bytes
}

// emit raises one table row for job: it appends the row's journal record,
// counts it, records its trace event and log line, and moves the job to the
// row's next state with the bookkeeping that state implies (waiting count,
// dedup map, checkpoint, Job.finish — which, once the cache holds an
// executed result, keeps neither its bytes nor its spans). A non-nil
// return means the transition did not happen: a durable row's record could
// not be appended, or an executed result would not serialize — the job has
// then failed instead.
//
// Locking: rows that enqueue (next == StatusQueued) are raised with s.mu
// held, because admission is atomic with the dedup map; placed and terminal
// rows take s.mu themselves and are raised without it; the rest touch no
// scheduler state. job is nil only for the two rows that precede any job
// (submitted, queue_rejected), which have no record, trace or log.
func (s *Scheduler) emit(job *Job, ev event, d detail) error {
	row := &transitions[ev]
	terminal := row.status != ""
	if !terminal {
		if err := s.record(job, row.record, d); err != nil && row.durable {
			return err
		}
	}
	attrs := d.attrs
	if d.err != "" {
		attrs = append(attrs[:len(attrs):len(attrs)], obs.Str("error", d.err))
	}
	if row.span != "" {
		job.trace.Root().Event(row.span, attrs...)
	}
	payload := d.payload
	var store *cache.Cache // holds the executed payload: the job keeps neither it nor its spans
	if terminal {
		// The timeline closes before the result embeds it, and the payload is
		// cached before the terminal record lands: a crash between the two is
		// healed by Recover's cache probe, and so is a lost terminal record.
		root := job.trace.Root()
		root.Annotate(obs.Str("status", row.status))
		if row.span == "" && d.err != "" {
			root.Annotate(obs.Str("error", d.err))
		}
		if row.next != StatusPoisoned {
			root.End() // a parked job's timeline continues on release
		}
		if d.res != nil {
			td := job.trace.Snapshot()
			d.res.Trace = &td
			var err error
			if payload, err = json.Marshal(d.res); err != nil {
				err = &runner.Error{Kind: runner.KindPermanent, Op: "marshal result", Err: err}
				s.emit(job, evFailed, detail{err: err.Error()})
				return err
			}
			// A put failure only costs a future recompute (the cache's error
			// counter records it) — and the job keeps its payload.
			if s.cfg.Cache != nil && s.cfg.Cache.Put(job.SpecHash, payload) == nil {
				payload, store = nil, s.cfg.Cache
			}
		}
		_ = s.record(job, row.record, d)
	}
	s.obs.events[ev].Inc()
	if row.msg != "" && s.log.Enabled(row.level) {
		s.log.Log(row.level, row.msg, append([]obs.Attr{obs.Str("job", job.ID)}, attrs...)...)
	}

	switch row.next {
	case StatusQueued:
		s.enqueueLocked(job)
	case StatusRunning:
		job.mu.Lock()
		if job.status == StatusQueued {
			job.status = StatusRunning
		}
		job.mu.Unlock()
		if s.leaveQueue(job) {
			s.obs.queueWait.ObserveSince(job.enqueuedAt)
		}
	case StatusDone, StatusFailed, StatusPoisoned:
		if row.record != "" {
			// An unjournaled end (shutdown) is replayed on the next boot and
			// keeps its checkpoint for the resume.
			s.removeCheckpoint(job.ID)
		}
		s.leaveQueue(job)
		s.mu.Lock()
		if row.next == StatusPoisoned {
			// Duplicate submissions dedup onto the parked record instead of
			// re-running a known-bad spec.
			s.inflight[job.SpecHash] = job
		} else if s.inflight[job.SpecHash] == job {
			delete(s.inflight, job.SpecHash)
		}
		s.mu.Unlock()
		job.finish(row.next, payload, d.err, store)
	}
	return nil
}

// record appends the journal record a row names (nil when there is none or
// no journal). The submitted record reads s.nextID: its row is raised under
// s.mu.
func (s *Scheduler) record(job *Job, typ string, d detail) error {
	if s.cfg.Journal == nil {
		return nil
	}
	switch typ {
	case recSubmitted:
		return s.cfg.Journal.Submitted(job.ID, job.SpecHash, job.Spec, s.nextID+1)
	case recStarted:
		return s.cfg.Journal.Started(job.ID, d.mode)
	case recEscalated:
		return s.cfg.Journal.Escalated(job.ID, *d.esc)
	case recDone:
		return s.cfg.Journal.Done(job.ID)
	case recFailed:
		return s.cfg.Journal.Failed(job.ID, d.err)
	case recPoisoned:
		return s.cfg.Journal.Poisoned(job.ID, d.err)
	case recUnpoisoned:
		return s.cfg.Journal.Unpoisoned(job.ID)
	}
	return nil
}

// enqueueLocked puts a job on the queue and starts its policy goroutine;
// caller holds s.mu. A job that already reached a terminal state (a parked
// job being released) gets a fresh done channel, retry budget and
// executor-failure ledger.
func (s *Scheduler) enqueueLocked(job *Job) {
	job.mu.Lock()
	job.status = StatusQueued
	job.waiting = true
	if job.doneClosed {
		job.done, job.doneClosed = make(chan struct{}), false
		job.errMsg, job.result, job.poisonSeen, job.tryResume = "", nil, nil, false
	}
	job.mu.Unlock()
	job.queueSpan = job.trace.Root().Child("queue_wait")
	job.enqueuedAt = time.Now()
	s.inflight[job.SpecHash] = job
	s.waiting++
	s.obs.queueDepth.Set(int64(s.waiting))
	s.wg.Add(1)
	go s.runJob(job)
}

// leaveQueue takes a job out of the waiting count, once: at its first
// placement, or at a terminal state reached without one (shutdown). It
// reports whether this call was the one that did.
func (s *Scheduler) leaveQueue(job *Job) bool {
	job.mu.Lock()
	was := job.waiting
	job.waiting = false
	job.mu.Unlock()
	if !was {
		return false
	}
	job.queueSpan.End()
	s.mu.Lock()
	s.waiting--
	w := s.waiting
	s.mu.Unlock()
	s.obs.queueDepth.Set(int64(w))
	return true
}
