// The write-ahead journal makes the job queue durable: every admission is
// journaled before it is acknowledged, every start, precision escalation
// and terminal state is appended as it happens, and a restarted daemon
// replays the live records — so a SIGKILL loses no accepted job and
// re-runs no completed one.
//
// Format: append-only NDJSON, one record per line, fsynced per append.
// A torn final line (crash mid-write) is ignored on open. Opening compacts:
// terminal jobs are dropped, live jobs are folded into single `submitted`
// records carrying their accumulated escalations, and the result is
// committed by temp-file + rename before appending resumes — so the
// journal's size is bounded by the live set, not the traffic history.
package queue

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runner"
)

// Journal record types.
const (
	recMeta      = "meta"      // next job number (survives compaction)
	recSubmitted = "submitted" // job admitted (spec + hash; pre-ack)
	recStarted   = "started"   // execution attempt began at Mode
	recEscalated = "escalated" // numerical failure climbed the ladder
	recDone      = "done"      // completed (result in the cache)
	recFailed    = "failed"    // terminal failure

	// Poison records park and release jobs without ending their journal
	// ownership: a poisoned job is still live (it replays parked, never
	// re-run) until an operator releases it or it reaches a terminal state.
	recPoisoned   = "poisoned"   // same failure kind on two distinct executors
	recUnpoisoned = "unpoisoned" // operator released the job for retry

	// recHedge is an audit record, not state: a hedged re-dispatch produced
	// two completions of the same attempt and their state hashes were
	// compared. Outcome "verified" (bit-identical) or "mismatch" (the slower
	// worker was quarantined). Replay ignores it; compaction drops it.
	recHedge = "hedge_verified"

	// recTuned is one autotune decision-table entry: the learned state for
	// one (app, scenario-shape) key, written by internal/serve/autotune
	// when an auto submission creates the row and whenever a demotion
	// commits, reverts, or a full-precision reference is captured. The
	// payload is opaque bytes here (autotune owns the shape). Replay keeps
	// the latest record per key; compaction rewrites exactly those — so the
	// learned table survives restart like the live job set does.
	recTuned = "tuned"

	// Campaign records share the same journal file so one fsync stream
	// orders campaign state against the job admissions it produced. The
	// campaign spec is opaque bytes here (internal/serve/campaign owns the
	// shape); per-job status rides on the ordinary job records above.
	recCampaign       = "campaign"        // campaign admitted (pre-ack)
	recCampaignCursor = "campaign_cursor" // expansion progress high-water
	recCampaignDone   = "campaign_done"   // every expanded job terminal
	recCampaignFailed = "campaign_failed" // terminal failure / cancellation
)

// journalRecord is one NDJSON line.
type journalRecord struct {
	Seq         uint64                 `json:"seq"`
	Type        string                 `json:"type"`
	JobID       string                 `json:"job_id,omitempty"`
	SpecHash    string                 `json:"spec_hash,omitempty"`
	Spec        *runner.ExperimentSpec `json:"spec,omitempty"`
	Mode        string                 `json:"mode,omitempty"`
	Error       string                 `json:"error,omitempty"`
	Escalations []runner.Escalation    `json:"escalations,omitempty"`
	NextJob     uint64                 `json:"next_job,omitempty"`

	CampaignID   string          `json:"campaign_id,omitempty"`
	Campaign     json.RawMessage `json:"campaign,omitempty"`
	Cursor       int64           `json:"cursor,omitempty"`
	NextCampaign uint64          `json:"next_campaign,omitempty"`

	// Autotune fields (recTuned).
	TunedKey string          `json:"tuned_key,omitempty"`
	Tuned    json.RawMessage `json:"tuned,omitempty"`

	// Poison / hedge fields.
	Poisoned  bool   `json:"poisoned,omitempty"` // folded into compacted submitted records
	StateHash string `json:"state_hash,omitempty"`
	Winner    string `json:"winner,omitempty"`
	Loser     string `json:"loser,omitempty"`
	Outcome   string `json:"outcome,omitempty"`
}

// PendingJob is one journal job owed an execution: admitted (and possibly
// started, escalated, or interrupted mid-run) but never terminal.
type PendingJob struct {
	ID          string
	SpecHash    string
	Spec        runner.ExperimentSpec
	Escalations []runner.Escalation
	// Started reports the job was picked up before the crash — its
	// checkpoint, if one exists, is worth resuming from.
	Started bool
	// Poisoned marks a job parked by the poison detector; ErrMsg carries
	// the convicting error. Recovery re-parks it instead of re-running.
	Poisoned bool
	ErrMsg   string
}

// DoneEscalation is the escalation history of a job that reached a terminal
// state before a restart. Replay used to rebuild escalations only for
// unfinished jobs and silently dropped these at the done/failed record;
// they are now surfaced so the autotune table re-learns its precision
// floors on Recover() without having to re-observe the failures.
type DoneEscalation struct {
	JobID       string
	SpecHash    string
	Spec        runner.ExperimentSpec
	Escalations []runner.Escalation
}

// PendingCampaign is one journal campaign owed a resumption: admitted but
// never terminal. Spec is the opaque campaign spec bytes recorded at
// admission; Cursor is the expansion high-water mark (specs with a lower
// generator index were already admitted as jobs before the crash).
type PendingCampaign struct {
	ID     string
	Spec   json.RawMessage
	Cursor int64
}

// Journal is the scheduler's write-ahead log. All appends are serialized
// and fsynced; the last sync failure is retained for health reporting.
type Journal struct {
	mu           sync.Mutex
	f            *os.File
	path         string
	seq          uint64
	nextJob      uint64
	nextCampaign uint64
	pending      []PendingJob
	pendingCamps []PendingCampaign
	tuned        map[string]json.RawMessage // latest autotune state per key
	tunedOrder   []string                   // first-seen key order (stable compaction)
	doneEsc      []DoneEscalation
	syncErr      error
	// lastErr is the most recent append failure ever seen — unlike syncErr
	// it is not cleared by a later success, so /healthz can report the last
	// durability incident even after recovery.
	lastErr   error
	fsyncHist *obs.Histogram
}

// setFsyncHist wires the append+fsync latency histogram (nil disables).
func (j *Journal) setFsyncHist(h *obs.Histogram) {
	j.mu.Lock()
	j.fsyncHist = h
	j.mu.Unlock()
}

// OpenJournal opens (creating if needed) and compacts the journal at path,
// returning it ready for appends. Pending lists the jobs owed an
// execution, in admission order.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{path: path, nextJob: 1, nextCampaign: 1, tuned: map[string]json.RawMessage{}}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := j.replayAndCompact(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	j.f = f
	return j, nil
}

// replayAndCompact reads the existing journal (if any), reduces it to the
// live job set, and atomically rewrites the compacted form.
func (j *Journal) replayAndCompact() error {
	data, err := os.ReadFile(j.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: read %s: %w", j.path, err)
	}

	type liveJob struct {
		PendingJob
		order int
	}
	type liveCampaign struct {
		PendingCampaign
		order int
	}
	live := map[string]*liveJob{}
	liveCamps := map[string]*liveCampaign{}
	order := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn tail (crash mid-append) ends the useful journal; any
			// record after it was never acknowledged.
			break
		}
		if rec.Seq > j.seq {
			j.seq = rec.Seq
		}
		if rec.NextJob > j.nextJob {
			j.nextJob = rec.NextJob
		}
		if rec.NextCampaign > j.nextCampaign {
			j.nextCampaign = rec.NextCampaign
		}
		switch rec.Type {
		case recSubmitted:
			if rec.Spec == nil || rec.JobID == "" {
				continue
			}
			lj := &liveJob{order: order}
			order++
			lj.ID = rec.JobID
			lj.SpecHash = rec.SpecHash
			lj.Spec = *rec.Spec
			lj.Escalations = rec.Escalations // compacted records carry these
			lj.Started = rec.Mode != ""      // compacted records carry this
			lj.Poisoned = rec.Poisoned       // compacted records carry this
			if rec.Poisoned {
				lj.ErrMsg = rec.Error
			}
			live[rec.JobID] = lj
		case recStarted:
			if lj, ok := live[rec.JobID]; ok {
				lj.Started = true
			}
		case recEscalated:
			if lj, ok := live[rec.JobID]; ok && len(rec.Escalations) == 1 {
				lj.Escalations = append(lj.Escalations, rec.Escalations[0])
			}
		case recPoisoned:
			if lj, ok := live[rec.JobID]; ok {
				lj.Poisoned = true
				lj.ErrMsg = rec.Error
			}
		case recUnpoisoned:
			if lj, ok := live[rec.JobID]; ok {
				lj.Poisoned = false
				lj.ErrMsg = ""
			}
		case recHedge:
			// Audit only; carries no live state.
		case recTuned:
			if rec.TunedKey == "" {
				continue
			}
			if _, seen := j.tuned[rec.TunedKey]; !seen {
				j.tunedOrder = append(j.tunedOrder, rec.TunedKey)
			}
			j.tuned[rec.TunedKey] = append(json.RawMessage(nil), rec.Tuned...)
		case recDone, recFailed:
			// Terminal jobs leave the live set, but their escalation
			// history is fleet evidence the autotune table wants back
			// after a restart — surface it before dropping the record.
			if lj, ok := live[rec.JobID]; ok && len(lj.Escalations) > 0 {
				j.doneEsc = append(j.doneEsc, DoneEscalation{
					JobID:       lj.ID,
					SpecHash:    lj.SpecHash,
					Spec:        lj.Spec,
					Escalations: append([]runner.Escalation(nil), lj.Escalations...),
				})
			}
			delete(live, rec.JobID)
		case recCampaign:
			if rec.CampaignID == "" || len(rec.Campaign) == 0 {
				continue
			}
			lc := &liveCampaign{order: order}
			order++
			lc.ID = rec.CampaignID
			lc.Spec = append(json.RawMessage(nil), rec.Campaign...)
			lc.Cursor = rec.Cursor // compacted records carry the high-water
			liveCamps[rec.CampaignID] = lc
		case recCampaignCursor:
			if lc, ok := liveCamps[rec.CampaignID]; ok && rec.Cursor > lc.Cursor {
				lc.Cursor = rec.Cursor
			}
		case recCampaignDone, recCampaignFailed:
			delete(liveCamps, rec.CampaignID)
		}
	}

	ordered := make([]*liveJob, 0, len(live))
	for _, lj := range live {
		ordered = append(ordered, lj)
	}
	slices.SortFunc(ordered, func(a, b *liveJob) int { return cmp.Compare(a.order, b.order) }) // admission order
	j.pending = make([]PendingJob, len(ordered))
	for i, lj := range ordered {
		j.pending[i] = lj.PendingJob
	}

	orderedCamps := make([]*liveCampaign, 0, len(liveCamps))
	for _, lc := range liveCamps {
		orderedCamps = append(orderedCamps, lc)
	}
	slices.SortFunc(orderedCamps, func(a, b *liveCampaign) int { return cmp.Compare(a.order, b.order) }) // admission order
	j.pendingCamps = make([]PendingCampaign, len(orderedCamps))
	for i, lc := range orderedCamps {
		j.pendingCamps[i] = lc.PendingCampaign
	}
	return j.writeCompacted()
}

// writeCompacted rewrites the journal as one meta record plus one folded
// submitted record per live job, atomically.
func (j *Journal) writeCompacted() error {
	tmp, err := os.CreateTemp(filepath.Dir(j.path), ".journal-compact-*")
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	enc := json.NewEncoder(w)
	j.seq++
	if err := enc.Encode(journalRecord{Seq: j.seq, Type: recMeta, NextJob: j.nextJob, NextCampaign: j.nextCampaign}); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: compact: %w", err)
	}
	for _, key := range j.tunedOrder {
		j.seq++
		rec := journalRecord{Seq: j.seq, Type: recTuned, TunedKey: key, Tuned: j.tuned[key]}
		if err := enc.Encode(rec); err != nil {
			tmp.Close()
			return fmt.Errorf("journal: compact: %w", err)
		}
	}
	for _, c := range j.pendingCamps {
		j.seq++
		rec := journalRecord{
			Seq: j.seq, Type: recCampaign,
			CampaignID: c.ID, Campaign: c.Spec, Cursor: c.Cursor,
		}
		if err := enc.Encode(rec); err != nil {
			tmp.Close()
			return fmt.Errorf("journal: compact: %w", err)
		}
	}
	for _, p := range j.pending {
		j.seq++
		rec := journalRecord{
			Seq: j.seq, Type: recSubmitted,
			JobID: p.ID, SpecHash: p.SpecHash, Spec: &p.Spec,
			Escalations: p.Escalations,
		}
		if p.Started {
			rec.Mode = p.Spec.Mode // non-empty Mode marks "was started"
		}
		if p.Poisoned {
			rec.Poisoned = true
			rec.Error = p.ErrMsg
		}
		if err := enc.Encode(rec); err != nil {
			tmp.Close()
			return fmt.Errorf("journal: compact: %w", err)
		}
	}
	if err := w.Flush(); err == nil {
		err = tmp.Sync()
	} else {
		tmp.Close()
		return fmt.Errorf("journal: compact: %w", err)
	}
	if cerr := tmp.Close(); cerr != nil {
		return fmt.Errorf("journal: compact: %w", cerr)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	return nil
}

// Pending returns the jobs owed an execution, in admission order.
func (j *Journal) Pending() []PendingJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]PendingJob(nil), j.pending...)
}

// NextJobNum returns the first job number not yet used by any journaled
// job, so recovered and fresh IDs never collide.
func (j *Journal) NextJobNum() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextJob
}

// append writes one record and fsyncs. The fault point "journal.sync"
// injects fsync failures; real or injected, the last failure is retained
// for SyncErr until a subsequent append succeeds.
func (j *Journal) append(rec journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	j.seq++
	rec.Seq = j.seq
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	start := time.Now()
	if _, err := j.f.Write(append(data, '\n')); err != nil {
		j.syncErr = err
		j.lastErr = err
		return fmt.Errorf("journal: append: %w", err)
	}
	syncErr := fault.Error("journal.sync")
	if syncErr == nil {
		syncErr = j.f.Sync()
	}
	j.fsyncHist.ObserveSince(start)
	if syncErr != nil {
		j.syncErr = syncErr
		j.lastErr = syncErr
		return fmt.Errorf("journal: fsync: %w", syncErr)
	}
	j.syncErr = nil
	return nil
}

// Submitted journals an admission, recording the next job number alongside
// so ID allocation survives compaction. Must succeed before the submission
// is acknowledged.
func (j *Journal) Submitted(jobID, specHash string, spec runner.ExperimentSpec, nextJobNum uint64) error {
	j.mu.Lock()
	if nextJobNum > j.nextJob {
		j.nextJob = nextJobNum
	}
	j.mu.Unlock()
	return j.append(journalRecord{
		Type: recSubmitted, JobID: jobID, SpecHash: specHash, Spec: &spec,
		NextJob: nextJobNum,
	})
}

// Started journals the beginning of an execution attempt at mode.
func (j *Journal) Started(jobID, mode string) error {
	return j.append(journalRecord{Type: recStarted, JobID: jobID, Mode: mode})
}

// Escalated journals one precision climb.
func (j *Journal) Escalated(jobID string, e runner.Escalation) error {
	return j.append(journalRecord{Type: recEscalated, JobID: jobID, Escalations: []runner.Escalation{e}})
}

// Done journals completion (the payload lives in the result cache).
func (j *Journal) Done(jobID string) error {
	return j.append(journalRecord{Type: recDone, JobID: jobID})
}

// Failed journals a terminal failure.
func (j *Journal) Failed(jobID, errMsg string) error {
	return j.append(journalRecord{Type: recFailed, JobID: jobID, Error: errMsg})
}

// Poisoned journals a job parked by the poison detector. The job stays
// live in the journal: replay re-parks it rather than re-running it.
func (j *Journal) Poisoned(jobID, errMsg string) error {
	return j.append(journalRecord{Type: recPoisoned, JobID: jobID, Error: errMsg})
}

// Unpoisoned journals an operator release of a poisoned job; replay runs
// it again like any other pending job.
func (j *Journal) Unpoisoned(jobID string) error {
	return j.append(journalRecord{Type: recUnpoisoned, JobID: jobID})
}

// HedgeVerified journals the audit trail of a hedged re-dispatch whose two
// completions were compared: match=true records bit-identical state hashes,
// match=false records the divergence that quarantined the loser.
func (j *Journal) HedgeVerified(jobID, specHash, stateHash, winner, loser string, match bool) error {
	outcome := "verified"
	if !match {
		outcome = "mismatch"
	}
	return j.append(journalRecord{
		Type: recHedge, JobID: jobID, SpecHash: specHash, StateHash: stateHash,
		Winner: winner, Loser: loser, Outcome: outcome,
	})
}

// Tuned journals one autotune decision-table entry for key. The latest
// record per key survives replay and compaction; earlier ones are folded
// away. The state bytes are owned by internal/serve/autotune.
func (j *Journal) Tuned(key string, state []byte) error {
	j.mu.Lock()
	if _, seen := j.tuned[key]; !seen {
		j.tunedOrder = append(j.tunedOrder, key)
	}
	j.tuned[key] = append(json.RawMessage(nil), state...)
	j.mu.Unlock()
	return j.append(journalRecord{Type: recTuned, TunedKey: key, Tuned: json.RawMessage(state)})
}

// TunedRecords returns the latest journaled autotune state per key, as
// replayed at open plus any appended since.
func (j *Journal) TunedRecords() map[string][]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string][]byte, len(j.tuned))
	for k, v := range j.tuned {
		out[k] = append([]byte(nil), v...)
	}
	return out
}

// DoneEscalations returns the escalation histories of jobs that reached a
// terminal state before this open — evidence replay previously discarded.
func (j *Journal) DoneEscalations() []DoneEscalation {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]DoneEscalation(nil), j.doneEsc...)
}

// PendingCampaigns returns the campaigns owed a resumption, in admission
// order.
func (j *Journal) PendingCampaigns() []PendingCampaign {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]PendingCampaign(nil), j.pendingCamps...)
}

// NextCampaignNum returns the first campaign number not yet used by any
// journaled campaign, so recovered and fresh campaign IDs never collide.
func (j *Journal) NextCampaignNum() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextCampaign
}

// CampaignSubmitted journals a campaign admission (the opaque spec bytes
// belong to internal/serve/campaign), recording the next campaign number
// alongside so ID allocation survives compaction. Must succeed before the
// campaign is acknowledged.
func (j *Journal) CampaignSubmitted(id string, spec []byte, nextNum uint64) error {
	j.mu.Lock()
	if nextNum > j.nextCampaign {
		j.nextCampaign = nextNum
	}
	j.mu.Unlock()
	return j.append(journalRecord{
		Type: recCampaign, CampaignID: id, Campaign: json.RawMessage(spec),
		NextCampaign: nextNum,
	})
}

// CampaignCursor journals the campaign's expansion high-water mark: every
// generator index below cursor has been admitted as a job (and is therefore
// owned by the job records), so a resumed campaign re-attaches those and
// expands fresh from cursor.
func (j *Journal) CampaignCursor(id string, cursor int64) error {
	return j.append(journalRecord{Type: recCampaignCursor, CampaignID: id, Cursor: cursor})
}

// CampaignDone journals campaign completion (every expanded job terminal).
func (j *Journal) CampaignDone(id string) error {
	return j.append(journalRecord{Type: recCampaignDone, CampaignID: id})
}

// CampaignFailed journals a terminal campaign failure or cancellation so it
// is not replayed on the next boot.
func (j *Journal) CampaignFailed(id, errMsg string) error {
	return j.append(journalRecord{Type: recCampaignFailed, CampaignID: id, Error: errMsg})
}

// SyncErr returns the most recent append/fsync failure, or nil when the
// journal is healthy — the /healthz degraded signal.
func (j *Journal) SyncErr() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncErr
}

// LastError returns the last append failure ever observed ("" if none),
// even if a later append succeeded — /healthz forensics.
func (j *Journal) LastError() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.lastErr == nil {
		return ""
	}
	return j.lastErr.Error()
}

// Close closes the journal file; further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
