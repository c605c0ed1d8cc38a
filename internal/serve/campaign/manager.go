// The campaign manager: registration, the WFQ admission pump and the
// read-side views. What a campaign event or an expanded index's outcome
// does to the books is settle.go's two tables; DESIGN.md §12 is the
// reference for the lifecycle.
package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/queue"
)

// ErrBudget rejects a campaign whose estimated expansion, together with
// the unexpanded remainder of every live campaign, exceeds the configured
// budget. The API layer maps it to 429 + Retry-After.
var ErrBudget = errors.New("campaign: expansion budget exhausted")

// ErrNotFound reports an unknown campaign ID.
var ErrNotFound = errors.New("campaign: not found")

// Config parameterizes a Manager.
type Config struct {
	// Sched admits expanded specs; required.
	Sched *queue.Scheduler
	// Journal persists campaign records (nil = no durability). Pass the
	// same journal the scheduler uses so one fsync stream orders campaign
	// state against job admissions.
	Journal *queue.Journal
	// Budget caps the total estimated expansion (new campaign + live
	// remainders); 0 defaults to 1<<20 — a million jobs.
	Budget int64
	// Slots caps campaign jobs concurrently in flight across all
	// campaigns (0 = 16). Deduped cache answers are born done and never
	// hold a slot.
	Slots int
	// HealthyCapacity, when non-nil, reports the execution slots currently
	// backed by non-quarantined capacity (local lanes + healthy fleet).
	// Campaign admission sheds to min(Slots, max(1, HealthyCapacity())):
	// bulk expansion stops piling onto a degraded fleet, while interactive
	// submissions (which bypass this manager) keep their full queue. The
	// floor of 1 keeps the pump from wedging when everything is
	// quarantined — one probe-sized trickle continues.
	HealthyCapacity func() int
	// CursorEvery journals the expansion cursor every N admissions
	// (0 = 32). The cursor trails admissions, never leads them: a crash
	// re-admits at most CursorEvery indices, each of which dedups onto
	// the cache or the journal-recovered job.
	CursorEvery int
	// Obs registers campaign metrics when non-nil.
	Obs *obs.Registry
	// Log is the manager's logger (nil discards).
	Log *obs.Logger
}

// Manager expands campaigns lazily and fairly. One pump goroutine owns
// admission: it picks the next (campaign, index) by weighted fair
// queueing, materializes exactly that spec, and submits it through the
// scheduler; per-job watcher goroutines settle terminal results into the
// campaign's aggregates, which releases their admission slots.
type Manager struct {
	cfg Config
	log *obs.Logger
	o   mgrObs

	mu     sync.Mutex
	camps  map[string]*Campaign
	order  []string
	nextID uint64
	fair   *wfq

	kick   chan struct{}
	runCtx context.Context
	wg     sync.WaitGroup
}

// Campaign is one live or terminal campaign.
type Campaign struct {
	id   string
	gen  *Generator
	spec Spec // normalized

	mu     sync.Mutex
	status Status
	errMsg string

	// next is the first unexpanded generator index; recoveredBelow marks
	// indices admitted by a pre-crash incarnation (re-admissions of those
	// count as "recovered", not fresh work); cursorHW is the journaled
	// cursor high-water.
	next           int64
	recoveredBelow int64
	cursorHW       int64

	// tally counts the outcome rows settled for this campaign; deduped and
	// recovered count the completed ones whose admission was flagged so.
	tally              [numOutcomes]int64
	deduped, recovered int64
	refs               []JobRef // one per expanded index, in index order
	agg                *agg
	digest             string

	done     chan struct{}
	doneOnce sync.Once
}

// newCampaign validates spec and builds the campaign it describes, resuming
// above a journaled cursor (0 for a fresh one).
func newCampaign(id string, spec Spec, cursor int64) (*Campaign, error) {
	spec, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	gen, err := NewGenerator(spec.Generator)
	if err != nil {
		return nil, err
	}
	return &Campaign{
		id:             id,
		gen:            gen,
		spec:           spec,
		status:         StatusRunning,
		recoveredBelow: cursor,
		cursorHW:       cursor,
		agg:            newAgg(),
		done:           make(chan struct{}),
	}, nil
}

// New builds a Manager. Call Recover (optionally) then Start.
func New(cfg Config) *Manager {
	if cfg.Budget <= 0 {
		cfg.Budget = 1 << 20
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 16
	}
	if cfg.CursorEvery <= 0 {
		cfg.CursorEvery = 32
	}
	m := &Manager{
		cfg:    cfg,
		log:    cfg.Log.With(obs.Str("sub", "campaign")),
		camps:  make(map[string]*Campaign),
		fair:   newWFQ(),
		kick:   make(chan struct{}, 1),
		nextID: 1,
	}
	if cfg.Journal != nil {
		m.nextID = cfg.Journal.NextCampaignNum()
	}
	if cfg.Obs != nil {
		m.o = newMgrObs(cfg.Obs, m.load)
	}
	return m
}

// Recover re-registers the journal's live campaigns under their original
// IDs. Call after the scheduler's own Recover and before Start: the pump
// then re-admits indices below each journaled cursor (they dedup onto the
// cache or the recovered jobs, counted as outcome "recovered") and
// resumes fresh expansion from the cursor. Returns the number of
// campaigns resumed.
func (m *Manager) Recover() (int, error) {
	if m.cfg.Journal == nil {
		return 0, nil
	}
	resumed := 0
	for _, pc := range m.cfg.Journal.PendingCampaigns() {
		var spec Spec
		var c *Campaign
		err := json.Unmarshal(pc.Spec, &spec)
		if err == nil {
			c, err = newCampaign(pc.ID, spec, pc.Cursor)
		}
		if err != nil {
			// A journaled campaign that no longer validates (e.g. written
			// by a newer build) is failed rather than wedged forever.
			jerr := m.emit(ceRecoveryInvalid, nil, detail{id: pc.ID, err: "recovery: " + err.Error(),
				attrs: []obs.Attr{obs.Str("err", err.Error())}})
			if jerr != nil {
				return resumed, jerr
			}
			continue
		}
		_ = m.emit(ceRecovered, c, detail{attrs: []obs.Attr{
			obs.Str("tenant", c.spec.Tenant),
			obs.Str("cursor", strconv.FormatInt(pc.Cursor, 10)),
			obs.Str("total", strconv.FormatInt(c.gen.Total(), 10))}})
		resumed++
	}
	return resumed, nil
}

// Start launches the admission pump. ctx cancellation stops expansion;
// live campaigns stay journaled for the next incarnation's Recover.
func (m *Manager) Start(ctx context.Context) {
	m.runCtx = ctx
	m.wg.Add(1)
	go m.pump(ctx)
	m.kickPump()
}

// Wait blocks until the pump and every watcher have exited. Call after
// the scheduler's own shutdown has resolved outstanding jobs.
func (m *Manager) Wait() { m.wg.Wait() }

// stopping reports whether the manager's run context has ended.
func (m *Manager) stopping() bool { return m.runCtx != nil && m.runCtx.Err() != nil }

// Submit validates, journals and registers a new campaign. The campaign
// is expanded asynchronously; the returned Campaign is live immediately.
func (m *Manager) Submit(spec Spec) (*Campaign, error) {
	c, err := newCampaign("", spec, 0)
	var num uint64
	if err == nil {
		m.mu.Lock()
		if total := c.gen.Total(); total+m.loadLocked().owed > m.cfg.Budget {
			err = fmt.Errorf("%w: estimated %d jobs over budget %d", ErrBudget, total, m.cfg.Budget)
		} else {
			// The number is taken under this lock hold, before the journal
			// append drops it: concurrent submissions never share an ID. A
			// failed append leaves a gap, which recovery tolerates.
			num = m.nextID
			m.nextID++
		}
		m.mu.Unlock()
	}
	if err != nil {
		_ = m.emit(ceRejected, nil, detail{})
		return nil, err
	}
	c.id = fmt.Sprintf("camp-%06d", num)
	// Journal-then-ack, mirroring job admission: the campaign record must
	// be durable before the ID is visible.
	err = m.emit(ceSubmitted, c, detail{nextNum: num + 1, attrs: []obs.Attr{
		obs.Str("tenant", c.spec.Tenant),
		obs.Str("kind", c.gen.Kind()),
		obs.Str("total", strconv.FormatInt(c.gen.Total(), 10))}})
	if err != nil {
		return nil, fmt.Errorf("campaign: journal admission: %w", err)
	}
	return c, nil
}

// Get returns a campaign by ID.
func (m *Manager) Get(id string) (*Campaign, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.camps[id]
	return c, ok
}

// List snapshots every campaign in submission order.
func (m *Manager) List() []View {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]View, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.camps[id].View(false))
	}
	return out
}

// Cancel stops a campaign's expansion. Jobs already admitted run to
// completion under the scheduler; the campaign's journal record is
// closed so it will not be resumed. A campaign already terminal stays as
// it ended.
func (m *Manager) Cancel(id string) (View, error) {
	c, ok := m.Get(id)
	if !ok {
		return View{}, ErrNotFound
	}
	_ = m.emit(ceCancelled, c, detail{err: "cancelled"})
	return c.View(false), nil
}

func (m *Manager) kickPump() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// load is the manager's instantaneous load, computed when asked: the three
// campaign gauges export it and the budget check reads it.
type load struct {
	active   int64 // campaigns expanding or draining
	inflight int64 // campaign jobs admitted and not yet terminal: slots in use
	backlog  int64 // unexpanded indices across live campaigns
	owed     int64 // indices of live campaigns not yet terminal: the budget in use
}

// loadLocked walks the campaigns; caller holds m.mu.
func (m *Manager) loadLocked() load {
	var l load
	for _, c := range m.camps {
		c.mu.Lock()
		l.inflight += c.runningLocked()
		if c.status == StatusRunning {
			l.active++
			l.backlog += c.gen.Total() - c.next
			l.owed += c.gen.Total() - c.tally[ioCompleted] - c.failedLocked()
		}
		c.mu.Unlock()
	}
	return l
}

func (m *Manager) load() load {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.loadLocked()
}

// pump is the single admission loop: WFQ pick, lazy expansion of exactly
// one index, submission, repeat. Queue-full is throttling, never loss —
// the pump backs off and retries the same index.
func (m *Manager) pump(ctx context.Context) {
	defer m.wg.Done()
	for {
		if ctx.Err() != nil {
			return
		}
		c := m.pickCampaign()
		if c == nil {
			select {
			case <-ctx.Done():
				return
			case <-m.kick:
			}
			continue
		}
		m.admitNext(ctx, c)
	}
}

// pickCampaign returns the WFQ choice among campaigns that are running
// and not fully expanded, or nil while every admission slot is in use.
func (m *Manager) pickCampaign() *Campaign {
	m.mu.Lock()
	defer m.mu.Unlock()
	slots := m.cfg.Slots
	if m.cfg.HealthyCapacity != nil {
		slots = min(slots, max(1, m.cfg.HealthyCapacity()))
	}
	var ids []string
	var inflight int64
	for _, id := range m.order {
		c := m.camps[id]
		c.mu.Lock()
		inflight += c.runningLocked()
		if c.status == StatusRunning && c.next < c.gen.Total() {
			ids = append(ids, id)
		}
		c.mu.Unlock()
	}
	if inflight >= int64(slots) {
		return nil
	}
	// pick is "" — no campaign — when none is eligible.
	return m.camps[m.fair.pick(ids, func(id string) float64 { return float64(m.camps[id].spec.Weight) })]
}

// admitNext expands campaign index c.next, submits it and settles the
// admission row it lands on.
func (m *Manager) admitNext(ctx context.Context, c *Campaign) {
	c.mu.Lock()
	if c.status != StatusRunning || c.next >= c.gen.Total() {
		c.mu.Unlock()
		return
	}
	idx := c.next
	c.next++
	recovered := idx < c.recoveredBelow
	c.mu.Unlock()

	spec, err := c.gen.At(idx)
	var job *queue.Job
	if err == nil {
		opts := queue.SubmitOptions{Flow: "campaign/" + c.id}
		job, err = m.cfg.Sched.SubmitOpts(spec, opts)
		for errors.Is(err, queue.ErrQueueFull) {
			// Throttled, never dropped: hold this index until the queue
			// drains below the bulk-admission limit.
			select {
			case <-time.After(50 * time.Millisecond):
			case <-ctx.Done():
				// Shutdown mid-backoff: rewind so the index is not lost to
				// this incarnation's counters (the journal cursor already
				// trails it, so the next incarnation re-expands it anyway).
				c.mu.Lock()
				c.next = idx
				c.mu.Unlock()
				return
			}
			job, err = m.cfg.Sched.SubmitOpts(spec, opts)
		}
	}
	if err != nil {
		m.settle(c, ioInvalid, JobRef{Index: idx, Error: err.Error()}, nil, nil)
		return
	}

	snap := job.Snapshot()
	out := ioAdmitted
	switch {
	case recovered:
		out = ioRecovered
	case snap.Cached:
		out = ioDeduped
	}
	m.settle(c, out, JobRef{
		Index:     idx,
		JobID:     job.ID,
		SpecHash:  job.SpecHash,
		Mode:      snap.Spec.Mode,
		Status:    string(snap.Status),
		Deduped:   snap.Cached,
		Recovered: recovered,
	}, job, nil)
}

// ID returns the campaign's stable identity ("camp-000001").
func (c *Campaign) ID() string { return c.id }

// Done is closed when the campaign reaches a terminal state.
func (c *Campaign) Done() <-chan struct{} { return c.done }

func (c *Campaign) signalDone() { c.doneOnce.Do(func() { close(c.done) }) }

// runningLocked is the campaign's jobs in flight: every admission row took
// a slot, every terminal row gave one back.
func (c *Campaign) runningLocked() int64 {
	var n int64
	for out := range outcomeRows {
		n += int64(outcomeRows[out].slot) * c.tally[out]
	}
	return n
}

// failedLocked counts the indices that ended without a result.
func (c *Campaign) failedLocked() int64 { return c.tally[ioInvalid] + c.tally[ioFailed] }

// digestLocked hashes the completed jobs' "spec_hash state_hash" pairs.
func (c *Campaign) digestLocked() string {
	pairs := make([]string, 0, len(c.refs))
	for i := range c.refs {
		if r := &c.refs[i]; r.Status == string(queue.StatusDone) && r.StateHash != "" {
			pairs = append(pairs, r.SpecHash+" "+r.StateHash)
		}
	}
	return ResultDigest(pairs)
}

// Aggregates snapshots the campaign's running aggregates.
func (c *Campaign) Aggregates() Aggregates { return c.View(false).Aggregates }

// View snapshots the campaign; includeJobs adds one JobRef per expanded
// index, in expansion order.
func (c *Campaign) View(includeJobs bool) View {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := View{
		ID:     c.id,
		Tenant: c.spec.Tenant,
		Weight: c.spec.Weight,
		Status: c.status,
		Error:  c.errMsg,
		Spec:   c.spec,
		Aggregates: Aggregates{
			Total:        c.gen.Total(),
			Expanded:     c.next,
			Admitted:     c.tally[ioAdmitted] + c.tally[ioDeduped] + c.tally[ioRecovered],
			Running:      c.runningLocked(),
			Completed:    c.tally[ioCompleted],
			Deduped:      c.deduped,
			Recovered:    c.recovered,
			Failed:       c.failedLocked(),
			ResultDigest: c.digest,
		},
	}
	c.agg.stats(&v.Aggregates)
	if includeJobs {
		v.Jobs = append([]JobRef{}, c.refs...)
	}
	return v
}
