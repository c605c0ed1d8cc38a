// Package api is precisiond's HTTP surface: a small JSON API over the
// scheduler and result cache.
//
//	POST /v1/jobs              submit an ExperimentSpec; returns the job view
//	GET  /v1/jobs              list admitted jobs
//	GET  /v1/jobs/{id}         job view (status, progress, cached flag)
//	GET  /v1/jobs/{id}/result  block until terminal; raw result payload
//	GET  /v1/jobs/{id}/stream  NDJSON progress: one view per change, then done
//	GET  /v1/jobs/{id}/trace   span timeline (?format=chrome for trace_event)
//	DELETE /v1/jobs/{id}       release a poisoned job back onto the queue
//	GET  /v1/results/{hash}    raw result payload by spec hash (tiered read)
//	GET  /v1/cache/stats       scheduler + cache counters
//	GET  /metrics              Prometheus text exposition (WithMetrics)
//	GET  /healthz              liveness; 503 + JSON detail when degraded
//
// Result reads are the service's tiered read path (DESIGN.md §11). Both
// result endpoints emit a strong ETag derived from the versioned spec
// hash and honor If-None-Match with 304 Not Modified, so a warm client
// replaying a sweep moves zero bodies. Behind the revalidation layer,
// /v1/results/{hash} reads through the cache's tiers — hot memory, then
// local disk.
//
// With WithCampaigns, server-side parameter sweeps are mounted too:
//
//	POST   /v1/campaigns              submit a campaign spec (generator)
//	GET    /v1/campaigns              list campaigns
//	GET    /v1/campaigns/{id}         campaign view (?jobs=1 adds job refs)
//	GET    /v1/campaigns/{id}/stream  NDJSON running aggregates
//	DELETE /v1/campaigns/{id}         cancel expansion
//
// With WithAutotune, the closed-loop precision policy's decision table is
// readable too:
//
//	GET /v1/autotune                  learned per-shape mode table
//
// With WithDispatch, the remote-fleet coordinator is mounted too:
//
//	POST /v1/workers/register        announce a precision-worker node
//	POST /v1/workers/lease           long-poll for one lease grant
//	POST /v1/workers/{id}/heartbeat  extend leases, relay progress
//	POST /v1/workers/{id}/complete   upload an attempt's terminal state
//	POST /v1/workers/{id}/deregister graceful goodbye (leases re-queue)
//	GET  /v1/workers                 fleet view (workers, active leases)
//	GET  /metrics/fleet              federated exposition across the fleet
//
// A full queue answers POST /v1/jobs with 429 and a Retry-After header —
// backpressure the client honors under -retry rather than a hard failure.
//
// The result endpoint returns the cache payload verbatim, so every
// submission of one spec observes byte-identical result bytes regardless of
// whether it was computed, deduplicated onto an in-flight job, or answered
// from the cache.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve/autotune"
	"repro/internal/serve/cache"
	"repro/internal/serve/campaign"
	"repro/internal/serve/dispatch"
	"repro/internal/serve/queue"
)

// Server routes API requests to a scheduler and its cache.
type Server struct {
	sched *queue.Scheduler
	cache *cache.Cache
	mux   *http.ServeMux

	// pollInterval paces the NDJSON stream's snapshot polling.
	pollInterval time.Duration
	// metrics, when non-nil, is served at GET /metrics.
	metrics *obs.Registry
	// fleet, when non-nil, mounts the worker-facing lease protocol.
	fleet *dispatch.Coordinator
	// campaigns, when non-nil, mounts the campaign API under /v1/campaigns.
	campaigns *campaign.Manager
	// tuner, when non-nil, serves its decision table at GET /v1/autotune.
	tuner *autotune.Tuner
	// reads counts result reads by serving tier (no-op Vec without metrics).
	reads obs.CounterVec
	// started anchors the /healthz uptime report.
	started time.Time
}

// Option adjusts a Server.
type Option func(*Server)

// WithPollInterval overrides the progress-stream poll pace (default 200ms).
func WithPollInterval(d time.Duration) Option {
	return func(s *Server) { s.pollInterval = d }
}

// WithMetrics serves the registry's Prometheus text exposition at
// GET /metrics.
func WithMetrics(r *obs.Registry) Option {
	return func(s *Server) { s.metrics = r }
}

// WithDispatch mounts the remote-fleet coordinator's worker protocol under
// /v1/workers.
func WithDispatch(co *dispatch.Coordinator) Option {
	return func(s *Server) { s.fleet = co }
}

// WithAutotune serves the closed-loop precision policy's learned decision
// table at GET /v1/autotune.
func WithAutotune(t *autotune.Tuner) Option {
	return func(s *Server) { s.tuner = t }
}

// New builds the API over a scheduler and its cache (cache may be nil when
// the scheduler runs uncached).
func New(sched *queue.Scheduler, c *cache.Cache, opts ...Option) *Server {
	s := &Server{sched: sched, cache: c, pollInterval: 200 * time.Millisecond, started: time.Now()}
	for _, o := range opts {
		o(s)
	}
	if s.metrics != nil {
		s.reads = s.metrics.CounterVec("precisiond_result_reads_total",
			"Result reads by serving tier: etag_304 (revalidated, no body), "+
				"job (payload pinned in the job record), hot, disk, miss.",
			"source")
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs", s.listJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.jobView)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.jobResult)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.jobStream)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.jobTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.jobRelease)
	mux.HandleFunc("GET /v1/results/{hash}", s.resultByHash)
	mux.HandleFunc("GET /v1/cache/stats", s.stats)
	mux.HandleFunc("GET /healthz", s.healthz)
	if s.metrics != nil {
		mux.Handle("GET /metrics", s.metrics.Handler())
	}
	if s.campaigns != nil {
		mux.HandleFunc("POST /v1/campaigns", s.submitCampaign)
		mux.HandleFunc("GET /v1/campaigns", s.listCampaigns)
		mux.HandleFunc("GET /v1/campaigns/{id}", s.campaignView)
		mux.HandleFunc("GET /v1/campaigns/{id}/stream", s.campaignStream)
		mux.HandleFunc("DELETE /v1/campaigns/{id}", s.campaignCancel)
	}
	if s.tuner != nil {
		mux.HandleFunc("GET /v1/autotune", s.autotuneTable)
	}
	if s.fleet != nil {
		mux.HandleFunc("POST /v1/workers/register", s.fleet.HandleRegister)
		mux.HandleFunc("POST /v1/workers/lease", s.fleet.HandleLease)
		mux.HandleFunc("POST /v1/workers/{id}/heartbeat", s.fleet.HandleHeartbeat)
		mux.HandleFunc("POST /v1/workers/{id}/complete", s.fleet.HandleComplete)
		mux.HandleFunc("POST /v1/workers/{id}/deregister", s.fleet.HandleDeregister)
		mux.HandleFunc("GET /v1/workers", s.fleet.HandleList)
		mux.HandleFunc("GET /metrics/fleet", s.fleet.HandleFleetMetrics)
	}
	s.mux = mux
	return s
}

// buildInfo renders the module version and VCS revision baked into the
// binary ("(devel)" under plain `go build`, "unknown" under `go test`).
func buildInfo() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	version, revision := bi.Main.Version, ""
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			revision = kv.Value
		}
	}
	if version == "" {
		version = "unknown"
	}
	if revision != "" {
		if len(revision) > 12 {
			revision = revision[:12]
		}
		return version + " " + revision
	}
	return version
}

// runtimeVersion is the Go toolchain that built the binary.
func runtimeVersion() string { return runtime.Version() }

// healthDetail is the /healthz degraded payload: the failing reasons plus
// enough context to debug the node without shelling into it.
type healthDetail struct {
	Status        string   `json:"status"`
	Reasons       []string `json:"reasons"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	Build         string   `json:"build"`
	GoVersion     string   `json:"go_version"`
	// LastJournalError / LastCacheError retain the most recent durability
	// incident even if the subsystem has since recovered.
	LastJournalError string `json:"last_journal_error,omitempty"`
	LastCacheError   string `json:"last_cache_error,omitempty"`
}

// healthz reports liveness. Healthy stays the plain-text "ok" probes have
// always read; a daemon whose durability machinery is broken — cache dir
// unwritable, journal unable to fsync — answers 503 with the reasons plus
// uptime, build info and the last journal/cache error, so orchestrators
// stop routing work to a node that would accept jobs it cannot keep and
// operators see why without shelling in.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if s.cache != nil {
		if err := s.cache.WriteProbe(); err != nil {
			reasons = append(reasons, fmt.Sprintf("cache: %v", err))
		}
	}
	if err := s.sched.Health(); err != nil {
		reasons = append(reasons, err.Error())
	}
	if len(reasons) > 0 {
		detail := healthDetail{
			Status:        "degraded",
			Reasons:       reasons,
			UptimeSeconds: time.Since(s.started).Seconds(),
			Build:         buildInfo(),
			GoVersion:     runtimeVersion(),
		}
		detail.LastJournalError = s.sched.JournalLastError()
		if s.cache != nil {
			detail.LastCacheError = s.cache.LastError()
		}
		writeJSON(w, http.StatusServiceUnavailable, detail)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// retryAfterSeconds is the backoff hint sent with a 429: long enough for a
// queued job to finish or a fleet worker to lease one off the board, short
// enough that a sweeping client keeps the queue near its bound.
const retryAfterSeconds = 1

// queueFullReply is the 429 body; the header's Retry-After is mirrored into
// JSON so clients that never look at headers still see the hint.
type queueFullReply struct {
	Error             string `json:"error"`
	RetryAfterSeconds int    `json:"retry_after_seconds"`
}

// submit admits a spec. 200 for a job that is already terminal (cache hit),
// 202 for queued/deduplicated work, 400 for an invalid spec, 429 with
// Retry-After for a full queue (backpressure — try again, nothing is
// wrong), 503 for a journal that cannot accept the admission. ?timeout=30s
// sets a per-attempt deadline for this job.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var opts queue.SubmitOptions
	if t := r.URL.Query().Get("timeout"); t != "" {
		d, err := time.ParseDuration(t)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "invalid timeout %q", t)
			return
		}
		opts.Timeout = d
	}
	var spec runner.ExperimentSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decode spec: %v", err)
		return
	}
	job, err := s.sched.SubmitOpts(spec, opts)
	switch {
	case errors.Is(err, queue.ErrQueueFull):
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
		writeJSON(w, http.StatusTooManyRequests, queueFullReply{
			Error:             err.Error(),
			RetryAfterSeconds: retryAfterSeconds,
		})
		return
	case err != nil && strings.Contains(err.Error(), "journal"):
		// An un-journalable admission is a capacity problem, not a client
		// one: the spec may be fine, the daemon just cannot promise
		// durability right now.
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	v := job.Snapshot()
	status := http.StatusAccepted
	if v.Status == queue.StatusDone || v.Status == queue.StatusFailed {
		status = http.StatusOK
	}
	writeJSON(w, status, v)
}

func (s *Server) listJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.Jobs())
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*queue.Job, bool) {
	id := r.PathValue("id")
	job, ok := s.sched.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
	}
	return job, ok
}

func (s *Server) jobView(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// jobRelease (DELETE /v1/jobs/{id}) releases a poisoned job back onto the
// queue — the operator's escape hatch after fixing whatever convicted the
// spec. 404 for an unknown job, 409 for a job not parked as poisoned, 503
// when the journal refuses to record the release (the job stays parked).
func (s *Server) jobRelease(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch err := s.sched.RetryPoisoned(id); {
	case err == nil:
		job, _ := s.sched.Job(id)
		writeJSON(w, http.StatusAccepted, job.Snapshot())
	case errors.Is(err, queue.ErrUnknownJob):
		writeError(w, http.StatusNotFound, "unknown job %q", id)
	case errors.Is(err, queue.ErrNotPoisoned):
		writeError(w, http.StatusConflict, "job %q is not poisoned", id)
	default:
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	}
}

// resultETag is the strong validator for one spec hash's result payload:
// derived from the versioned spec hash alone — not file mtimes, not
// process identity — so it is stable across daemon restarts and identical
// on every node serving the same spec. The determinism contract
// (DESIGN.md §5) is what makes this a *strong* ETag: every computation of
// a spec produces the same result bytes, so the spec hash names the
// representation.
func resultETag(specHash string) string { return `"` + specHash + `"` }

// etagMatches reports whether an If-None-Match header value matches etag.
// Both the wildcard and a comma-separated validator list are honored;
// weak-comparison prefixes (W/) never match — result reads are
// byte-identity reads.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, candidate := range strings.Split(header, ",") {
		if strings.TrimSpace(candidate) == etag {
			return true
		}
	}
	return false
}

// writeNotModified answers a successful revalidation: 304, the validator
// repeated, zero body bytes moved.
func (s *Server) writeNotModified(w http.ResponseWriter, etag string) {
	s.reads.With("etag_304").Inc()
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "no-cache") // reuse freely, but revalidate
	w.WriteHeader(http.StatusNotModified)
}

// jobResult blocks until the job is terminal, then returns the result
// payload bytes verbatim (or the failure as JSON error). The wait is bounded
// by the client's request context. Successful results carry a strong ETag
// derived from the spec hash; a matching If-None-Match short-circuits to
// 304 with no body — tier 1 of the read path.
func (s *Server) jobResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		return // client went away; nothing useful to write
	}
	etag := resultETag(job.SpecHash)
	if job.Snapshot().Status == queue.StatusDone && etagMatches(r.Header.Get("If-None-Match"), etag) {
		// Before reading the payload, which for an executed job is a cache
		// read: a revalidation touches no tier.
		s.writeNotModified(w, etag)
		return
	}
	if payload, ok := job.Result(); ok {
		s.reads.With("job").Inc()
		w.Header().Set("ETag", etag)
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Content-Type", "application/json")
		w.Write(payload)
		return
	}
	writeError(w, http.StatusInternalServerError, "job failed: %s", job.Snapshot().Error)
}

// resultByHash serves a cached result payload directly by spec hash,
// through the cache's read tiers (hot memory → disk). ETag revalidation
// applies exactly as on the job-scoped endpoint.
func (s *Server) resultByHash(w http.ResponseWriter, r *http.Request) {
	if s.cache == nil {
		writeError(w, http.StatusNotFound, "no result cache configured")
		return
	}
	hash := r.PathValue("hash")
	etag := resultETag(hash)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		// Revalidation needs no tier at all: the validator is the content
		// address. A client holding bytes for this hash holds the bytes.
		s.writeNotModified(w, etag)
		return
	}
	payload, src, ok := s.cache.Fetch(hash)
	if !ok {
		s.reads.With("miss").Inc()
		writeError(w, http.StatusNotFound, "no cached result for spec hash %q", hash)
		return
	}
	s.reads.With(string(src)).Inc()
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Read-Tier", string(src))
	w.Header().Set("Content-Type", "application/json")
	w.Write(payload)
}

// jobTrace returns the job's span timeline as JSON. Available at any point
// in the lifecycle: a running job reports its spans so far, with the open
// ones frozen at the snapshot instant. ?format=chrome renders the same
// timeline as Chrome trace_event JSON for chrome://tracing / Perfetto.
func (s *Server) jobTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.Write(obs.ChromeTrace(job.Trace()))
		return
	}
	writeJSON(w, http.StatusOK, job.Trace())
}

// jobStream emits the job's view as NDJSON: one line per observed change
// (status or step), then the terminal view, then EOF.
func (s *Server) jobStream(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)

	var last queue.View
	emit := func(v queue.View) {
		enc.Encode(v)
		if flusher != nil {
			flusher.Flush()
		}
		last = v
	}
	emit(job.Snapshot())

	ticker := time.NewTicker(s.pollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-job.Done():
			if v := job.Snapshot(); viewChanged(v, last) {
				emit(v)
			}
			return
		case <-ticker.C:
			if v := job.Snapshot(); viewChanged(v, last) {
				emit(v)
			}
		}
	}
}

// viewChanged reports whether a view differs from the last emitted one in
// any field a stream consumer watches (View holds a slice, so it is not
// directly comparable).
func viewChanged(v, last queue.View) bool {
	return v.Status != last.Status ||
		v.Step != last.Step ||
		v.Total != last.Total ||
		v.Attempts != last.Attempts ||
		len(v.Escalations) != len(last.Escalations) ||
		v.Error != last.Error
}

// AutotuneReply is the GET /v1/autotune payload: the learned decision
// table, one entry per (app, scenario-shape), sorted by key.
type AutotuneReply struct {
	Entries []autotune.EntryView `json:"entries"`
}

// autotuneTable serves the autotuner's decision table: per-shape committed
// mode, floor, warm-up progress, per-mode fidelity evidence and the
// cumulative modeled savings against the full-precision baseline.
func (s *Server) autotuneTable(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, AutotuneReply{Entries: s.tuner.Snapshot()})
}

// StatsReply is the /v1/cache/stats payload.
type StatsReply struct {
	Scheduler queue.Stats  `json:"scheduler"`
	Cache     *cache.Stats `json:"cache,omitempty"`
}

func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	reply := StatsReply{Scheduler: s.sched.Stats()}
	if s.cache != nil {
		cs := s.cache.Stats()
		reply.Cache = &cs
	}
	writeJSON(w, http.StatusOK, reply)
}
