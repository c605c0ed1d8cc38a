package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"

	"repro/internal/runner"
)

// Output checks beyond the per-response ones in client.go. Everything found
// here lands in the run's Errors and Failed, and so in failed_share.

// deepChecks is how many operations per run are recomputed in-process.
const deepChecks = 16

// recheck is one operation chosen for recomputation: the spec that ran and
// the payload the service returned for it.
type recheck struct {
	label   string
	spec    runner.ExperimentSpec
	payload []byte
}

// verify runs the after-window checks: the scheduler failed nothing, sampled
// results match a direct runner.Run bit for bit, and the journal holds
// exactly one done record per executed job.
func (h *harness) verify(ctx context.Context, res *runResult) error {
	var stats cacheStatsReply
	if err := h.hc.getJSON(ctx, "/v1/cache/stats", &stats); err != nil {
		return err
	}
	if stats.Scheduler.Failed != 0 {
		res.Failed += int(stats.Scheduler.Failed)
		res.addError(fmt.Sprintf("scheduler reports %v failed jobs", stats.Scheduler.Failed))
	}

	executed := map[string]bool{} // job ids that must have run exactly once
	for _, o := range h.in {
		if o.err == "" && o.res != nil {
			executed[o.jobID] = true
		}
	}
	picks, err := h.pickRechecks(ctx, res, executed)
	if err != nil {
		return err
	}
	for _, msg := range recompute(ctx, picks) {
		res.Failed++
		res.addError(msg)
	}
	for _, msg := range checkJournal(h.cl.journal, executed) {
		res.Failed++
		res.addError(msg)
	}
	return nil
}

// pickRechecks chooses deepChecks operations from a seeded permutation of
// the window's verified operations. A campaign contributes half of them from
// its own jobs (whose every reference is checked first); a read-only
// workload rechecks the preloaded results its reads returned.
func (h *harness) pickRechecks(ctx context.Context, res *runResult, executed map[string]bool) ([]recheck, error) {
	rng := streamRNG(h.seed, 0xC0FFEE)
	var picks []recheck
	want := deepChecks

	if h.campID != "" {
		var v campaignView
		if err := h.hc.getJSON(ctx, "/v1/campaigns/"+h.campID+"?jobs=1", &v); err != nil {
			return nil, err
		}
		for _, j := range v.Jobs {
			spec := campaignJobSpec(h.seed, int(j.Index))
			switch {
			case j.Status != "done" || j.StateHash == "":
				res.Failed++
				res.addError(fmt.Sprintf("campaign job %s (index %d): status %q, state_hash %q", j.JobID, j.Index, j.Status, j.StateHash))
			case j.SpecHash != mustHash(spec):
				res.Failed++
				res.addError(fmt.Sprintf("campaign job %s (index %d): spec_hash differs from the local expansion", j.JobID, j.Index))
			default:
				executed[j.JobID] = true
			}
		}
		for _, i := range rng.Perm(len(v.Jobs)) {
			if len(picks) == deepChecks/2 {
				break
			}
			j := v.Jobs[i]
			status, data, _, err := h.hc.call(ctx, "", noSpan, http.MethodGet, "/v1/results/"+j.SpecHash, nil, "")
			if err != nil {
				return nil, err
			}
			if status != http.StatusOK {
				res.Failed++
				res.addError(fmt.Sprintf("campaign job %s: result read answered %d", j.JobID, status))
				continue
			}
			picks = append(picks, recheck{label: "campaign job " + j.JobID, spec: campaignJobSpec(h.seed, int(j.Index)), payload: data})
		}
		want -= len(picks)
	}

	var solved []outcome
	touched := map[int]bool{}
	for _, o := range h.in {
		switch {
		case o.err != "":
		case o.res != nil:
			solved = append(solved, o)
		case o.op.Kind != kindWarm:
			touched[o.op.Key] = true
		}
	}
	// Completion order depends on timing; the choice must not.
	sort.Slice(solved, func(a, b int) bool {
		if solved[a].op.Stream != solved[b].op.Stream {
			return solved[a].op.Stream < solved[b].op.Stream
		}
		return solved[a].op.Seq < solved[b].op.Seq
	})
	if len(solved) > 0 {
		for _, i := range rng.Perm(len(solved)) {
			if want == 0 {
				break
			}
			o := solved[i]
			spec := *o.op.Spec
			if o.op.Kind == kindAuto {
				spec = spec.Concrete(o.tunedMode)
			}
			picks = append(picks, recheck{label: fmt.Sprintf("%s #%d (%s)", o.op.Kind, o.op.Seq, o.jobID), spec: spec, payload: o.payload})
			want--
		}
		return picks, nil
	}
	keys := make([]int, 0, len(touched))
	for k := range touched {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, i := range rng.Perm(len(keys)) {
		if want == 0 {
			break
		}
		p := h.pre[keys[i]]
		picks = append(picks, recheck{label: fmt.Sprintf("preloaded key %d", keys[i]), spec: p.Spec, payload: p.Payload})
		want--
	}
	return picks, nil
}

// recompute runs each pick through runner.Run in this process, two at a
// time, and compares the final-state hash and the deterministic result hash
// with what the service returned.
func recompute(ctx context.Context, picks []recheck) []string {
	var (
		mu   sync.Mutex
		msgs []string
		wg   sync.WaitGroup
	)
	report := func(format string, args ...any) {
		mu.Lock()
		msgs = append(msgs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(picks); i += 2 {
				p := picks[i]
				var served runner.Result
				if err := json.Unmarshal(p.payload, &served); err != nil {
					report("%s: decode served result: %v", p.label, err)
					continue
				}
				direct, err := runner.Run(ctx, p.spec, runner.RunOpts{Workers: 1})
				if err != nil {
					report("%s: direct run: %v", p.label, err)
					continue
				}
				if direct.StateHash != served.StateHash {
					report("%s: state_hash %s, direct run %s", p.label, served.StateHash, direct.StateHash)
					continue
				}
				sh, err1 := served.ResultHash()
				dh, err2 := direct.ResultHash()
				if err1 != nil || err2 != nil || sh != dh {
					report("%s: deterministic result hash differs from the direct run (%v %v)", p.label, err1, err2)
				}
			}
		}(g)
	}
	wg.Wait()
	sort.Strings(msgs)
	return msgs
}

// checkJournal parses the daemon's write-ahead journal as NDJSON: no job may
// have two done records, and every job the window saw executed must have
// exactly one.
func checkJournal(path string, executed map[string]bool) []string {
	f, err := os.Open(path)
	if err != nil {
		return []string{fmt.Sprintf("journal: %v", err)}
	}
	defer f.Close()
	done := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var rec struct {
			Type  string `json:"type"`
			JobID string `json:"job_id"`
		}
		if json.Unmarshal(sc.Bytes(), &rec) != nil {
			break // torn tail: the daemon is still alive and appending
		}
		if rec.Type == "done" {
			done[rec.JobID]++
		}
	}
	var msgs []string
	for id, n := range done {
		if n > 1 {
			msgs = append(msgs, fmt.Sprintf("journal: job %s has %d done records", id, n))
		}
	}
	for id := range executed {
		if done[id] != 1 {
			msgs = append(msgs, fmt.Sprintf("journal: executed job %s has %d done records, want 1", id, done[id]))
		}
	}
	sort.Strings(msgs)
	if len(msgs) > maxReportedErrors {
		msgs = append(msgs[:maxReportedErrors], fmt.Sprintf("journal: … and %d more", len(msgs)-maxReportedErrors))
	}
	return msgs
}
