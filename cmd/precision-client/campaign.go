package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/precision"
	"repro/internal/runner"
	"repro/internal/serve/campaign"
)

// readCampaignSpec loads a campaign spec file ('-' for stdin).
func readCampaignSpec(path string) (campaign.Spec, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return campaign.Spec{}, err
		}
		defer f.Close()
		r = f
	}
	var spec campaign.Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return campaign.Spec{}, fmt.Errorf("decode %s: %w", path, err)
	}
	return spec, nil
}

// runCampaign submits a campaign spec file to POST /v1/campaigns, follows
// the NDJSON aggregate stream until the campaign is terminal, then prints
// the final view. With -json the raw aggregate lines pass through
// verbatim; otherwise each becomes one human-readable progress line.
func runCampaign(addr, path string, retries int, raw bool) {
	spec, err := readCampaignSpec(path)
	if err != nil {
		log.Fatal(err)
	}
	v, err := submitCampaign(addr, spec, retries)
	if err != nil {
		log.Fatalf("submit campaign: %v", err)
	}
	fmt.Fprintf(os.Stderr, "campaign %s submitted: tenant=%s total=%d\n",
		v.ID, v.Tenant, v.Aggregates.Total)

	// The stream ends at the terminal aggregates; a dropped connection
	// (daemon restart mid-campaign) re-opens it under -retry, and the
	// status probe below tells stream-EOF apart from daemon-shutdown.
	for {
		err := streamCampaign(addr, v.ID, raw)
		final, ferr := fetchCampaign(addr, v.ID, retries, false)
		if ferr == nil && final.Status != campaign.StatusRunning {
			break
		}
		if err != nil && retries <= 0 {
			log.Fatalf("stream campaign %s: %v", v.ID, err)
		}
		retries--
		time.Sleep(500 * time.Millisecond)
	}

	final, err := fetchCampaign(addr, v.ID, retries, true)
	if err != nil {
		log.Fatalf("fetch campaign %s: %v", v.ID, err)
	}
	a := final.Aggregates
	fmt.Printf("campaign %s %s: total=%d completed=%d deduped=%d recovered=%d failed=%d\n",
		final.ID, final.Status, a.Total, a.Completed, a.Deduped, a.Recovered, a.Failed)
	if a.MassError != nil {
		fmt.Printf("mass_error: n=%d p50=%.3e p90=%.3e p99=%.3e max=%.3e\n",
			a.MassError.Count, a.MassError.P50, a.MassError.P90, a.MassError.P99, a.MassError.Max)
	}
	if a.LineCutDelta != nil {
		fmt.Printf("line_cut_delta: n=%d mean=%.3e max=%.3e\n",
			a.LineCutDelta.Count, a.LineCutDelta.Mean, a.LineCutDelta.Max)
	}
	for _, m := range precision.Ladder {
		mode := m.Name()
		ms, ok := a.PerMode[mode]
		if !ok {
			continue
		}
		line := fmt.Sprintf("mode %-5s jobs=%d completed=%d failed=%d escalation_rate=%.3f",
			mode, ms.Jobs, ms.Completed, ms.Failed, ms.EscalationRate)
		if ms.Energy != nil {
			line += fmt.Sprintf(" joules=%.3g cost=$%.3g", ms.Energy.Joules, ms.Energy.CostDollars)
		}
		fmt.Println(line)
	}
	if e := a.Energy; e != nil {
		// The fleet's modeled $/experiment: arch profile × deterministic
		// counters, summed over every accounted job in the campaign.
		perJob := 0.0
		if e.Jobs > 0 {
			perJob = e.CostDollars / float64(e.Jobs)
		}
		fmt.Printf("energy: jobs=%d joules=%.4g cost=$%.4g ($%.3g/experiment)\n",
			e.Jobs, e.Joules, e.CostDollars, perJob)
	}
	if a.ResultDigest != "" {
		fmt.Printf("result_digest=%s\n", a.ResultDigest)
	}
	if a.Failed > 0 {
		log.Fatalf("%d of %d campaign jobs failed", a.Failed, a.Total)
	}
	if final.Status != campaign.StatusCompleted {
		log.Fatalf("campaign %s ended %s", final.ID, final.Status)
	}
}

func submitCampaign(addr string, spec campaign.Spec, retries int) (campaign.View, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return campaign.View{}, err
	}
	var v campaign.View
	err = withRetry(retries, func() (bool, error) {
		resp, err := http.Post(addr+"/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			return true, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return true, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			// Over-budget backpressure: resubmit once live campaigns drain.
			err := fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
			if secs, aerr := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); aerr == nil && secs > 0 {
				return true, &retryAfter{err: err, wait: time.Duration(secs) * time.Second}
			}
			return true, err
		}
		if resp.StatusCode != http.StatusAccepted {
			return resp.StatusCode >= 500, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
		return false, json.Unmarshal(data, &v)
	})
	return v, err
}

// streamCampaign follows one NDJSON aggregate stream to EOF.
func streamCampaign(addr, id string, raw bool) error {
	resp, err := http.Get(addr + "/v1/campaigns/" + id + "/stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if raw {
			os.Stdout.Write(line)
			fmt.Println()
			continue
		}
		var a campaign.Aggregates
		if err := json.Unmarshal(line, &a); err != nil {
			return fmt.Errorf("decode aggregate line: %w", err)
		}
		fmt.Fprintf(os.Stderr, "  %s: expanded=%d/%d running=%d completed=%d deduped=%d failed=%d\n",
			id, a.Expanded, a.Total, a.Running, a.Completed, a.Deduped, a.Failed)
	}
	return sc.Err()
}

func fetchCampaign(addr, id string, retries int, jobs bool) (campaign.View, error) {
	url := addr + "/v1/campaigns/" + id
	if jobs {
		url += "?jobs=1"
	}
	var v campaign.View
	data, err := getOK(url, retries)
	if err == nil {
		err = json.Unmarshal(data, &v)
	}
	return v, err
}

// runGrid expands a campaign spec file client-side — the legacy sweeping
// loop campaigns replace — submitting every index through POST /v1/jobs
// and digesting the "spec_hash state_hash" pairs exactly as the server
// does, so its result_digest is the bit-match reference for an equivalent
// POST /v1/campaigns run.
func runGrid(addr, path string, retries int, raw bool) {
	spec, err := readCampaignSpec(path)
	if err != nil {
		log.Fatal(err)
	}
	spec, err = spec.Normalized()
	if err != nil {
		log.Fatal(err)
	}
	gen, err := campaign.NewGenerator(spec.Generator)
	if err != nil {
		log.Fatal(err)
	}

	views := make([]viewAt, 0, gen.Total())
	for i := int64(0); i < gen.Total(); i++ {
		jobSpec, err := gen.At(i)
		if err != nil {
			log.Fatalf("expand index %d: %v", i, err)
		}
		v, err := submit(addr, jobSpec, retries)
		if err != nil {
			log.Fatalf("submit index %d (%s/%s): %v", i, jobSpec.App, jobSpec.Mode, err)
		}
		views = append(views, viewAt{index: i, id: v.ID, specHash: v.SpecHash, cached: v.Cached})
	}

	pairs := make([]string, 0, len(views))
	failed, cached := 0, 0
	for _, v := range views {
		if v.cached {
			cached++
		}
		payload, err := gridResult(addr, v, retries)
		if err != nil {
			failed++
			fmt.Printf("%s  index=%d  FAILED: %v\n", v.id, v.index, err)
			continue
		}
		if raw {
			os.Stdout.Write(payload)
			fmt.Println()
		}
		var res runner.Result
		if err := json.Unmarshal(payload, &res); err != nil {
			log.Fatalf("%s: decode result: %v", v.id, err)
		}
		if !raw {
			fmt.Fprintf(os.Stderr, "%s  index=%-4d %-5s/%-5s cached=%-5v state=%s\n",
				v.id, v.index, res.Spec.App, res.Spec.Mode, v.cached, res.StateHash[:12])
		}
		if res.StateHash != "" {
			pairs = append(pairs, v.specHash+" "+res.StateHash)
		}
	}
	fmt.Printf("grid %s: total=%d completed=%d cached=%d failed=%d\n",
		gen.Kind(), len(views), len(views)-failed, cached, failed)
	fmt.Printf("result_digest=%s\n", campaign.ResultDigest(pairs))
	if failed > 0 {
		log.Fatalf("%d of %d grid jobs failed", failed, len(views))
	}
}

// gridResult reads one grid index's result by job ID or, once the daemon no
// longer holds the job — a grid larger than its window of recent finished
// jobs, or a restart — by the content address the job was submitted under.
func gridResult(addr string, v viewAt, retries int) ([]byte, error) {
	payload, _, err := fetchResult(addr, v.id, retries, nil, "")
	if errors.Is(err, errNotFound) {
		return getOK(addr+"/v1/results/"+v.specHash, retries)
	}
	return payload, err
}

// viewAt pairs a submitted job view with its generator index.
type viewAt struct {
	index    int64
	id       string
	specHash string
	cached   bool
}
