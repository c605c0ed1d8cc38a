// Command precision-client submits experiments to a precisiond daemon and
// waits for their results.
//
// Usage:
//
//	precision-client -spec spec.json            # one spec from a file
//	echo '{"app":"clamr",...}' | precision-client -spec -
//	precision-client -sweep quick               # replay the full paper sweep
//	precision-client -sweep quick -json         # raw result payloads
//	precision-client -sweep quick -retry 10     # ride out daemon restarts
//	precision-client -spec spec.json -trace     # print the job's span timeline
//	precision-client -campaign grid.json        # server-side campaign + live aggregates
//	precision-client -grid grid.json            # same file, client-side expansion
//	precision-client -spec spec.json -max-mass-error 1e-7   # accuracy-budgeted auto mode
//
// -max-mass-error / -max-linecut-linf rewrite each -spec/-sweep submission
// to mode "auto" with that accuracy budget: the daemon resolves the
// cheapest precision mode its fleet-learned evidence shows meets the
// budget (falling back to full until evidence exists). Summary lines for
// auto submissions render the resolution ("auto→half") and a final line
// totals the modeled joules/dollars the tuned modes saved against the
// full-precision baseline.
//
// Each completed job prints one summary line; cached=true marks results the
// daemon served from its content-addressed cache without recomputing.
// With -trace, the client fetches GET /v1/jobs/{id}/trace after each result
// and prints a human-readable timeline: one line per span, indented by
// nesting, with offset, duration and attributes — queue wait, each attempt,
// retry backoffs and precision escalations included.
// With -retry N, connection failures, 5xx responses (a restarting or
// briefly degraded daemon) and 429 backpressure (a full queue; the
// server's Retry-After hint is honored) are retried up to N times with
// linear backoff — the knob chaos tests lean on.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve/queue"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("precision-client: ")

	var (
		addr      = flag.String("addr", "http://127.0.0.1:7717", "precisiond base URL")
		specPath  = flag.String("spec", "", "experiment spec JSON file ('-' for stdin)")
		sweep     = flag.String("sweep", "", "submit the full paper sweep at this scale (quick|standard|paper)")
		raw       = flag.Bool("json", false, "print raw result payloads instead of summary lines")
		retries   = flag.Int("retry", 0, "retry connection failures and 5xx responses this many times")
		trace     = flag.Bool("trace", false, "print each job's span timeline after its result")
		replayDir = flag.String("replay-cache", "", "cache result payloads + ETags in this directory and revalidate with If-None-Match on replay")
		campPath  = flag.String("campaign", "", "submit a campaign spec JSON file server-side (POST /v1/campaigns) and render the streamed aggregates")
		gridPath  = flag.String("grid", "", "expand a campaign spec file client-side, one POST /v1/jobs per index — the sweep loop campaigns replace")
		maxMass   = flag.Float64("max-mass-error", 0, "submit -spec/-sweep as mode \"auto\" with this relative mass-error budget (0 = off)")
		maxLinf   = flag.Float64("max-linecut-linf", 0, "submit -spec/-sweep as mode \"auto\" with this line-cut L∞ budget vs the full-precision reference (0 = off)")
	)
	flag.Parse()

	if *campPath != "" || *gridPath != "" {
		if *specPath != "" || *sweep != "" || (*campPath != "" && *gridPath != "") {
			log.Fatal("-campaign/-grid are mutually exclusive with each other and with -spec/-sweep")
		}
		if *campPath != "" {
			runCampaign(*addr, *campPath, *retries, *raw)
		} else {
			runGrid(*addr, *gridPath, *retries, *raw)
		}
		return
	}

	var rc *replayCache
	if *replayDir != "" {
		var err error
		if rc, err = openReplayCache(*replayDir); err != nil {
			log.Fatal(err)
		}
	}

	var specs []runner.ExperimentSpec
	switch {
	case *specPath != "" && *sweep != "":
		log.Fatal("-spec and -sweep are mutually exclusive")
	case *specPath != "":
		spec, err := readSpec(*specPath)
		if err != nil {
			log.Fatal(err)
		}
		specs = []runner.ExperimentSpec{spec}
	case *sweep != "":
		scale, err := repro.ParseScale(*sweep)
		if err != nil {
			log.Fatal(err)
		}
		specs = runner.SweepSpecs(scale)
	default:
		log.Fatal("nothing to submit: pass -spec or -sweep")
	}

	// An accuracy budget turns the submission over to the daemon's
	// autotuner: mode "auto", budgets attached, resolution server-side.
	if *maxMass > 0 || *maxLinf > 0 {
		for i := range specs {
			specs[i].Mode = runner.ModeAuto
			specs[i].MaxMassError = *maxMass
			specs[i].MaxLinecutLinf = *maxLinf
		}
	}

	// Submit everything up front — identical specs collapse onto one job
	// server-side — then collect results in submission order.
	views := make([]queue.View, len(specs))
	for i, spec := range specs {
		v, err := submit(*addr, spec, *retries)
		if err != nil {
			log.Fatalf("submit %s/%s: %v", spec.App, spec.Mode, err)
		}
		views[i] = v
	}
	failed, revalidated, tuned := 0, 0, 0
	savedJoules, savedDollars := 0.0, 0.0
	for _, v := range views {
		payload, notModified, err := fetchResult(*addr, v.ID, *retries, rc, v.SpecHash)
		if notModified {
			revalidated++
		}
		if err != nil {
			failed++
			fmt.Printf("%s  %s/%s  FAILED: %v\n", v.ID, v.Spec.App, v.Spec.Mode, err)
			continue
		}
		if *raw {
			os.Stdout.Write(payload)
			fmt.Println()
			if *trace {
				td, err := fetchTrace(*addr, v.ID, *retries)
				if err != nil {
					log.Fatalf("%s: fetch trace: %v", v.ID, err)
				}
				printTrace(os.Stdout, td)
			}
			continue
		}
		var res runner.Result
		if err := json.Unmarshal(payload, &res); err != nil {
			log.Fatalf("%s: decode result: %v", v.ID, err)
		}
		mode := res.Spec.Mode
		if v.TunedMode != "" {
			// The view reports savings only once the job completed, so
			// re-snapshot now that the result is in hand.
			if fv, err := fetchView(*addr, v.ID, *retries); err == nil {
				v = fv
			}
			mode = "auto→" + v.TunedMode
			tuned++
			savedJoules += v.SavedJoules
			savedDollars += v.SavedDollars
		}
		fmt.Printf("%s  %-5s/%-5s  steps=%-4d cached=%-5v state=%s  %.3fs\n",
			v.ID, res.Spec.App, mode, res.Steps, v.Cached, res.StateHash[:12], res.WallSeconds)
		if *trace {
			td, err := fetchTrace(*addr, v.ID, *retries)
			if err != nil {
				log.Fatalf("%s: fetch trace: %v", v.ID, err)
			}
			printTrace(os.Stdout, td)
		}
	}
	if rc != nil {
		// stderr so -json stdout stays parseable; smoke tests grep this.
		fmt.Fprintf(os.Stderr, "replay-cache: %d/%d results revalidated (304)\n", revalidated, len(views))
	}
	if tuned > 0 {
		// Modeled savings vs running every tuned job at full precision.
		perJob := savedDollars / float64(tuned)
		fmt.Printf("autotune: jobs=%d saved_joules=%.4g saved=$%.4g ($%.3g/experiment saved)\n",
			tuned, savedJoules, savedDollars, perJob)
	}
	if failed > 0 {
		log.Fatalf("%d of %d jobs failed", failed, len(views))
	}
}

func readSpec(path string) (runner.ExperimentSpec, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return runner.ExperimentSpec{}, err
		}
		defer f.Close()
		r = f
	}
	var spec runner.ExperimentSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return runner.ExperimentSpec{}, fmt.Errorf("decode %s: %w", path, err)
	}
	return spec, nil
}

// retryAfter tags an error with the server's Retry-After hint (429
// backpressure): withRetry sleeps at least this long before the next try.
type retryAfter struct {
	err  error
	wait time.Duration
}

func (r *retryAfter) Error() string { return r.err.Error() }
func (r *retryAfter) Unwrap() error { return r.err }

// withRetry runs fn up to 1+retries times, retrying connection errors, 5xx
// responses and 429 backpressure (retryable=true) with linear backoff —
// stretched to the server's Retry-After hint when one came back. Any other
// 4xx is final: resubmitting a bad spec cannot fix it.
func withRetry(retries int, fn func() (retryable bool, err error)) error {
	var err error
	for attempt := 0; ; attempt++ {
		var retryable bool
		retryable, err = fn()
		if err == nil || !retryable || attempt >= retries {
			return err
		}
		wait := time.Duration(attempt+1) * 200 * time.Millisecond
		var ra *retryAfter
		if errors.As(err, &ra) && ra.wait > wait {
			wait = ra.wait
		}
		time.Sleep(wait)
	}
}

func submit(addr string, spec runner.ExperimentSpec, retries int) (queue.View, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return queue.View{}, err
	}
	var v queue.View
	err = withRetry(retries, func() (bool, error) {
		resp, err := http.Post(addr+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return true, err // connection error: daemon may be restarting
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return true, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			// Backpressure, not failure: the queue is full. Honor the
			// server's Retry-After pacing under -retry.
			err := fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
			if secs, aerr := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); aerr == nil && secs > 0 {
				return true, &retryAfter{err: err, wait: time.Duration(secs) * time.Second}
			}
			return true, err
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			return resp.StatusCode >= 500, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
		return false, json.Unmarshal(data, &v)
	})
	return v, err
}

// fetchView re-reads one job's view — the post-completion snapshot carries
// the autotuner's savings figures, which the submit-time view cannot.
func fetchView(addr, id string, retries int) (queue.View, error) {
	var v queue.View
	data, err := getOK(addr+"/v1/jobs/"+id, retries)
	if err == nil {
		err = json.Unmarshal(data, &v)
	}
	return v, err
}

func fetchTrace(addr, id string, retries int) (obs.TraceData, error) {
	var td obs.TraceData
	data, err := getOK(addr+"/v1/jobs/"+id+"/trace", retries)
	if err == nil {
		err = json.Unmarshal(data, &td)
	}
	return td, err
}

// errNotFound marks a 404: the daemon holds no such job — never issued,
// from before a restart, or finished and since forgotten — or no result
// under that spec hash.
var errNotFound = errors.New("not found")

// statusErr turns a non-2xx response into an error, wrapping errNotFound
// for a 404.
func statusErr(code int, body []byte) error {
	if code == http.StatusNotFound {
		return fmt.Errorf("status %d: %w: %s", code, errNotFound, bytes.TrimSpace(body))
	}
	return fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
}

// getOK GETs url and returns the body of a 200. Connection errors and 5xx
// are retried under withRetry; any other status is final.
func getOK(url string, retries int) ([]byte, error) {
	var body []byte
	err := withRetry(retries, func() (bool, error) {
		resp, err := http.Get(url)
		if err != nil {
			return true, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return true, err
		}
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode >= 500, statusErr(resp.StatusCode, data)
		}
		body = data
		return false, nil
	})
	return body, err
}

// printTrace renders a span timeline as an indented tree, one line per
// span: offset from the trace start, duration, name, attributes. Aggregate
// spans (solver phase totals) and still-open spans are marked.
func printTrace(w io.Writer, td obs.TraceData) {
	depth := make([]int, len(td.Spans))
	for i, sp := range td.Spans {
		if sp.Parent >= 0 && sp.Parent < i {
			depth[i] = depth[sp.Parent] + 1
		}
	}
	fmt.Fprintf(w, "  trace %s  started %s  total %s\n",
		td.JobID, td.StartedAt.Format(time.RFC3339Nano), fmtNs(td.DurationNs))
	for i, sp := range td.Spans {
		var marks []string
		for _, a := range sp.Attrs {
			marks = append(marks, a.Key+"="+a.Value)
		}
		flag := " "
		if sp.Open {
			flag = "…"
		}
		fmt.Fprintf(w, "  %10s %10s %s %s%s %s\n",
			"+"+fmtNs(sp.StartNs), fmtNs(sp.DurationNs), flag,
			strings.Repeat("  ", depth[i]), sp.Name, strings.Join(marks, " "))
	}
}

// fmtNs renders a nanosecond count compactly (µs under 1ms, ms under 1s).
func fmtNs(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// fetchResult downloads one job's result payload. With a replay cache and
// a prior ETag for the spec hash it revalidates instead: If-None-Match →
// 304 means the cached bytes are current and zero body moves.
func fetchResult(addr, id string, retries int, rc *replayCache, specHash string) (payload []byte, notModified bool, err error) {
	var cached []byte
	var etag string
	if rc != nil && specHash != "" {
		cached, etag = rc.load(specHash)
	}
	err = withRetry(retries, func() (bool, error) {
		req, err := http.NewRequest(http.MethodGet, addr+"/v1/jobs/"+id+"/result", nil)
		if err != nil {
			return false, err
		}
		if etag != "" && cached != nil {
			req.Header.Set("If-None-Match", etag)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return true, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return true, err
		}
		if resp.StatusCode == http.StatusNotModified {
			payload, notModified = cached, true
			return false, nil
		}
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode >= 500, statusErr(resp.StatusCode, data)
		}
		payload = data
		if rc != nil && specHash != "" {
			if tag := resp.Header.Get("ETag"); tag != "" {
				if serr := rc.store(specHash, data, tag); serr != nil {
					log.Printf("replay-cache store %s: %v", specHash, serr)
				}
			}
		}
		return false, nil
	})
	return payload, notModified, err
}

// replayCache persists result payloads and their ETags per spec hash:
// <dir>/<spechash>.res and <dir>/<spechash>.etag, written atomically so a
// killed client never leaves a payload/ETag pair out of sync enough to
// matter (a stale or orphaned ETag just costs one full 200 re-download).
type replayCache struct{ dir string }

func openReplayCache(dir string) (*replayCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("replay-cache: %w", err)
	}
	return &replayCache{dir: dir}, nil
}

func (rc *replayCache) load(specHash string) (payload []byte, etag string) {
	payload, err := os.ReadFile(rc.path(specHash, ".res"))
	if err != nil || len(payload) == 0 {
		return nil, ""
	}
	tag, err := os.ReadFile(rc.path(specHash, ".etag"))
	if err != nil {
		return nil, ""
	}
	return payload, strings.TrimSpace(string(tag))
}

func (rc *replayCache) store(specHash string, payload []byte, etag string) error {
	if err := writeFileAtomic(rc.path(specHash, ".res"), payload); err != nil {
		return err
	}
	return writeFileAtomic(rc.path(specHash, ".etag"), []byte(etag+"\n"))
}

func (rc *replayCache) path(specHash, ext string) string {
	return rc.dir + string(os.PathSeparator) + specHash + ext
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
