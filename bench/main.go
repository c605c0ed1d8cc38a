// Command bench is the repository's measurement spine: it builds
// cmd/precisiond and cmd/precision-worker from the checkout, boots them as
// real subprocesses, drives four workloads through them, checks every output
// and prints the end-to-end metrics — or, traced, the per-layer ones. See
// README.md for the catalogue and BENCHMARK.json (repository root) for the
// contract the numbers are gated on.
//
//	go run -C bench . -all -seed 1              # four workloads, untraced
//	go run -C bench . -all -seed 1 -trace 1     # … then each again, traced
//	go run -C bench . -workload read_warm -seed 3 -seconds 25 -trace 0
//	go run -C bench . -repeat 5 -out runs.json  # spread against the bounds
//	go run -C bench . -compare parent.json change.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	all      bool
	repeat   int
	compare  bool
	out      string
	// rate, when non-zero, replaces an open-loop workload's committed rate:
	// the tool the committed rates were found with (README.md, "Committed
	// constants"). The run is marked invalid.
	rate float64
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the result object as the last line")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 25, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics, span file, layer walk")
	flag.BoolVar(&o.all, "all", false, "run every workload (with -trace 1: each untraced, then traced)")
	flag.IntVar(&o.repeat, "repeat", 0, "run the set N times on seeds seed..seed+N-1 and hold each metric's spread against its bound")
	flag.BoolVar(&o.compare, "compare", false, "compare result files (parent.json change.json) by the paired rule")
	flag.StringVar(&o.out, "out", "", "also write the runs to this JSON file (input of -compare)")
	flag.Float64Var(&o.rate, "rate", 0, "sizing only: override an open-loop workload's committed rate (the run is marked invalid)")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errOutsideBounds makes -repeat and -compare exit non-zero after printing.
var errOutsideBounds = fmt.Errorf("a metric is outside its committed bound")

func run(o options, args []string) error {
	if o.compare {
		return compareFiles(args)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	env, err := newEnv()
	if err != nil {
		return err
	}
	// Servers run in directories under this; it goes away on every exit path
	// (a signal cancels ctx, which unwinds through here).
	defer env.cleanup()
	if err := env.buildServers(ctx); err != nil {
		return err
	}
	window := time.Duration(o.seconds) * time.Second
	traced := o.trace == 1

	switch {
	case o.workload != "":
		def := findWorkload(o.workload)
		if def == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		if o.rate > 0 && def.open {
			sized := *def
			sized.rate = o.rate
			def = &sized
		}
		res, err := runWorkload(ctx, env, def, o.seed, window, traced)
		if err != nil {
			return err
		}
		if o.rate > 0 {
			res.Valid = false
			res.note("sizing run at %.1f ops/s, not the committed rate", o.rate)
		}
		printRun(res)
		if o.out != "" {
			if err := writeRuns(o.out, []*runResult{res}); err != nil {
				return err
			}
		}
		if err := checkContract(env.benchDir, res); err != nil {
			return err
		}
		return printDriverLine(res)

	case o.repeat > 0:
		var runs []*runResult
		for i := 0; i < o.repeat; i++ {
			set, err := runSet(ctx, env, o.seed+int64(i), window, false)
			if err != nil {
				return err
			}
			runs = append(runs, set...)
		}
		if o.out != "" {
			if err := writeRuns(o.out, runs); err != nil {
				return err
			}
		}
		return reportSpread(env, runs)

	case o.all:
		runs, err := runSet(ctx, env, o.seed, window, traced)
		if err != nil {
			return err
		}
		out := o.out
		if out == "" {
			out = filepath.Join(env.outDir, fmt.Sprintf("results-seed%d.json", o.seed))
		}
		return writeRuns(out, runs)
	}
	return fmt.Errorf("nothing to do: give -workload, -all, -repeat or -compare (see -h)")
}

// runSet runs every workload once untraced and, when traced is set, once
// more traced with the same seed.
func runSet(ctx context.Context, env *benchEnv, seed int64, window time.Duration, traced bool) ([]*runResult, error) {
	var runs []*runResult
	for _, def := range workloads {
		for _, tr := range []bool{false, true} {
			if tr && !traced {
				continue
			}
			res, err := runWorkload(ctx, env, def, seed, window, tr)
			if err != nil {
				return runs, fmt.Errorf("%s: %w", def.name, err)
			}
			printRun(res)
			runs = append(runs, res)
		}
	}
	return runs, nil
}

// printRun prints every metric of a run by name with its unit.
func printRun(r *runResult) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s  seed=%d  %s  window=%.1fs  build_s=%.2f  journal_fs=%s\n",
		r.Workload, r.Seed, mode, r.Env.WindowS, r.Env.BuildS, r.Env.JournalFS)
	printMetrics(r.EndToEnd)
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("   %-34s %14.6g %s  (%d of %d)\n", "failed_share", share, "ratio", r.Failed, r.Attempted)
	fmt.Printf("   latency samples: %d, of which %d beyond p95; correct=%v valid=%v\n",
		r.Samples, r.BeyondP95, r.Correct, r.Valid)
	kinds := make([]string, 0, len(r.ByKind))
	for k := range r.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		st := r.ByKind[k]
		fmt.Printf("   kind %-10s n=%-7d p50=%.3f ms  p95=%.3f ms\n", k, st.Count, st.P50Ms, st.P95Ms)
	}
	for _, n := range r.Notes {
		fmt.Println("   note:", n)
	}
	for _, e := range r.Errors {
		fmt.Println("   ERROR:", e)
	}
	if r.Traced {
		fmt.Println("   -- per layer")
		printMetrics(r.PerLayer)
		if r.LayerWalk != nil {
			r.LayerWalk.print()
		}
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("   %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printDriverLine prints the one-line result object BENCHMARK.json's
// contract asks for: end-to-end metrics untraced, per-layer metrics traced.
func printDriverLine(r *runResult) error {
	metrics := r.EndToEnd
	if r.Traced {
		metrics = r.PerLayer
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.Correct,
		"attempted": attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runsFile is what -out writes and -compare reads.
type runsFile struct {
	Runs []*runResult `json:"runs"`
}

func writeRuns(path string, runs []*runResult) error {
	data, err := json.MarshalIndent(runsFile{Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
