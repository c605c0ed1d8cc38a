package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Repeatability (-repeat) and comparison (-compare) against the bounds
// committed in BENCHMARK.json.

// benchmarkFile is the part of the repository's BENCHMARK.json read here.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// checkContract holds a run's metrics against BENCHMARK.json: exactly the
// committed names, each with its committed unit. A metric renamed in the
// code and not in the contract would otherwise surface as a refused run in
// somebody else's pull request.
func checkContract(benchDir string, r *runResult) error {
	bf, err := loadBenchmarkFile(benchDir)
	if err != nil {
		return err
	}
	want := map[string]string{}
	got := r.EndToEnd
	if r.Traced {
		got = r.PerLayer
		for _, m := range bf.PerLayer {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range bf.EndToEnd {
			want[m.Name] = m.Unit
		}
	}
	for name, unit := range want {
		if m, ok := got[name]; !ok {
			return fmt.Errorf("BENCHMARK.json names %s, which this run did not measure", name)
		} else if m.Unit != unit {
			return fmt.Errorf("%s is measured in %s, BENCHMARK.json says %s", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("this run measured %s, which BENCHMARK.json does not name", name)
		}
	}
	return nil
}

func loadBenchmarkFile(benchDir string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(benchDir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// series collects one end-to-end metric's values per workload, untraced runs
// only, in run order.
func series(runs []*runResult, metric string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range runs {
		if r.Traced {
			continue
		}
		if m, ok := r.EndToEnd[metric]; ok {
			out[r.Workload] = append(out[r.Workload], m.Value)
		}
	}
	return out
}

// reportSpread prints, per workload and end-to-end metric, the median, the
// quartiles and the interquartile spread as a share of the median, against
// the metric's committed bound. setup_s is printed but never fails the
// report: its bound gates a shift of the median, not its spread.
func reportSpread(env *benchEnv, runs []*runResult) error {
	bf, err := loadBenchmarkFile(env.benchDir)
	if err != nil {
		return err
	}
	outside, failed := false, 0
	for _, r := range runs {
		failed += r.Failed
	}
	fmt.Printf("\n%-15s %-14s %4s %12s %12s %12s %8s %6s\n", "workload", "metric", "n", "median", "q1", "q3", "spread", "bound")
	for _, def := range workloads {
		for _, m := range bf.EndToEnd {
			xs := series(runs, m.Name)[def.name]
			if len(xs) < 2 {
				return fmt.Errorf("-repeat needs at least 2 runs per workload, %s has %d", def.name, len(xs))
			}
			q1, q3 := quartiles(xs)
			sp := spread(xs)
			verdict := ""
			if sp > m.Bound && m.Name != "setup_s" {
				verdict, outside = "  OUTSIDE", true
			}
			fmt.Printf("%-15s %-14s %4d %12.5g %12.5g %12.5g %8.4f %6.2f%s\n",
				def.name, m.Name, len(xs), median(xs), q1, q3, sp, m.Bound, verdict)
		}
	}
	if failed > 0 {
		fmt.Printf("\n%d operations failed across the runs; failed_share must be 0\n", failed)
		return errOutsideBounds
	}
	if outside {
		return errOutsideBounds
	}
	return nil
}

func loadRuns(path string) ([]*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf runsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf.Runs, nil
}

// compareFiles applies the paired rule to result files given as parent,
// change, parent, change, …: run i of the parent is paired with run i of the
// change. A metric is "better" (or "worse") only when the change wins (or
// loses) at least nine tenths of the pairs and the medians differ by more
// than the parent's own interquartile distance; it is "unresolved" when the
// parent's spread exceeds the metric's bound, unless every run of the change
// reads better than every run of the parent; otherwise it is "unchanged"
// when the change's median is within the bound and "regressed" when not.
func compareFiles(paths []string) error {
	if len(paths) < 2 || len(paths)%2 != 0 {
		return fmt.Errorf("-compare takes pairs of files: parent.json change.json [parent2.json change2.json …]")
	}
	benchDir, err := locateBench()
	if err != nil {
		return err
	}
	bf, err := loadBenchmarkFile(benchDir)
	if err != nil {
		return err
	}
	var parent, change []*runResult
	for i := 0; i < len(paths); i += 2 {
		p, err := loadRuns(paths[i])
		if err != nil {
			return err
		}
		c, err := loadRuns(paths[i+1])
		if err != nil {
			return err
		}
		parent, change = append(parent, p...), append(change, c...)
	}
	regressed := false
	fmt.Printf("%-15s %-14s %5s %12s %12s %8s %7s %10s  %s\n", "workload", "metric", "pairs", "parent", "change", "delta", "wins", "parent_iqr", "verdict")
	for _, def := range workloads {
		for _, m := range bf.EndToEnd {
			ps, cs := series(parent, m.Name)[def.name], series(change, m.Name)[def.name]
			n := min(len(ps), len(cs))
			if n == 0 {
				continue
			}
			ps, cs = ps[:n], cs[:n]
			better := func(a, b float64) bool { // a better than b
				if m.Better == "higher" {
					return a > b
				}
				return a < b
			}
			wins, losses := 0, 0
			for i := range ps {
				switch {
				case better(cs[i], ps[i]):
					wins++
				case better(ps[i], cs[i]):
					losses++
				}
			}
			pm, cm := median(ps), median(cs)
			q1, q3 := quartiles(ps)
			iqr := q3 - q1
			gap := cm - pm
			if gap < 0 {
				gap = -gap
			}
			dominates := true // every change run better than every parent run
			for _, c := range cs {
				for _, p := range ps {
					if !better(c, p) {
						dominates = false
					}
				}
			}
			worseBy := 0.0 // share of the parent's median by which the change is worse
			if pm != 0 {
				worseBy = (cm - pm) / pm
				if m.Better == "higher" {
					worseBy = -worseBy
				}
			}
			verdict := "unchanged"
			switch {
			case float64(wins) >= 0.9*float64(n) && gap > iqr:
				verdict = "better"
			case float64(losses) >= 0.9*float64(n) && gap > iqr && worseBy > m.Bound:
				verdict, regressed = "regressed", true
			case n >= 2 && spread(ps) > m.Bound && !dominates:
				verdict = "unresolved"
			case worseBy > m.Bound:
				verdict, regressed = "regressed", true
			}
			delta := 0.0
			if pm != 0 {
				delta = (cm - pm) / pm
			}
			fmt.Printf("%-15s %-14s %5d %12.5g %12.5g %+7.1f%% %3d/%-3d %10.4g  %s\n",
				def.name, m.Name, n, pm, cm, 100*delta, wins, n, iqr, verdict)
		}
	}
	if regressed {
		return errOutsideBounds
	}
	return nil
}
