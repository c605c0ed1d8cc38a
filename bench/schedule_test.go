package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/runner"
)

// schedule lists the first n operations of every stream of a workload.
func schedule(def *workloadDef, seed int64, n int) []op {
	var pre []preloaded
	if def.preload != nil {
		pre = def.preload(seed)
	}
	streams := def.clients
	if def.open {
		streams = 1
	}
	var out []op
	for s := 0; s < streams; s++ {
		gen := def.stream(seed, s, pre, max(def.rate, 1))
		for i := 0; i < n; i++ {
			out = append(out, gen())
		}
	}
	return out
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	// A whole number of every mix block and shape cycle: 8 solve shapes, 5
	// read kinds, 3 probe modes, 20 fleet kinds × 11 sweep shapes × 9 pairs.
	const n = 3960
	for _, def := range workloads {
		a, _ := json.Marshal(schedule(def, 7, n))
		b, _ := json.Marshal(schedule(def, 7, n))
		if string(a) != string(b) {
			t.Errorf("%s: same seed gave two different schedules", def.name)
		}
		other := schedule(def, 8, n)
		c, _ := json.Marshal(other)
		if string(a) == string(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", def.name)
		}

		// Same mix, whatever the seed: operation kinds and shapes occur
		// equally often.
		mix := func(ops []op) map[string]int {
			m := map[string]int{}
			for _, o := range ops {
				m[o.Kind+"/"+o.Shape]++
			}
			return m
		}
		if ma, mb := mix(schedule(def, 7, n)), mix(other); !reflect.DeepEqual(ma, mb) {
			t.Errorf("%s: mix differs between seeds:\n 7: %v\n 8: %v", def.name, ma, mb)
		}

		// Unique specs of different seeds never share a content address
		// (SELF specs vary only their line-cut resolution and are exempt:
		// they are unique within a run, which is all a fresh cache needs).
		unique := func(ops []op) map[string]bool {
			m := map[string]bool{}
			for _, o := range ops {
				if (o.Kind == kindSolve || o.Kind == kindPair) && o.Spec.App == runner.AppCLAMR {
					if m[o.Hash] {
						t.Errorf("%s: hash %s occurs twice in one schedule", def.name, o.Hash)
					}
					m[o.Hash] = true
				}
			}
			return m
		}
		ua, ub := unique(schedule(def, 7, n)), unique(other)
		for h := range ua {
			if ub[h] {
				t.Errorf("%s: seeds 7 and 8 share the unique spec %s", def.name, h)
			}
		}
	}
}

func TestUniqueSpecsWithinARun(t *testing.T) {
	// Every spec a run executes must be new to that run's cache, SELF and
	// auto included; only read_warm and warm repeats revisit keys.
	for _, def := range workloads {
		seen := map[string]bool{}
		for _, o := range schedule(def, 3, 400) {
			switch o.Kind {
			case kindSolve, kindPair:
				if seen[o.Hash] {
					t.Errorf("%s: %s #%d repeats a spec of the same run", def.name, o.Kind, o.Seq)
				}
				seen[o.Hash] = true
			case kindAuto:
				// Whatever mode the service resolves to, the concrete
				// spec is new: auto specs differ in their step count.
				h := mustHash(o.Spec.Concrete("full"))
				if seen[h] {
					t.Errorf("%s: auto #%d repeats a spec of the same run", def.name, o.Seq)
				}
				seen[h] = true
			}
		}
	}
}

func TestCampaignGridMatchesLocalExpansion(t *testing.T) {
	c := admitCampaign(5)
	if got := len(c.Generator.Axes[0].Values) * len(c.Generator.Axes[1].Values); got != campaignTols*len(tinyModes) {
		t.Fatalf("campaign expands to %d jobs", got)
	}
	// axes[0] is slowest: index i is tolerance i/3 at mode i%3.
	for _, i := range []int{0, 1, 2, 3, 4, 89_999} {
		spec := campaignJobSpec(5, i)
		if spec.DryTol != c.Generator.Axes[0].Values[i/3].(float64) || spec.Mode != c.Generator.Axes[1].Values[i%3].(string) {
			t.Errorf("index %d: local expansion %+v disagrees with the grid", i, spec)
		}
	}
	// Probes and campaign jobs draw from different tolerance classes.
	if uniqueTol(tolProbe, 5, 0) == uniqueTol(tolCampaign, 5, 0) {
		t.Error("probe and campaign tolerances collide")
	}
}
