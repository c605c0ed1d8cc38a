package clamr

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/mesh"
	"repro/internal/precision"
)

// Every Config field is either read while NewSolver builds the solver (and
// so part of the template key) or only by the step loop (and so set on each
// copy from the job's own Config). A new field must be added to exactly one
// list, and the key must follow the classification.
var (
	constructionFields = []string{"NX", "NY", "MaxLevel", "Bounds", "InitialAdaptPasses", "RefineTol", "CoarsenTol"}
	runtimeFields      = []string{"Gravity", "Courant", "Kernel", "AMRInterval", "Workers", "DryTol"}
)

// isolateTemplates gives the test an empty template store of the default
// cap, restoring the process-wide one afterwards.
func isolateTemplates(t *testing.T) *templateStore {
	t.Helper()
	saved := templates
	templates = newTemplateStore(templateStoreBytes)
	t.Cleanup(func() { templates = saved })
	return templates
}

func (ts *templateStore) len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.entries)
}

func (ts *templateStore) has(key templateKey) bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	_, ok := ts.entries[key]
	return ok
}

// tinyConfig is the campaign tiny shape: 16² cells, one AMR level.
func tinyConfig() Config {
	cfg := Config{NX: 16, NY: 16, MaxLevel: 1, AMRInterval: 2}
	cfg.setDefaults()
	return cfg
}

// perturb changes one field's value in place.
func perturb(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float()*2 + 0.5)
	case reflect.Struct:
		perturb(t, v.Field(v.NumField()-1))
	default:
		t.Fatalf("no perturbation for kind %v", v.Kind())
	}
}

func TestConfigFieldsAreClassified(t *testing.T) {
	class := map[string]bool{} // true = construction
	for _, f := range constructionFields {
		class[f] = true
	}
	for _, f := range runtimeFields {
		if _, dup := class[f]; dup {
			t.Fatalf("field %s is classified twice", f)
		}
		class[f] = false
	}
	typ := reflect.TypeOf(Config{})
	if typ.NumField() != len(class) {
		t.Errorf("Config has %d fields, %d classified", typ.NumField(), len(class))
	}
	base := tinyConfig()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		construction, ok := class[name]
		if !ok {
			t.Errorf("Config.%s is neither construction-time nor run-time: classify it here and in keyOf", name)
			continue
		}
		cfg := base
		perturb(t, reflect.ValueOf(&cfg).Elem().Field(i))
		if changed := keyOf(precision.Min, cfg) != keyOf(precision.Min, base); changed != construction {
			t.Errorf("Config.%s: changing it moves the template key = %v, want %v", name, changed, construction)
		}
	}
	if keyOf(precision.Half, base) != keyOf(precision.Min, base) {
		t.Error("half does not share the min template")
	}
	if keyOf(precision.Mixed, base) == keyOf(precision.Min, base) {
		t.Error("mixed shares the min template")
	}
}

// configOf returns the Config a runner steps with.
func configOf(r Runner) Config {
	switch s := r.(type) {
	case *halfRunner:
		return s.cfg
	case *Solver[float32, float32]:
		return s.cfg
	case *Solver[float32, float64]:
		return s.cfg
	case *Solver[float64, float64]:
		return s.cfg
	}
	panic("unknown runner type")
}

// observed is everything observable about a run but its wall-clock
// timings.
type observed struct {
	Checkpoint        []byte
	Cells, Step       int
	Time, Mass, Drift float64
	StateBytes        uint64
	Counters          any
	Phases            []string
}

// observe steps r n times and records the run.
func observe(t *testing.T, r Runner, n int) observed {
	t.Helper()
	if err := r.Run(n); err != nil {
		t.Fatal(err)
	}
	var ck bytes.Buffer
	if _, err := r.WriteCheckpoint(&ck); err != nil {
		t.Fatal(err)
	}
	o := observed{
		Checkpoint: ck.Bytes(), Cells: r.Mesh().NumCells(), Step: r.StepCount(),
		Time: r.Time(), Mass: r.Mass(), Drift: r.MassError(),
		StateBytes: r.StateBytes(), Counters: r.Counters(),
	}
	for _, p := range r.Timer().Totals() {
		o.Phases = append(o.Phases, p.Name)
	}
	return o
}

// TestTemplateCopiesMatchFreshSolvers steps a freshly constructed solver
// and one copied from a stored template, with different dry floors (a
// run-time field the template must not carry over), and requires the runs
// to agree on everything but wall time.
func TestTemplateCopiesMatchFreshSolvers(t *testing.T) {
	isolateTemplates(t)
	for _, mode := range []precision.Mode{precision.Half, precision.Min, precision.Mixed, precision.Full} {
		for _, kernel := range []Kernel{KernelCell, KernelFace} {
			for _, workers := range []int{1, 3} {
				cfg := tinyConfig()
				cfg.Kernel, cfg.Workers, cfg.DryTol = kernel, workers, 2e-6
				fresh, err := New(mode, cfg, PaperDamBreak(cfg.Bounds))
				if err != nil {
					t.Fatal(err)
				}
				job := cfg
				job.DryTol = 7e-6
				if _, err := NewDamBreak(mode, job); err != nil { // stores the template on a miss
					t.Fatal(err)
				}
				if !templates.has(keyOf(mode, job)) {
					t.Fatalf("%v: the tiny shape was not stored", mode)
				}
				copied, err := NewDamBreak(mode, job)
				if err != nil {
					t.Fatal(err)
				}
				if got := configOf(copied); got != job {
					t.Fatalf("%v/%v/w%d: copy runs with config %+v, want the job's %+v", mode, kernel, workers, got, job)
				}
				want, got := observe(t, fresh, 9), observe(t, copied, 9)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v/%v/w%d: template copy diverged from a fresh solver:\n got %+v\nwant %+v",
						mode, kernel, workers, got.Counters, want.Counters)
				}
			}
		}
	}
}

// TestTemplateCopiesAreIndependent: stepping one copy (mesh adaptation
// included) changes neither the template nor a sibling copy.
func TestTemplateCopiesAreIndependent(t *testing.T) {
	isolateTemplates(t)
	cfg := tinyConfig()
	for i := 0; i < 3; i++ { // miss, then two copies
		if i == 0 {
			if _, err := NewDamBreak(precision.Full, cfg); err != nil {
				t.Fatal(err)
			}
			continue
		}
		r, err := NewDamBreak(precision.Full, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(precision.Full, cfg, PaperDamBreak(cfg.Bounds))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := observe(t, r, 6), observe(t, fresh, 6); !reflect.DeepEqual(got, want) {
			t.Fatalf("copy %d diverged after an earlier copy was stepped", i)
		}
	}
}

func TestTemplateKeyFieldChangeMisses(t *testing.T) {
	ts := isolateTemplates(t)
	cfg := tinyConfig()
	if _, err := NewDamBreak(precision.Min, cfg); err != nil {
		t.Fatal(err)
	}
	if ts.len() != 1 {
		t.Fatalf("store holds %d templates after one build, want 1", ts.len())
	}
	// Run-time fields and half reuse the min template.
	rt := cfg
	rt.DryTol, rt.Workers, rt.Kernel, rt.AMRInterval = 3e-6, 3, KernelFace, 5
	for _, mode := range []precision.Mode{precision.Min, precision.Half} {
		if _, err := NewDamBreak(mode, rt); err != nil {
			t.Fatal(err)
		}
	}
	if ts.len() != 1 {
		t.Fatalf("run-time fields or half built a second template (%d stored)", ts.len())
	}
	// A construction field misses.
	ct := cfg
	ct.RefineTol = 0.03
	if _, err := NewDamBreak(precision.Min, ct); err != nil {
		t.Fatal(err)
	}
	if ts.len() != 2 || !ts.has(keyOf(precision.Min, ct)) {
		t.Fatalf("a RefineTol change did not miss the store (%d stored)", ts.len())
	}
}

func TestTemplateStoreStaysWithinItsCap(t *testing.T) {
	ts := isolateTemplates(t)
	var first templateKey
	for i := 0; i < 24; i++ {
		cfg := tinyConfig()
		cfg.RefineTol = 0.02 + 0.001*float64(i)
		if _, err := NewDamBreak(precision.Full, cfg); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = keyOf(precision.Full, cfg)
		}
		if ts.bytes > ts.maxBytes {
			t.Fatalf("after %d shapes the store holds %d bytes, cap %d", i+1, ts.bytes, ts.maxBytes)
		}
	}
	if n := ts.len(); n >= 24 || n == 0 {
		t.Fatalf("store holds %d of 24 tiny templates, want some evicted", n)
	}
	if ts.has(first) {
		t.Error("the least recently used template survived eviction")
	}

	// 48² with one level (the quick sweep's fleet shapes) and 128² with two
	// (solve_cold's) are over the per-template limit in every mode and are
	// never stored: a stored large template would add its copy to every
	// cold solve's resident memory.
	for _, mode := range []precision.Mode{precision.Min, precision.Mixed, precision.Full} {
		for _, big := range []Config{{NX: 48, NY: 48, MaxLevel: 1}, {NX: 128, NY: 128, MaxLevel: 2}} {
			big.setDefaults()
			r, err := NewDamBreak(mode, big)
			if err != nil {
				t.Fatal(err)
			}
			if ts.has(keyOf(mode, big)) {
				t.Errorf("%v %d²/L%d template stored (%d cells)", mode, big.NX, big.MaxLevel, r.Mesh().NumCells())
			}
		}
	}
	// And the tiny shape qualifies in every mode.
	for _, mode := range []precision.Mode{precision.Min, precision.Mixed, precision.Full} {
		cfg := tinyConfig()
		if _, err := NewDamBreak(mode, cfg); err != nil {
			t.Fatal(err)
		}
		if !ts.has(keyOf(mode, cfg)) {
			t.Errorf("%v 16²/L1 template not stored", mode)
		}
	}
}

// TestTemplateStoreConcurrentUse builds, copies and steps solvers of a few
// shapes from many goroutines at once; every run must match a fresh one.
func TestTemplateStoreConcurrentUse(t *testing.T) {
	isolateTemplates(t)
	modes := []precision.Mode{precision.Half, precision.Min, precision.Full}
	want := make([]observed, len(modes))
	for i, mode := range modes {
		cfg := tinyConfig()
		fresh, err := New(mode, cfg, PaperDamBreak(cfg.Bounds))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = observe(t, fresh, 4)
	}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(modes)
			cfg := tinyConfig()
			cfg.Workers = 1 + g%3
			r, err := NewDamBreak(modes[i], cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if err := r.Run(4); err != nil {
				t.Error(err)
				return
			}
			var ck bytes.Buffer
			if _, err := r.WriteCheckpoint(&ck); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(ck.Bytes(), want[i].Checkpoint) {
				t.Errorf("goroutine %d (%v): checkpoint differs from a fresh run", g, modes[i])
			}
		}(g)
	}
	wg.Wait()
}

// frozen is a deep copy of everything a template holds that its copies
// read: the mesh's leaves and neighbors, the face list, the state and
// mass(0). at records where each of those arrays lives, compared by
// identity: a copy must neither write the template's arrays nor swap them
// for others, even ones holding equal values.
type frozen struct {
	Cells []mesh.Cell
	Nbrs  []mesh.Neighbors
	Faces []any
	State []any
	Mass0 float64
	at    []any
}

func freeze[S, C precision.Real](s *Solver[S, C]) frozen {
	m := s.mesh
	f := frozen{Cells: slices.Clone(m.Cells()), Mass0: s.mass0}
	for i := 0; i < m.NumCells(); i++ {
		f.Nbrs = append(f.Nbrs, *m.Neighbors(i))
	}
	fl := &s.faces
	f.Faces = []any{
		slices.Clone(fl.xl), slices.Clone(fl.xr), slices.Clone(fl.xlen),
		slices.Clone(fl.yb), slices.Clone(fl.yt), slices.Clone(fl.ylen),
		slices.Clone(fl.bCell), slices.Clone(fl.bSide), slices.Clone(fl.bLen),
		slices.Clone(fl.invArea),
	}
	f.State = []any{slices.Clone(s.h), slices.Clone(s.hu), slices.Clone(s.hv)}
	f.at = []any{
		&m.Cells()[0], m.Neighbors(0),
		&fl.xl[0], &fl.xr[0], &fl.xlen[0], &fl.yb[0], &fl.yt[0], &fl.ylen[0],
		&fl.bCell[0], &fl.bSide[0], &fl.bLen[0], &fl.invArea[0],
		&s.h[0], &s.hu[0], &s.hv[0],
	}
	return f
}

// storedTemplate returns the stored template of mode and cfg, frozen, and
// its mesh.
func storedTemplate(t *testing.T, mode precision.Mode, cfg Config) (frozen, *mesh.Mesh) {
	t.Helper()
	tmpl, ok := templates.get(keyOf(mode, cfg))
	if !ok {
		t.Fatalf("%v: no template stored", mode)
	}
	switch s := tmpl.(type) {
	case *Solver[float32, float32]:
		return freeze(s), s.mesh
	case *Solver[float32, float64]:
		return freeze(s), s.mesh
	case *Solver[float64, float64]:
		return freeze(s), s.mesh
	}
	panic("unknown template type")
}

// TestTemplateSurvivesItsCopiesAdapting: copies share the template's mesh
// and face list, so a copy that adapts (every 2 steps here; the tiny mesh
// changes from the third adaptation on) must move to a mesh and face
// arrays of its own and leave the template's cells, neighbors, faces and
// state exactly as and where they were.
func TestTemplateSurvivesItsCopiesAdapting(t *testing.T) {
	isolateTemplates(t)
	for _, mode := range []precision.Mode{precision.Half, precision.Min, precision.Mixed, precision.Full} {
		for _, kernel := range []Kernel{KernelCell, KernelFace} {
			cfg := tinyConfig()
			cfg.Kernel = kernel
			if _, err := NewDamBreak(mode, cfg); err != nil { // the miss stores the template
				t.Fatal(err)
			}
			before, tmplMesh := storedTemplate(t, mode, cfg)
			for i := 0; i < 2; i++ {
				r, err := NewDamBreak(mode, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if r.Mesh() != tmplMesh {
					t.Fatalf("%v/%v: a fresh copy does not share the template's mesh", mode, kernel)
				}
				if err := r.Run(13); err != nil {
					t.Fatal(err)
				}
				if r.Mesh().NumCells() == tmplMesh.NumCells() {
					t.Fatalf("%v/%v: the copy's mesh never changed, so this test shows nothing", mode, kernel)
				}
			}
			after, _ := storedTemplate(t, mode, cfg)
			if !reflect.DeepEqual(after, before) {
				t.Errorf("%v/%v: copies that adapted changed their template", mode, kernel)
			}
			for k := range before.at {
				if after.at[k] != before.at[k] {
					t.Errorf("%v/%v: copies that adapted moved the template's array %d", mode, kernel, k)
				}
			}
		}
	}
}
