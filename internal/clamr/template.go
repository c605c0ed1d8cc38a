package clamr

import (
	"container/list"
	"fmt"
	"slices"
	"sync"

	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/precision"
)

// Construction templates. What NewSolver builds — the initially adapted
// mesh, the state on it, the face list, mass(0) — depends only on the
// precision mode and the construction fields of Config (templateKey). The
// run-time fields (Kernel, Workers, AMRInterval, DryTol, Gravity, Courant)
// and the step count are read only by the step loop, and they are exactly
// what campaign axes and unique specs vary. So NewDamBreak builds a small
// shape once, keeps it as a runtime-less template, and hands every job of
// that shape a copy with a fresh runtime bound to the job's own Config. A
// copy shares the template's mesh and face list, which are read-only, and
// copies only the three state arrays it steps: three memory copies instead
// of mesh construction, initial adaptation and face enumeration.
const (
	// templateStoreBytes caps the process-wide store; the least recently
	// used template is evicted first.
	templateStoreBytes = 1 << 20
	// templateMaxBytes is the largest template stored: large shapes amortise
	// their construction over a long solve, and a copy of them would only
	// add resident memory.
	templateMaxBytes = 256 << 10
)

// templateKey is the mode plus every construction-time Config field, after
// defaults. Half shares the min template (it is the min solver demoted).
type templateKey struct {
	mode                  precision.Mode
	nx, ny, maxLevel      int
	bounds                mesh.Bounds
	passes                int
	refineTol, coarsenTol float64
}

func keyOf(mode precision.Mode, cfg Config) templateKey {
	if mode == precision.Half {
		mode = precision.Min
	}
	return templateKey{
		mode: mode, nx: cfg.NX, ny: cfg.NY, maxLevel: cfg.MaxLevel,
		bounds: cfg.Bounds, passes: cfg.InitialAdaptPasses,
		refineTol: cfg.RefineTol, coarsenTol: cfg.CoarsenTol,
	}
}

// PaperDamBreak is the dam-break initial condition of the paper's CLAMR
// runs on b: a column of height 10 and radius 0.15·width over a background
// of height 2, with a transition 0.05·width wide. It is a function of b
// alone, which is what lets NewDamBreak key its templates on Config.
func PaperDamBreak(b mesh.Bounds) InitialCondition {
	return DamBreak(b, 10, 2, 0.15*b.Width(), 0.05*b.Width())
}

// NewDamBreak builds a Runner on the paper's dam-break problem
// (PaperDamBreak over cfg.Bounds; a zero Bounds selects the unit square).
// The result is bit-identical to New with that initial condition; shapes
// whose construction fits templateMaxBytes start from a copy of a stored
// template instead of being rebuilt.
func NewDamBreak(mode precision.Mode, cfg Config) (Runner, error) {
	cfg.setDefaults()
	switch mode {
	case precision.Half:
		inner, err := fromTemplate[float32, float32](mode, cfg)
		if err != nil {
			return nil, err
		}
		return newHalfRunner(inner), nil
	case precision.Min:
		return fromTemplate[float32, float32](mode, cfg)
	case precision.Mixed:
		return fromTemplate[float32, float64](mode, cfg)
	case precision.Full:
		return fromTemplate[float64, float64](mode, cfg)
	default:
		return nil, fmt.Errorf("clamr: unknown precision mode %v", mode)
	}
}

// fromTemplate returns a solver for cfg (defaults applied) built from the
// stored template of its shape. On a miss it constructs the solver and,
// when small enough, makes that construction the template and the job its
// first copy.
func fromTemplate[S, C precision.Real](mode precision.Mode, cfg Config) (*Solver[S, C], error) {
	key := keyOf(mode, cfg)
	if t, ok := templates.get(key); ok {
		return t.(*Solver[S, C]).instantiate(cfg), nil
	}
	s, err := NewSolver[S, C](cfg, PaperDamBreak(cfg.Bounds))
	if err != nil {
		return nil, err
	}
	size := s.footprint()
	if size > templateMaxBytes {
		return s, nil
	}
	t := s.construction()
	templates.put(key, t, size)
	return t.instantiate(cfg), nil
}

// construction takes over what NewSolver built into s — the mesh, the state
// arrays, the face list, the counters and mass(0) — as a runtime-less
// template, which is never stepped. s must not be used afterwards.
func (s *Solver[S, C]) construction() *Solver[S, C] {
	t := &Solver[S, C]{
		cfg:      s.cfg,
		mesh:     s.mesh,
		h:        s.h,
		hu:       s.hu,
		hv:       s.hv,
		faces:    s.faces,
		counters: s.counters,
		mass0:    s.mass0,
	}
	t.faces.shared = true
	return t
}

// instantiate returns a runnable solver for cfg on template t. The copy
// shares t's mesh and face list, which no solver writes (Adapt returns a
// new mesh; a shared face list rebuilds into new arrays), and copies only
// the state it steps. It gets zeroed RHS scratch, a fresh timer, pool, dry
// floor and bound kernels from cfg, and the memory accounting NewSolver
// registers.
func (t *Solver[S, C]) instantiate(cfg Config) *Solver[S, C] {
	n := len(t.h)
	s := &Solver[S, C]{
		cfg:      cfg,
		mesh:     t.mesh,
		h:        slices.Clone(t.h),
		hu:       slices.Clone(t.hu),
		hv:       slices.Clone(t.hv),
		dh:       make([]S, n),
		dhu:      make([]S, n),
		dhv:      make([]S, n),
		faces:    t.faces,
		counters: t.counters,
		mass0:    t.mass0,
		timer:    metrics.NewTimer(),
		alloc:    metrics.NewAllocTracker(),
	}
	s.initRuntime()
	s.account()
	return s
}

// footprint estimates the bytes a template of s holds: mesh, state arrays
// and face list.
func (s *Solver[S, C]) footprint() int64 {
	sz, cz := int64(precision.Sizeof[S]()), int64(precision.Sizeof[C]())
	fl := &s.faces
	n := int64(len(s.h))
	interior := int64(len(fl.xl) + len(fl.yb))
	boundary := int64(len(fl.bCell))
	return s.mesh.Footprint() + 3*n*sz + interior*(8+cz) + boundary*(4+8+cz) + n*cz
}

// templates is the process-wide template store.
var templates = newTemplateStore(templateStoreBytes)

// templateStore is a byte-capped LRU of templates. Templates are read-only
// once stored — and so are the mesh and face list their copies share — so
// concurrent instantiation needs no lock beyond the lookup.
type templateStore struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	entries  map[templateKey]*list.Element
}

type templateEntry struct {
	key   templateKey
	t     any // *Solver[S, C] of the key's mode
	bytes int64
}

func newTemplateStore(maxBytes int64) *templateStore {
	return &templateStore{maxBytes: maxBytes, ll: list.New(), entries: make(map[templateKey]*list.Element)}
}

func (ts *templateStore) get(key templateKey) (any, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	el, ok := ts.entries[key]
	if !ok {
		return nil, false
	}
	ts.ll.MoveToFront(el)
	return el.Value.(*templateEntry).t, true
}

// put stores t under key unless a concurrent miss already did, then evicts
// from the cold end until the store fits its cap.
func (ts *templateStore) put(key templateKey, t any, bytes int64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, ok := ts.entries[key]; ok {
		return
	}
	ts.entries[key] = ts.ll.PushFront(&templateEntry{key: key, t: t, bytes: bytes})
	ts.bytes += bytes
	for ts.bytes > ts.maxBytes {
		e := ts.ll.Remove(ts.ll.Back()).(*templateEntry)
		delete(ts.entries, e.key)
		ts.bytes -= e.bytes
	}
}
