package campaign

import (
	"testing"

	"repro/internal/runner"
)

func clamrBase(steps int) runner.ExperimentSpec {
	return runner.ExperimentSpec{
		App: runner.AppCLAMR, Mode: "full", Steps: steps,
		NX: 12, NY: 6, MaxLevel: 1, AMRInterval: 5, LineCutN: 16,
	}
}

func hashSeq(t *testing.T, g *Generator) []string {
	t.Helper()
	out := make([]string, 0, g.Total())
	for i := int64(0); i < g.Total(); i++ {
		spec, err := g.At(i)
		if err != nil {
			t.Fatalf("At(%d): %v", i, err)
		}
		h, err := spec.Hash()
		if err != nil {
			t.Fatalf("hash At(%d): %v", i, err)
		}
		out = append(out, h)
	}
	return out
}

// Lazy-generator determinism: the same campaign spec expands to the same
// ordered spec-hash sequence — across repeat walks of one generator and
// across independently constructed generators (the journal-replay
// contract).
func TestGeneratorDeterministicHashSequence(t *testing.T) {
	cases := map[string]GeneratorSpec{
		"grid": {
			Kind: KindGrid, Base: clamrBase(10),
			Axes: []Axis{
				{Field: "mode", Values: []any{"min", "mixed", "full"}},
				{Field: "steps", Values: []any{10, 20}},
			},
		},
		"ensemble": {
			Kind: KindEnsemble, Base: clamrBase(10), Draws: 16, Seed: 42,
			Axes: []Axis{
				{Field: "mode", Values: []any{"min", "full"}},
				{Field: "steps", Values: []any{10, 20, 30}},
				{Field: "nx", Values: []any{8, 12, 16}},
			},
		},
		"ladder": {Kind: KindLadder, Base: clamrBase(10)},
	}
	for name, gs := range cases {
		t.Run(name, func(t *testing.T) {
			g1, err := NewGenerator(gs)
			if err != nil {
				t.Fatal(err)
			}
			g2, err := NewGenerator(gs)
			if err != nil {
				t.Fatal(err)
			}
			first := hashSeq(t, g1)
			if int64(len(first)) != g1.Total() {
				t.Fatalf("sequence length %d != Total %d", len(first), g1.Total())
			}
			for _, again := range [][]string{hashSeq(t, g1), hashSeq(t, g2)} {
				if len(again) != len(first) {
					t.Fatalf("re-expansion length %d != %d", len(again), len(first))
				}
				for i := range first {
					if first[i] != again[i] {
						t.Fatalf("index %d: hash %s != %s", i, again[i], first[i])
					}
				}
			}
		})
	}
}

// Grid order is the nested-loop order over axes in declaration order,
// axes[0] slowest.
func TestGridExpansionOrder(t *testing.T) {
	g, err := NewGenerator(GeneratorSpec{
		Kind: KindGrid, Base: clamrBase(10),
		Axes: []Axis{
			{Field: "mode", Values: []any{"min", "full"}},
			{Field: "steps", Values: []any{10, 20}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		mode  string
		steps int
	}{{"min", 10}, {"min", 20}, {"full", 10}, {"full", 20}}
	if g.Total() != int64(len(want)) {
		t.Fatalf("Total = %d, want %d", g.Total(), len(want))
	}
	for i, w := range want {
		spec, err := g.At(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if spec.Mode != w.mode || spec.Steps != w.steps {
			t.Errorf("At(%d) = %s/%d, want %s/%d", i, spec.Mode, spec.Steps, w.mode, w.steps)
		}
	}
}

// Ensemble draws are random-access: draw i is identical whether it is
// computed first, last, or alone — O(1) cursor recovery depends on it.
func TestEnsembleRandomAccess(t *testing.T) {
	gs := GeneratorSpec{
		Kind: KindEnsemble, Base: clamrBase(10), Draws: 32, Seed: 7,
		Axes: []Axis{
			{Field: "steps", Values: []any{10, 20, 30, 40}},
			{Field: "nx", Values: []any{8, 12}},
		},
	}
	g, err := NewGenerator(gs)
	if err != nil {
		t.Fatal(err)
	}
	inOrder := hashSeq(t, g)
	for _, i := range []int64{31, 0, 17, 5, 17} {
		spec, err := g.At(i)
		if err != nil {
			t.Fatal(err)
		}
		h, _ := spec.Hash()
		if h != inOrder[i] {
			t.Errorf("out-of-order At(%d) hash differs from in-order expansion", i)
		}
	}
	// A different seed must actually change the draw sequence.
	gs.Seed = 8
	g2, err := NewGenerator(gs)
	if err != nil {
		t.Fatal(err)
	}
	other := hashSeq(t, g2)
	same := 0
	for i := range inOrder {
		if inOrder[i] == other[i] {
			same++
		}
	}
	if same == len(inOrder) {
		t.Error("seed change produced an identical draw sequence")
	}
}

// Ladder defaults to the min→mixed→full escalation rungs.
func TestLadderRungs(t *testing.T) {
	g, err := NewGenerator(GeneratorSpec{Kind: KindLadder, Base: clamrBase(10)})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"min", "mixed", "full"}
	if g.Total() != int64(len(want)) {
		t.Fatalf("Total = %d, want %d", g.Total(), len(want))
	}
	for i, mode := range want {
		spec, err := g.At(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if spec.Mode != mode {
			t.Errorf("rung %d = %q, want %q", i, spec.Mode, mode)
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	base := clamrBase(10)
	bad := map[string]GeneratorSpec{
		"unknown kind":     {Kind: "zigzag", Base: base},
		"unknown field":    {Kind: KindGrid, Base: base, Axes: []Axis{{Field: "warp", Values: []any{1}}}},
		"empty axis":       {Kind: KindGrid, Base: base, Axes: []Axis{{Field: "steps"}}},
		"no draws":         {Kind: KindEnsemble, Base: base, Axes: []Axis{{Field: "steps", Values: []any{1}}}},
		"bad rung":         {Kind: KindLadder, Base: base, Rungs: []string{"octuple"}},
		"fractional int":   {Kind: KindGrid, Base: base, Axes: []Axis{{Field: "steps", Values: []any{1.5}}}},
		"bad first expand": {Kind: KindGrid, Base: base, Axes: []Axis{{Field: "steps", Values: []any{-3}}}},
	}
	for name, gs := range bad {
		if _, err := NewGenerator(gs); err == nil {
			t.Errorf("%s: NewGenerator accepted invalid spec", name)
		}
	}
	if _, err := (Spec{Weight: -2, Generator: GeneratorSpec{Kind: KindLadder, Base: base}}).Normalized(); err == nil {
		t.Error("negative weight accepted")
	}
	norm, err := (Spec{Generator: GeneratorSpec{Kind: KindLadder, Base: base}}).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Tenant != "default" || norm.Weight != 1 {
		t.Errorf("defaults = %q/%d, want default/1", norm.Tenant, norm.Weight)
	}
}

// WFQ admits backlogged flows in proportion to their weights.
func TestWFQRatio(t *testing.T) {
	q := newWFQ()
	weightOf := func(id string) float64 {
		if id == "a" {
			return 10
		}
		return 1
	}
	counts := map[string]int{}
	for i := 0; i < 1100; i++ {
		counts[q.pick([]string{"a", "b"}, weightOf)]++
	}
	ratio := float64(counts["a"]) / float64(counts["b"])
	if ratio < 8 || ratio > 12 {
		t.Fatalf("admission ratio a:b = %d:%d (%.1f), want ~10", counts["a"], counts["b"], ratio)
	}
}

// expandOp is lazy expansion + content addressing — the per-spec cost of
// walking a campaign cursor (the dedup key derivation included, since every
// expanded spec is hashed before admission) over a 3000-spec grid.
func expandOp(tb testing.TB) func() {
	steps := make([]any, 50)
	for i := range steps {
		steps[i] = 10 + i
	}
	nx := make([]any, 10)
	for i := range nx {
		nx[i] = 8 + 2*i
	}
	g, err := NewGenerator(GeneratorSpec{
		Kind: KindGrid, Base: clamrBase(10),
		Axes: []Axis{
			{Field: "mode", Values: []any{"min", "mixed", "full"}},
			{Field: "kernel", Values: []any{"unvectorized", "vectorized"}},
			{Field: "steps", Values: steps},
			{Field: "nx", Values: nx},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	var i int64
	return func() {
		spec, err := g.At(i % g.Total())
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := spec.Hash(); err != nil {
			tb.Fatal(err)
		}
		i++
	}
}

func BenchmarkCampaignExpand(b *testing.B) {
	expand := expandOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expand()
	}
}

// Expansion stays within 20% of the 6 allocs/spec it was committed at
// (DESIGN.md §12): a million-job campaign pays this per index.
func TestCampaignExpandAllocCeiling(t *testing.T) {
	if n := testing.AllocsPerRun(1000, expandOp(t)); n > 7 {
		t.Errorf("expand + hash: %v allocs/spec, ceiling 7", n)
	}
}
