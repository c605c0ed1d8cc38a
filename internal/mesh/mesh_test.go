package mesh

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func mustMesh(t *testing.T, nx, ny, maxLevel int) *Mesh {
	t.Helper()
	m, err := New(nx, ny, maxLevel, UnitBounds)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// mustAdapt adapts m and returns the adapted mesh and the remap plan.
func mustAdapt(t *testing.T, m *Mesh, flags []RefineFlag) (*Mesh, *Remap) {
	t.Helper()
	plan, err := m.Adapt(flags)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Mesh, plan
}

func validate(t *testing.T, m *Mesh, context string) {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatalf("%s: %v", context, err)
	}
}

func TestNewRejectsBadArgs(t *testing.T) {
	if _, err := New(0, 4, 1, UnitBounds); err == nil {
		t.Error("accepted zero nx")
	}
	if _, err := New(4, -1, 1, UnitBounds); err == nil {
		t.Error("accepted negative ny")
	}
	if _, err := New(4, 4, -1, UnitBounds); err == nil {
		t.Error("accepted negative maxLevel")
	}
	if _, err := New(4, 4, MaxRefineLevel+1, UnitBounds); err == nil {
		t.Error("accepted excessive maxLevel")
	}
	if _, err := New(1<<20, 4, 10, UnitBounds); err == nil {
		t.Error("accepted coordinate overflow")
	}
	if _, err := New(4, 4, 1, Bounds{0, 0, 0, 1}); err == nil {
		t.Error("accepted degenerate bounds")
	}
}

func TestUniformMeshBasics(t *testing.T) {
	m := mustMesh(t, 4, 3, 2)
	if m.NumCells() != 12 {
		t.Fatalf("NumCells = %d", m.NumCells())
	}
	validate(t, m, "uniform")
	dx, dy := m.CellSize(0)
	if math.Abs(dx-0.25) > 1e-15 || math.Abs(dy-1.0/3) > 1e-15 {
		t.Errorf("CellSize(0) = %g, %g", dx, dy)
	}
	dx1, dy1 := m.CellSize(1)
	if dx1 != dx/2 || dy1 != dy/2 {
		t.Errorf("CellSize(1) not half of level 0")
	}
	// Row-major layout: cell 5 is (i=1, j=1).
	c := m.Cell(5)
	if c.I != 1 || c.J != 1 || c.Level != 0 {
		t.Errorf("Cell(5) = %+v", c)
	}
	x, y := m.Center(0)
	if math.Abs(x-0.125) > 1e-15 || math.Abs(y-1.0/6) > 1e-15 {
		t.Errorf("Center(0) = %g, %g", x, y)
	}
	if a := m.Area(0); math.Abs(a-0.25/3) > 1e-15 {
		t.Errorf("Area(0) = %g", a)
	}
	// Total area equals the domain.
	var total float64
	for i := 0; i < m.NumCells(); i++ {
		total += m.Area(i)
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("total area %g", total)
	}
}

func TestUniformNeighbors(t *testing.T) {
	m := mustMesh(t, 3, 3, 1)
	center := m.Lookup(1, 1, 0)
	nb := m.Neighbors(int(center))
	for s := Left; s <= Top; s++ {
		if nb.Counts[s] != 1 {
			t.Errorf("center side %d count %d", s, nb.Counts[s])
		}
	}
	if got := m.Cell(int(nb.Cells[Left][0])); got.I != 0 || got.J != 1 {
		t.Errorf("left neighbor %+v", got)
	}
	if got := m.Cell(int(nb.Cells[Top][0])); got.I != 1 || got.J != 2 {
		t.Errorf("top neighbor %+v", got)
	}
	// Corner cell has two boundary sides.
	corner := m.Lookup(0, 0, 0)
	cnb := m.Neighbors(int(corner))
	if cnb.Counts[Left] != 0 || cnb.Counts[Bottom] != 0 {
		t.Error("corner cell has phantom neighbors")
	}
	if cnb.Counts[Right] != 1 || cnb.Counts[Top] != 1 {
		t.Error("corner cell missing interior neighbors")
	}
}

func TestParentChildrenRelations(t *testing.T) {
	c := Cell{I: 5, J: 3, Level: 2}
	kids := c.Children()
	for q, k := range kids {
		if k.Level != 3 {
			t.Errorf("child %d level %d", q, k.Level)
		}
		if k.Parent() != c {
			t.Errorf("child %d parent %+v != %+v", q, k.Parent(), c)
		}
	}
	// SW, SE, NW, NE ordering.
	if kids[0] != (Cell{10, 6, 3}) || kids[1] != (Cell{11, 6, 3}) ||
		kids[2] != (Cell{10, 7, 3}) || kids[3] != (Cell{11, 7, 3}) {
		t.Errorf("children order wrong: %+v", kids)
	}
}

func TestRefineSingleCell(t *testing.T) {
	m := mustMesh(t, 2, 2, 2)
	flags := make([]RefineFlag, m.NumCells())
	flags[0] = Refine
	m, plan := mustAdapt(t, m, flags)
	if m.NumCells() != 7 { // 3 kept + 4 children
		t.Fatalf("NumCells = %d after refining one of four", m.NumCells())
	}
	validate(t, m, "after single refine")
	if len(plan.Refines) != 1 || len(plan.Copies) != 3 || len(plan.Coarsens) != 0 {
		t.Errorf("plan: %d refines %d copies %d coarsens",
			len(plan.Refines), len(plan.Copies), len(plan.Coarsens))
	}
	if plan.OldLen != 4 || plan.NewLen != 7 {
		t.Errorf("plan lengths %d → %d", plan.OldLen, plan.NewLen)
	}
	// The refined fine cells see their coarse neighbors and vice versa.
	for i := 0; i < m.NumCells(); i++ {
		nb := m.Neighbors(i)
		c := m.Cell(i)
		for s := Left; s <= Top; s++ {
			for _, n := range nb.On(s) {
				d := int(m.Cell(int(n)).Level) - int(c.Level)
				if d < -1 || d > 1 {
					t.Errorf("balance violated between %+v and %+v", c, m.Cell(int(n)))
				}
			}
		}
	}
	// A coarse cell bordering two fine cells reports both.
	right := m.Lookup(1, 0, 0)
	if right < 0 {
		t.Fatal("cell (1,0,0) missing")
	}
	rnb := m.Neighbors(int(right))
	if rnb.Counts[Left] != 2 {
		t.Errorf("coarse cell sees %d fine left neighbors, want 2", rnb.Counts[Left])
	}
}

func TestBalancePropagation(t *testing.T) {
	// Refining a fine cell twice must drag neighbors along: start 4x4,
	// refine one cell, then refine one of its children; the child's coarse
	// neighbors must auto-refine to keep 2:1.
	m := mustMesh(t, 4, 4, 3)
	flags := make([]RefineFlag, m.NumCells())
	flags[m.Lookup(1, 1, 0)] = Refine
	m, _ = mustAdapt(t, m, flags)
	validate(t, m, "first refine")
	// Now refine the SW child (2,2,1) — neighbors (0,1,0) and (1,0,0)
	// at level 0 touch it and must be forced to level 1.
	idx := m.Lookup(2, 2, 1)
	if idx < 0 {
		t.Fatal("expected child (2,2,1)")
	}
	flags = make([]RefineFlag, m.NumCells())
	flags[idx] = Refine
	m, plan := mustAdapt(t, m, flags)
	validate(t, m, "second refine with propagation")
	if len(plan.Refines) < 3 {
		t.Errorf("expected balance propagation to refine ≥3 cells, got %d", len(plan.Refines))
	}
	// The requested cell's children (4,4,2)… and the dragged-along
	// neighbors' children, e.g. (1,2,1) from refining (0,1,0), must exist.
	if m.Lookup(4, 4, 2) < 0 {
		t.Error("requested refinement missing")
	}
	if m.Lookup(1, 2, 1) < 0 || m.Lookup(2, 1, 1) < 0 {
		t.Error("balance-propagated refinement missing")
	}
}

func TestCoarsenRequiresAllSiblings(t *testing.T) {
	m := mustMesh(t, 2, 2, 1)
	flags := make([]RefineFlag, m.NumCells())
	for i := range flags {
		flags[i] = Refine
	}
	m, _ = mustAdapt(t, m, flags)
	if m.NumCells() != 16 {
		t.Fatalf("refine all: %d cells", m.NumCells())
	}
	// Flag only 3 of the 4 siblings of parent (0,0): no coarsening.
	flags = make([]RefineFlag, m.NumCells())
	group := [4]int32{m.Lookup(0, 0, 1), m.Lookup(1, 0, 1), m.Lookup(0, 1, 1), m.Lookup(1, 1, 1)}
	for _, idx := range group[:3] {
		flags[idx] = Coarsen
	}
	m, plan := mustAdapt(t, m, flags)
	if len(plan.Coarsens) != 0 || m.NumCells() != 16 {
		t.Errorf("partial sibling group coarsened: %d ops, %d cells", len(plan.Coarsens), m.NumCells())
	}
	// All four: coarsening happens.
	flags = make([]RefineFlag, m.NumCells())
	for _, idx := range group {
		flags[m.Lookup(m.Cell(int(idx)).I, m.Cell(int(idx)).J, 1)] = Coarsen
	}
	m, plan = mustAdapt(t, m, flags)
	if len(plan.Coarsens) != 1 || m.NumCells() != 13 {
		t.Errorf("full sibling group: %d ops, %d cells", len(plan.Coarsens), m.NumCells())
	}
	validate(t, m, "after coarsen")
}

func TestCoarsenVetoedByBalance(t *testing.T) {
	// Build a mesh with levels 0/1/2 and try to coarsen level-1 siblings
	// that touch level-2 cells: must be vetoed.
	m := mustMesh(t, 2, 2, 2)
	flags := make([]RefineFlag, m.NumCells())
	for i := range flags {
		flags[i] = Refine // all to level 1
	}
	m, _ = mustAdapt(t, m, flags)
	flags = make([]RefineFlag, m.NumCells())
	flags[m.Lookup(2, 0, 1)] = Refine // one cell to level 2
	m, _ = mustAdapt(t, m, flags)
	validate(t, m, "mixed levels")
	// Coarsening the sibling group under parent (0,0,0) would put a
	// level-0 cell face-to-face with the level-2 children of (2,0,1):
	// member (1,0,1)'s right neighbors are at level 2, so the group must
	// be vetoed.
	flags = make([]RefineFlag, m.NumCells())
	for _, c := range [][2]int32{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
		idx := m.Lookup(c[0], c[1], 1)
		if idx < 0 {
			t.Fatalf("missing level-1 cell (%d,%d)", c[0], c[1])
		}
		flags[idx] = Coarsen
	}
	m, plan := mustAdapt(t, m, flags)
	if granted := len(plan.Coarsens); granted != 0 {
		t.Errorf("coarsening next to level-2 cells was granted (%d ops)", granted)
	}
	validate(t, m, "after vetoed coarsen")
	// A far-away group with only level-1 surroundings coarsens fine.
	flags = make([]RefineFlag, m.NumCells())
	for _, c := range [][2]int32{{2, 2}, {3, 2}, {2, 3}, {3, 3}} {
		idx := m.Lookup(c[0], c[1], 1)
		if idx < 0 {
			t.Fatalf("missing level-1 cell (%d,%d)", c[0], c[1])
		}
		flags[idx] = Coarsen
	}
	m, plan = mustAdapt(t, m, flags)
	if len(plan.Coarsens) != 1 {
		t.Errorf("legal coarsening was not granted (%d ops)", len(plan.Coarsens))
	}
	validate(t, m, "after granted coarsen")
}

func TestApplyRemapConservesMass(t *testing.T) {
	m := mustMesh(t, 4, 4, 2)
	state := make([]float64, m.NumCells())
	var mass float64
	for i := range state {
		state[i] = float64(i%7) + 1
		mass += state[i] * m.Area(i)
	}
	areasBefore := make([]float64, m.NumCells())
	for i := range areasBefore {
		areasBefore[i] = m.Area(i)
	}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 6; round++ {
		flags := make([]RefineFlag, m.NumCells())
		for i := range flags {
			flags[i] = RefineFlag(rng.Intn(3) - 1)
		}
		var plan *Remap
		m, plan = mustAdapt(t, m, flags)
		validate(t, m, "random adapt round")
		state = ApplyRemapInto(nil, plan, state, InjectProlong[float64](), MeanRestrict[float64]())
		if len(state) != m.NumCells() {
			t.Fatalf("state length %d != %d cells", len(state), m.NumCells())
		}
		var newMass float64
		for i := range state {
			newMass += state[i] * m.Area(i)
		}
		if math.Abs(newMass-mass) > 1e-12*math.Abs(mass) {
			t.Fatalf("round %d: mass %g → %g", round, mass, newMass)
		}
	}
}

// TestApplyRemapIntoReusesAndMatches verifies destination reuse: output
// identical to a remap into a fresh array, the destination backing array
// reused when its capacity suffices, and allocation only when it does not.
func TestApplyRemapIntoReusesAndMatches(t *testing.T) {
	m := mustMesh(t, 4, 4, 2)
	state := make([]float64, m.NumCells())
	for i := range state {
		state[i] = float64(i%11) + 0.5
	}
	dst := make([]float64, 0, 4*len(state)) // ample capacity
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 5; round++ {
		flags := make([]RefineFlag, m.NumCells())
		for i := range flags {
			flags[i] = RefineFlag(rng.Intn(3) - 1)
		}
		var plan *Remap
		m, plan = mustAdapt(t, m, flags)
		want := ApplyRemapInto(nil, plan, state, InjectProlong[float64](), MeanRestrict[float64]())
		got := ApplyRemapInto(dst, plan, state, InjectProlong[float64](), MeanRestrict[float64]())
		if len(got) != len(want) {
			t.Fatalf("round %d: length %d != %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: cell %d differs: %x vs %x", round, i, got[i], want[i])
			}
		}
		if plan.NewLen <= cap(dst) && &got[0] != &dst[:1][0] {
			t.Errorf("round %d: destination backing array not reused", round)
		}
		// Ping-pong: the old state array becomes the next destination.
		state, dst = got, state
	}
	// Insufficient capacity must allocate, not panic or truncate.
	flags := make([]RefineFlag, m.NumCells())
	for i := range flags {
		flags[i] = Refine
	}
	m, plan := mustAdapt(t, m, flags)
	got := ApplyRemapInto(nil, plan, state, InjectProlong[float64](), MeanRestrict[float64]())
	if len(got) != plan.NewLen {
		t.Fatalf("nil-destination length %d != %d", len(got), plan.NewLen)
	}
}

func TestContainingCellAndRasterize(t *testing.T) {
	m := mustMesh(t, 2, 2, 1)
	flags := make([]RefineFlag, m.NumCells())
	flags[m.Lookup(0, 0, 0)] = Refine
	m, _ = mustAdapt(t, m, flags)
	// Point deep in the refined quadrant hits a level-1 cell.
	idx := m.ContainingCell(0.1, 0.1)
	if idx < 0 || m.Cell(int(idx)).Level != 1 {
		t.Errorf("ContainingCell(0.1,0.1) = %d (%+v)", idx, m.Cell(int(idx)))
	}
	// Point in an unrefined quadrant hits level 0.
	idx = m.ContainingCell(0.9, 0.9)
	if idx < 0 || m.Cell(int(idx)).Level != 0 {
		t.Errorf("ContainingCell(0.9,0.9) level %d", m.Cell(int(idx)).Level)
	}
	if m.ContainingCell(-0.1, 0.5) != -1 || m.ContainingCell(0.5, 1.5) != -1 || m.ContainingCell(math.NaN(), 0.5) != -1 {
		t.Error("points outside the domain resolved to cells")
	}
	// Rasterize per-cell levels: the SW quadrant of the image must read 1.
	vals := make([]float64, m.NumCells())
	for i := range vals {
		vals[i] = float64(m.Cell(i).Level)
	}
	img, err := m.Rasterize(vals, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if img[0] != 1 {
		t.Errorf("SW pixel = %g, want level 1", img[0])
	}
	if img[63] != 0 {
		t.Errorf("NE pixel = %g, want level 0", img[63])
	}
	if _, err := m.Rasterize(vals[:1], 4, 4); err == nil {
		t.Error("Rasterize accepted mismatched values")
	}
}

func TestAdaptRejectsWrongFlagCount(t *testing.T) {
	m := mustMesh(t, 2, 2, 1)
	if _, err := m.Adapt(make([]RefineFlag, 3)); err == nil {
		t.Error("Adapt accepted wrong flag count")
	}
}

func TestMaxActiveLevelAndAccessors(t *testing.T) {
	m := mustMesh(t, 2, 2, 2)
	if m.MaxActiveLevel() != 0 {
		t.Error("fresh mesh max active level nonzero")
	}
	flags := make([]RefineFlag, m.NumCells())
	flags[0] = Refine
	m, _ = mustAdapt(t, m, flags)
	if m.MaxActiveLevel() != 1 {
		t.Errorf("MaxActiveLevel = %d", m.MaxActiveLevel())
	}
	if m.MaxLevel() != 2 {
		t.Errorf("MaxLevel = %d", m.MaxLevel())
	}
	if nx, ny := m.CoarseSize(); nx != 2 || ny != 2 {
		t.Errorf("CoarseSize = %d,%d", nx, ny)
	}
	if m.Bounds() != UnitBounds {
		t.Errorf("Bounds = %+v", m.Bounds())
	}
	if len(m.Cells()) != m.NumCells() {
		t.Error("Cells() length mismatch")
	}
}

func TestRefinementAtMaxLevelIsClamped(t *testing.T) {
	m := mustMesh(t, 2, 2, 0)
	flags := make([]RefineFlag, m.NumCells())
	for i := range flags {
		flags[i] = Refine
	}
	m, plan := mustAdapt(t, m, flags)
	if len(plan.Refines) != 0 || m.NumCells() != 4 {
		t.Error("refinement beyond maxLevel was not clamped")
	}
	// Coarsening below level 0 likewise.
	for i := range flags {
		flags[i] = Coarsen
	}
	m, plan = mustAdapt(t, m, flags)
	if len(plan.Coarsens) != 0 {
		t.Error("coarsening below level 0 was not clamped")
	}
}

func TestDeepRandomAdaptStaysValid(t *testing.T) {
	m := mustMesh(t, 4, 4, 3)
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 15; round++ {
		flags := make([]RefineFlag, m.NumCells())
		for i := range flags {
			r := rng.Float64()
			switch {
			case r < 0.3:
				flags[i] = Refine
			case r < 0.6:
				flags[i] = Coarsen
			}
		}
		m, _ = mustAdapt(t, m, flags)
		validate(t, m, "deep random adapt")
	}
	if m.NumCells() > 4*4<<(2*3) {
		t.Error("cell count exceeded finest-grid bound")
	}
}

func TestLookupMissing(t *testing.T) {
	m := mustMesh(t, 2, 2, 1)
	if m.Lookup(0, 0, 1) != -1 {
		t.Error("Lookup found a nonexistent fine cell")
	}
	if m.Lookup(5, 5, 0) != -1 {
		t.Error("Lookup found an out-of-range cell")
	}
}

func BenchmarkNeighborRebuild(b *testing.B) {
	m, err := New(64, 64, 2, UnitBounds)
	if err != nil {
		b.Fatal(err)
	}
	flags := make([]RefineFlag, m.NumCells())
	for i := range flags {
		if i%5 == 0 {
			flags[i] = Refine
		}
	}
	plan, err := m.Adapt(flags)
	if err != nil {
		b.Fatal(err)
	}
	m = plan.Mesh
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.rebuild()
	}
}

func BenchmarkAdaptCycle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, _ := New(32, 32, 2, UnitBounds)
		flags := make([]RefineFlag, m.NumCells())
		for j := range flags {
			if j%7 == 0 {
				flags[j] = Refine
			}
		}
		_, _ = m.Adapt(flags)
	}
}

// TestAdaptLeavesItsMeshUntouched: adapting returns a new mesh and leaves
// the one adapted — its leaves, index and neighbors — exactly as it was,
// which is what lets solvers share one construction.
func TestAdaptLeavesItsMeshUntouched(t *testing.T) {
	m := mustMesh(t, 8, 8, 2)
	flags := make([]RefineFlag, m.NumCells())
	flags[0], flags[9] = Refine, Refine
	m, _ = mustAdapt(t, m, flags)
	cells := slices.Clone(m.Cells())
	nbrs := make([]Neighbors, m.NumCells())
	for i := range nbrs {
		nbrs[i] = *m.Neighbors(i)
	}
	flags = make([]RefineFlag, m.NumCells())
	for i := range flags {
		flags[i] = RefineFlag(i%3 - 1)
	}
	next, _ := mustAdapt(t, m, flags)
	if next == m || next.NumCells() == m.NumCells() {
		t.Fatalf("adapt returned the same mesh or an unchanged cell count (%d cells)", next.NumCells())
	}
	validate(t, m, "the adapted-from mesh")
	if !slices.Equal(m.Cells(), cells) {
		t.Error("adapting rewrote the leaves of the mesh it adapted")
	}
	for i := range nbrs {
		if *m.Neighbors(i) != nbrs[i] {
			t.Fatalf("adapting rewrote cell %d's neighbors", i)
		}
	}
	for i, c := range cells {
		if m.Lookup(c.I, c.J, c.Level) != int32(i) {
			t.Fatalf("adapting rewrote the index entry of cell %d", i)
		}
	}
}

// TestCellSizeTableMatchesTheFormula: the per-level table New fills is
// bit-equal to width/(nx·2^l), height/(ny·2^l) at every level, on bounds
// that are neither unit nor origin-anchored.
func TestCellSizeTableMatchesTheFormula(t *testing.T) {
	b := Bounds{XMin: -1.3, XMax: 2.9, YMin: 0.7, YMax: 3.1}
	for _, g := range [][3]int{{3, 5, 6}, {16, 16, 1}, {7, 2, MaxRefineLevel}} {
		m, err := New(g[0], g[1], g[2], b)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l <= g[2]; l++ {
			wantDX := b.Width() / float64(int64(g[0])<<uint(l))
			wantDY := b.Height() / float64(int64(g[1])<<uint(l))
			if dx, dy := m.CellSize(int8(l)); dx != wantDX || dy != wantDY {
				t.Errorf("%dx%d level %d: CellSize = (%x, %x), want (%x, %x)", g[0], g[1], l, dx, dy, wantDX, wantDY)
			}
		}
	}
}
