package mesh

import (
	"fmt"
	"math"
	"testing"
)

// oracleNeighbors resolves every leaf's neighbors the way the mesh did
// before its spatial hash: a Go map keyed on (i, j, level), probed same
// level first, then coarser, then the two finer children. It is the
// reference the hash's neighbors must equal.
func oracleNeighbors(m *Mesh) []Neighbors {
	key := func(i, j int32, level int8) uint64 {
		return uint64(level)<<56 | uint64(uint32(i))<<28 | uint64(uint32(j))
	}
	index := make(map[uint64]int32, len(m.cells))
	for idx, c := range m.cells {
		index[key(c.I, c.J, c.Level)] = int32(idx)
	}
	lookup := func(i, j int32, level int8) int32 {
		if idx, ok := index[key(i, j, level)]; ok {
			return idx
		}
		return -1
	}
	out := make([]Neighbors, len(m.cells))
	for idx, c := range m.cells {
		nb := &out[idx]
		resolve := func(side Side, ni, nj int32, inDomain bool) {
			if !inDomain {
				return
			}
			if n := lookup(ni, nj, c.Level); n >= 0 {
				nb.Cells[side][0], nb.Counts[side] = n, 1
				return
			}
			if c.Level > 0 {
				if n := lookup(ni>>1, nj>>1, c.Level-1); n >= 0 {
					nb.Cells[side][0], nb.Counts[side] = n, 1
					return
				}
			}
			if int(c.Level) < m.maxLevel {
				var a, b int32
				switch side {
				case Left:
					a, b = lookup(2*ni+1, 2*nj, c.Level+1), lookup(2*ni+1, 2*nj+1, c.Level+1)
				case Right:
					a, b = lookup(2*ni, 2*nj, c.Level+1), lookup(2*ni, 2*nj+1, c.Level+1)
				case Bottom:
					a, b = lookup(2*ni, 2*nj+1, c.Level+1), lookup(2*ni+1, 2*nj+1, c.Level+1)
				case Top:
					a, b = lookup(2*ni, 2*nj, c.Level+1), lookup(2*ni+1, 2*nj, c.Level+1)
				}
				if a >= 0 && b >= 0 {
					nb.Cells[side], nb.Counts[side] = [2]int32{a, b}, 2
				}
			}
		}
		nx, ny := m.levelDims(c.Level)
		resolve(Left, c.I-1, c.J, c.I > 0)
		resolve(Right, c.I+1, c.J, c.I+1 < nx)
		resolve(Bottom, c.I, c.J-1, c.J > 0)
		resolve(Top, c.I, c.J+1, c.J+1 < ny)
	}
	return out
}

// checkMesh returns the first way m departs from its contract: Validate,
// and neighbors equal to the map oracle's.
func checkMesh(m *Mesh) error {
	if err := m.Validate(); err != nil {
		return err
	}
	for idx, want := range oracleNeighbors(m) {
		if got := *m.Neighbors(idx); got != want {
			return fmt.Errorf("cell %d (%+v): neighbors %+v, map oracle %+v", idx, m.Cell(idx), got, want)
		}
	}
	return nil
}

// checkPlan returns an error unless plan's operations cover every new cell
// exactly once and use every old cell exactly once.
func checkPlan(plan *Remap) error {
	covered := make([]int, plan.NewLen)
	used := make([]int, plan.OldLen)
	for _, op := range plan.Copies {
		covered[op.New]++
		used[op.Old]++
	}
	for _, op := range plan.Refines {
		used[op.Old]++
		for _, idx := range op.New {
			covered[idx]++
		}
	}
	for _, op := range plan.Coarsens {
		covered[op.New]++
		for _, idx := range op.Old {
			used[idx]++
		}
	}
	for idx, c := range covered {
		if c != 1 {
			return fmt.Errorf("new cell %d covered %d times", idx, c)
		}
	}
	for idx, c := range used {
		if c != 1 {
			return fmt.Errorf("old cell %d used %d times", idx, c)
		}
	}
	if plan.NewLen != plan.Mesh.NumCells() {
		return fmt.Errorf("plan NewLen %d for a %d-cell mesh", plan.NewLen, plan.Mesh.NumCells())
	}
	return nil
}

// FuzzAdapt adapts a mesh of fuzzed coarse dims and depth (up to
// MaxRefineLevel, deep meshes reaching few of their levels) by fuzzed flags, two bits per cell drawn from the
// input, until the input runs out. After every round the mesh must
// validate, its neighbors must equal the map oracle's, and the remap must
// cover every new cell exactly once.
func FuzzAdapt(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(2), []byte{0x11, 0x44, 0x99, 0x21, 0x12, 0x66})
	f.Add(uint8(3), uint8(5), uint8(3), []byte{0x55, 0x55, 0x55, 0x55, 0xaa, 0xaa, 0xaa, 0xaa, 0xaa, 0xaa})
	f.Add(uint8(2), uint8(1), uint8(MaxRefineLevel), []byte{0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01})
	f.Add(uint8(7), uint8(2), uint8(9), []byte{0xd8, 0x27, 0x93, 0x4e, 0x01, 0xb6})
	f.Fuzz(func(t *testing.T, nx, ny, maxLevel uint8, stream []byte) {
		m, err := New(1+int(nx%8), 1+int(ny%8), int(maxLevel)%(MaxRefineLevel+1), UnitBounds)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkMesh(m); err != nil {
			t.Fatalf("new mesh: %v", err)
		}
		bit := 0
		for round := 0; round < 6 && bit < 8*len(stream) && m.NumCells() <= 1<<12; round++ {
			flags := make([]RefineFlag, m.NumCells())
			for i := range flags {
				if bit >= 8*len(stream) {
					break
				}
				switch stream[bit/8] >> (bit % 8) & 3 {
				case 1:
					flags[i] = Refine
				case 2:
					flags[i] = Coarsen
				}
				bit += 2
			}
			plan, err := m.Adapt(flags)
			if err != nil {
				t.Fatal(err)
			}
			m = plan.Mesh
			if err := checkMesh(m); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if err := checkPlan(plan); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	})
}

// TestHashRejectsBrokenCellLists: at shallow and deep max levels the table
// still lets Validate catch a duplicate leaf, an overlapping ancestor, an
// out-of-range leaf and an unbalanced cover. The unbalanced cover tiles
// the domain, so its neighbors must still equal the map oracle's, the
// faces between levels 0 and 2 left unresolved.
func TestHashRejectsBrokenCellLists(t *testing.T) {
	for _, maxLevel := range []int{2, 6} {
		base := mustMesh(t, 2, 2, maxLevel).Cells()
		unbalanced := append([]Cell(nil), base[1:]...)
		for j := int32(0); j < 4; j++ {
			for i := int32(0); i < 4; i++ {
				unbalanced = append(unbalanced, Cell{i, j, 2}) // cell 0 split twice
			}
		}
		broken := map[string][]Cell{
			"duplicate":  append(append([]Cell(nil), base...), base[3]),
			"overlap":    append(append([]Cell(nil), base...), Cell{1, 1, 1}),
			"outside":    append(append([]Cell(nil), base[:3]...), Cell{2, 1, 0}),
			"too deep":   append(append([]Cell(nil), base[:3]...), Cell{1, 1, int8(maxLevel) + 1}),
			"unbalanced": unbalanced,
		}
		for name, cells := range broken {
			if _, err := FromCells(2, 2, maxLevel, UnitBounds, cells); err == nil {
				t.Errorf("maxLevel %d: FromCells accepted a %s cell list", maxLevel, name)
			}
		}
		m := mustMesh(t, 2, 2, maxLevel)
		m.cells = unbalanced
		m.rebuild()
		for idx, want := range oracleNeighbors(m) {
			if got := *m.Neighbors(idx); got != want {
				t.Errorf("maxLevel %d, unbalanced cell %d (%+v): neighbors %+v, map oracle %+v",
					maxLevel, idx, m.Cell(idx), got, want)
			}
		}
	}
}

// TestAdaptAllocationCeiling: one 128²/L2 adaptation (solve_cold's shape)
// allocates a fixed handful of exactly sized slices — flags, the plan's
// three op lists, the new leaves, the table and the neighbors — not maps
// or regrown plans.
func TestAdaptAllocationCeiling(t *testing.T) {
	m, flags := adapt128(t)
	if n := testing.AllocsPerRun(3, func() {
		if _, err := m.Adapt(flags); err != nil {
			t.Fatal(err)
		}
	}); n > 12 {
		t.Errorf("Adapt of a 128²/L2 mesh made %.0f allocations, want ≤ 12", n)
	}
}

// adapt128 returns a 128²/L2 mesh refined to level 2 along a ring, the way
// a dam break's front refines it, and flags that move the ring outward:
// refine ahead of it, coarsen behind it. That is the adaptation a
// solve_cold CLAMR run repeats every AMR interval.
func adapt128(tb testing.TB) (*Mesh, []RefineFlag) {
	tb.Helper()
	m, err := New(128, 128, 2, UnitBounds)
	if err != nil {
		tb.Fatal(err)
	}
	ring := func(m *Mesh, r, width float64, in, out RefineFlag) []RefineFlag {
		flags := make([]RefineFlag, m.NumCells())
		for i := range flags {
			x, y := m.Center(i)
			if d := math.Hypot(x-0.5, y-0.5) - r; math.Abs(d) < width {
				flags[i] = in
			} else {
				flags[i] = out
			}
		}
		return flags
	}
	for pass := 0; pass < 2; pass++ {
		plan, err := m.Adapt(ring(m, 0.25, 0.04, Refine, Keep))
		if err != nil {
			tb.Fatal(err)
		}
		m = plan.Mesh
	}
	return m, ring(m, 0.28, 0.04, Refine, Coarsen)
}

func BenchmarkAdapt128(b *testing.B) {
	m, flags := adapt128(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Adapt(flags); err != nil {
			b.Fatal(err)
		}
	}
}
