package mesh

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPropertyAdaptPreservesInvariants drives random adaptation sequences
// from random seeds (property-based): after any sequence of Adapt calls the
// mesh must validate, cover the domain exactly, and the remap plan must be
// a bijection onto the new cells.
func TestPropertyAdaptPreservesInvariants(t *testing.T) {
	prop := func(seed int64, rounds uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := New(3+rng.Intn(4), 3+rng.Intn(4), 1+rng.Intn(3), UnitBounds)
		if err != nil {
			return false
		}
		n := int(rounds%6) + 1
		for round := 0; round < n; round++ {
			flags := make([]RefineFlag, m.NumCells())
			for i := range flags {
				flags[i] = RefineFlag(rng.Intn(3) - 1)
			}
			plan, err := m.Adapt(flags)
			if err != nil {
				t.Logf("adapt error: %v", err)
				return false
			}
			m = plan.Mesh
			if err := m.Validate(); err != nil {
				t.Logf("validate: %v", err)
				return false
			}
			// The plan covers every new cell exactly once and uses every
			// old cell exactly once.
			if err := checkPlan(plan); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyContainingCellConsistent: any point inside the domain
// resolves to a leaf whose geometric extent contains it.
func TestPropertyContainingCellConsistent(t *testing.T) {
	m, err := New(5, 4, 2, Bounds{-1, 3, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	flags := make([]RefineFlag, m.NumCells())
	for i := range flags {
		if rng.Intn(3) == 0 {
			flags[i] = Refine
		}
	}
	plan, err := m.Adapt(flags)
	if err != nil {
		t.Fatal(err)
	}
	m = plan.Mesh
	prop := func(fx, fy float64) bool {
		x := -1 + 4*frac(fx)
		y := 0 + 2*frac(fy)
		idx := m.ContainingCell(x, y)
		if idx < 0 {
			return false
		}
		c := m.Cell(int(idx))
		dx, dy := m.CellSize(c.Level)
		x0 := m.Bounds().XMin + float64(c.I)*dx
		y0 := m.Bounds().YMin + float64(c.J)*dy
		return x >= x0 && x < x0+dx*1.0000001 && y >= y0 && y < y0+dy*1.0000001
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// frac maps any float64 into [0, 1).
func frac(x float64) float64 {
	if x != x || x > 1e300 || x < -1e300 {
		return 0.5
	}
	f := x - float64(int64(x))
	if f < 0 {
		f += 1
	}
	if f >= 1 {
		f = 0
	}
	return f
}
