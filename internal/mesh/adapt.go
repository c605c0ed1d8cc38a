package mesh

import "fmt"

// RefineFlag is a per-cell adaptation request.
type RefineFlag int8

const (
	// Coarsen requests that the cell merge with its siblings (granted only
	// when all four siblings agree and balance allows).
	Coarsen RefineFlag = -1
	// Keep leaves the cell unchanged.
	Keep RefineFlag = 0
	// Refine splits the cell into four children.
	Refine RefineFlag = 1
)

// Remap describes how solver state moves from the pre-Adapt mesh to the
// post-Adapt mesh. Operations are disjoint and cover every new cell.
type Remap struct {
	// Mesh is the post-Adapt mesh the New indices refer to.
	Mesh *Mesh
	// Copies maps old cell index → new cell index for unchanged cells.
	Copies []CopyOp
	// Refines maps one old cell to its four new children (SW, SE, NW, NE).
	Refines []RefineOp
	// Coarsens maps four old sibling cells (SW, SE, NW, NE) to one new cell.
	Coarsens []CoarsenOp
	// OldLen and NewLen are the mesh sizes before and after.
	OldLen, NewLen int
}

// CopyOp moves one cell's state unchanged.
type CopyOp struct{ Old, New int32 }

// RefineOp splits one cell into four children.
type RefineOp struct {
	Old int32
	New [4]int32
}

// CoarsenOp merges four siblings into one parent.
type CoarsenOp struct {
	Old [4]int32
	New int32
}

// Adapt applies per-cell refinement flags, enforcing 2:1 balance (balance
// propagation may refine cells that were not flagged, and may veto
// coarsening). It returns the state remap plan, whose Mesh is the adapted
// mesh, built into fresh storage: m itself is left untouched, so a mesh
// shared by several solvers stays valid for all of them.
//
// flags must have one entry per current cell.
func (m *Mesh) Adapt(flags []RefineFlag) (*Remap, error) {
	if len(flags) != len(m.cells) {
		return nil, fmt.Errorf("mesh: %d flags for %d cells", len(flags), len(m.cells))
	}
	n := len(m.cells)

	// Working copy with clamping.
	want := make([]RefineFlag, n)
	for i, f := range flags {
		switch {
		case f > Keep && int(m.cells[i].Level) < m.maxLevel:
			want[i] = Refine
		case f < Keep && m.cells[i].Level > 0:
			want[i] = Coarsen
		default:
			want[i] = Keep
		}
	}

	// Balance propagation for refinement: if cell c will reach level
	// L(c)+1, every neighbor with final level < L(c) must refine. Iterate
	// to a fixed point (each pass only raises flags, so it terminates).
	for changed := true; changed; {
		changed = false
		for idx := 0; idx < n; idx++ {
			if want[idx] != Refine {
				continue
			}
			target := int(m.cells[idx].Level) + 1
			nb := &m.nbrs[idx]
			for s := Left; s <= Top; s++ {
				for _, nIdx := range nb.On(s) {
					nLevel := int(m.cells[nIdx].Level)
					if want[nIdx] == Refine {
						nLevel++
					}
					if nLevel < target-1 {
						// Neighbor must refine; also cancel any coarsen wish.
						if want[nIdx] != Refine {
							want[nIdx] = Refine
							changed = true
						}
					} else if want[nIdx] == Coarsen && nLevel-1 < target-1 {
						want[nIdx] = Keep
						changed = true
					}
				}
			}
		}
	}

	// Coarsening: all four siblings must exist as leaves at the same level
	// and all want to coarsen; the merged parent must not violate balance
	// against any neighbor's post-refinement level. A group is found from
	// its SW member; a granted group's members are marked, which no other
	// group's test reads: coarsenEmit on the member with the smallest
	// index, where the parent is emitted, and coarsenMerged on the rest.
	for idx := 0; idx < n; idx++ {
		c := m.cells[idx]
		if want[idx] != Coarsen || c.I&1 != 0 || c.J&1 != 0 {
			continue
		}
		members, ok := m.children(c.Parent())
		for _, member := range members {
			ok = ok && want[member] == Coarsen
		}
		if ok && !m.coarsenVetoed(members, want) {
			for _, member := range members {
				want[member] = coarsenMerged
			}
			want[min(members[0], members[1], members[2], members[3])] = coarsenEmit
		}
	}
	// Demote the rest of the coarsen wishes to Keep, and count the plan.
	var copies, refines, groups int
	for idx, f := range want {
		switch f {
		case Coarsen:
			want[idx] = Keep
			copies++
		case Keep:
			copies++
		case Refine:
			refines++
		case coarsenEmit:
			groups++
		}
	}

	// Build the new cell list in old-cell order: refined children expand in
	// place, a coarsened parent emits at its smallest member index.
	plan := &Remap{
		OldLen:   n,
		NewLen:   copies + 4*refines + groups,
		Copies:   make([]CopyOp, 0, copies),
		Refines:  make([]RefineOp, 0, refines),
		Coarsens: make([]CoarsenOp, 0, groups),
	}
	newCells := make([]Cell, 0, plan.NewLen)
	for idx := 0; idx < n; idx++ {
		c := m.cells[idx]
		switch want[idx] {
		case Keep:
			plan.Copies = append(plan.Copies, CopyOp{Old: int32(idx), New: int32(len(newCells))})
			newCells = append(newCells, c)
		case Refine:
			op := RefineOp{Old: int32(idx)}
			for q, ch := range c.Children() {
				op.New[q] = int32(len(newCells))
				newCells = append(newCells, ch)
			}
			plan.Refines = append(plan.Refines, op)
		case coarsenEmit:
			p := c.Parent()
			members, _ := m.children(p)
			plan.Coarsens = append(plan.Coarsens, CoarsenOp{Old: members, New: int32(len(newCells))})
			newCells = append(newCells, p)
		}
	}

	next := *m
	next.cells = newCells
	next.rebuild()
	plan.Mesh = &next
	return plan, nil
}

// Inside Adapt, the members of a sibling group whose coarsening passed the
// balance veto: the parent is emitted at coarsenEmit's position, and
// coarsenMerged members emit nothing.
const (
	coarsenMerged RefineFlag = -2
	coarsenEmit   RefineFlag = -3
)

// children returns the leaf indices of p's four children (SW, SE, NW, NE)
// and whether all four are leaves.
func (m *Mesh) children(p Cell) (ids [4]int32, ok bool) {
	for q, ch := range p.Children() {
		if ids[q] = m.Lookup(ch.I, ch.J, ch.Level); ids[q] < 0 {
			return ids, false
		}
	}
	return ids, true
}

// coarsenVetoed reports whether merging the sibling group members would
// break balance: the parent (level L-1) may not touch any cell whose
// post-refinement level exceeds L, and the members' neighbors are exactly
// the cells it would touch.
func (m *Mesh) coarsenVetoed(members [4]int32, want []RefineFlag) bool {
	memberLevel := int(m.cells[members[0]].Level)
	for _, member := range members {
		nb := &m.nbrs[member]
		for s := Left; s <= Top; s++ {
			for _, nIdx := range nb.On(s) {
				final := int(m.cells[nIdx].Level)
				if want[nIdx] == Refine {
					final++
				}
				if final > memberLevel {
					return true
				}
			}
		}
	}
	return false
}

// ApplyRemapInto transfers per-cell state across an Adapt into dst,
// reusing dst's backing array when its capacity suffices (dst must not
// alias old; nil allocates). It returns the resized destination, letting a
// solver ping-pong two state buffers across adaptations instead of
// reallocating per remap. prolong maps a parent value to its four children
// (SW, SE, NW, NE); restrict merges four child values into the parent. For
// conserved cell-averaged quantities, prolong is usually injection (copy)
// and restrict the arithmetic mean.
func ApplyRemapInto[S any](dst []S, plan *Remap, old []S, prolong func(S) [4]S, restrict func([4]S) S) []S {
	var out []S
	if cap(dst) >= plan.NewLen {
		out = dst[:plan.NewLen]
	} else {
		out = make([]S, plan.NewLen)
	}
	for _, op := range plan.Copies {
		out[op.New] = old[op.Old]
	}
	for _, op := range plan.Refines {
		vals := prolong(old[op.Old])
		for q, idx := range op.New {
			out[idx] = vals[q]
		}
	}
	for _, op := range plan.Coarsens {
		var vals [4]S
		for q, idx := range op.Old {
			vals[q] = old[idx]
		}
		out[op.New] = restrict(vals)
	}
	return out
}

// InjectProlong returns a prolongation that copies the parent value to all
// four children (exact for cell averages of piecewise-constant data).
func InjectProlong[S any]() func(S) [4]S {
	return func(v S) [4]S { return [4]S{v, v, v, v} }
}

// MeanRestrict returns a restriction that averages the four children
// (conservative for equal-area children).
func MeanRestrict[S ~float32 | ~float64]() func([4]S) S {
	return func(v [4]S) S { return (v[0] + v[1] + v[2] + v[3]) / 4 }
}
