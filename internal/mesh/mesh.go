// Package mesh implements cell-based adaptive mesh refinement in the style
// of the CLAMR mini-app: the domain is a coarse rectangular grid whose cells
// refine quadtree-fashion, the active mesh is the set of leaf cells, and
// neighbor connectivity is recovered through a hash of (i, j, level) —
// CLAMR's signature technique (Robey et al., "Hash-based algorithms for
// discretized data", SIAM J. Sci. Comput. 2013) — rather than stored trees.
// The hash is CLAMR's compact variant, an open-addressed []int32 table
// (hash.go).
//
// The mesh guarantees 2:1 balance (adjacent leaves differ by at most one
// refinement level), so a cell face borders exactly one same-level cell, one
// coarser cell, or two finer cells.
package mesh

import (
	"fmt"
	"math"
	"unsafe"
)

// MaxRefineLevel is the hard cap on refinement depth. New also keeps each
// side of the finest grid below 2^28 cells, so leaf coordinates and their
// children's stay far inside int32.
const MaxRefineLevel = 20

// Cell identifies a leaf by its integer coordinates at its own refinement
// level: a cell (i, j, l) spans [i, i+1) × [j, j+1) in units of the level-l
// cell size.
type Cell struct {
	I, J  int32
	Level int8
}

// Parent returns the coordinates of the cell's parent (one level coarser).
func (c Cell) Parent() Cell {
	return Cell{I: c.I >> 1, J: c.J >> 1, Level: c.Level - 1}
}

// Children returns the four level+1 cells covering c, in (SW, SE, NW, NE)
// order.
func (c Cell) Children() [4]Cell {
	i, j, l := c.I*2, c.J*2, c.Level+1
	return [4]Cell{
		{i, j, l}, {i + 1, j, l}, {i, j + 1, l}, {i + 1, j + 1, l},
	}
}

// Bounds describes the physical extent of the domain.
type Bounds struct {
	XMin, XMax, YMin, YMax float64
}

// Width and Height return the physical dimensions.
func (b Bounds) Width() float64  { return b.XMax - b.XMin }
func (b Bounds) Height() float64 { return b.YMax - b.YMin }

// UnitBounds is the [0,1]² domain.
var UnitBounds = Bounds{0, 1, 0, 1}

// Side enumerates the four faces of a cell.
type Side int

const (
	Left Side = iota
	Right
	Bottom
	Top
)

// Neighbors lists the adjacent leaves on each side of a cell. Each side has
// 0 entries (domain boundary), 1 entry (same-level or coarser neighbor), or
// 2 entries (two finer neighbors, ordered by increasing j for Left/Right
// and increasing i for Bottom/Top).
type Neighbors struct {
	Cells  [4][2]int32 // indexed by Side
	Counts [4]int8
}

// On returns the neighbor indices on the given side.
func (n *Neighbors) On(s Side) []int32 { return n.Cells[s][:n.Counts[s]] }

// Mesh is a 2:1-balanced cell-based AMR mesh. A mesh is never modified
// once built: Adapt returns the adapted mesh as a new value, so any number
// of solvers may read one mesh concurrently.
type Mesh struct {
	coarseNX, coarseNY int
	maxLevel           int
	bounds             Bounds
	// cellSize holds {dx, dy} per refinement level, 0..maxLevel.
	cellSize [][2]float64

	cells []Cell
	table []int32 // the spatial hash over cells (hash.go)
	nbrs  []Neighbors
}

// New creates a uniform coarse mesh of nx × ny cells over bounds that may
// refine up to maxLevel extra levels. Cells are laid out row-major.
func New(nx, ny, maxLevel int, bounds Bounds) (*Mesh, error) {
	if nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("mesh: grid %dx%d must be positive", nx, ny)
	}
	if maxLevel < 0 || maxLevel > MaxRefineLevel {
		return nil, fmt.Errorf("mesh: maxLevel %d out of [0,%d]", maxLevel, MaxRefineLevel)
	}
	if int64(nx)<<maxLevel >= 1<<28 || int64(ny)<<maxLevel >= 1<<28 {
		return nil, fmt.Errorf("mesh: %dx%d at %d levels exceeds coordinate range", nx, ny, maxLevel)
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, fmt.Errorf("mesh: degenerate bounds %+v", bounds)
	}
	m := &Mesh{coarseNX: nx, coarseNY: ny, maxLevel: maxLevel, bounds: bounds}
	m.cellSize = make([][2]float64, maxLevel+1)
	for l := range m.cellSize {
		m.cellSize[l] = [2]float64{
			bounds.Width() / float64(int64(nx)<<uint(l)),
			bounds.Height() / float64(int64(ny)<<uint(l)),
		}
	}
	m.cells = make([]Cell, 0, nx*ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			m.cells = append(m.cells, Cell{int32(i), int32(j), 0})
		}
	}
	m.rebuild()
	return m, nil
}

// FromCells reconstructs a mesh from an explicit leaf list (checkpoint
// restart). The list must describe a valid 2:1-balanced cover of the
// domain; cell order is preserved so state arrays stay index-aligned.
func FromCells(nx, ny, maxLevel int, bounds Bounds, cells []Cell) (*Mesh, error) {
	m, err := New(nx, ny, maxLevel, bounds)
	if err != nil {
		return nil, err
	}
	m.cells = append([]Cell(nil), cells...)
	m.rebuild()
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("mesh: restored cell list invalid: %w", err)
	}
	return m, nil
}

// Footprint estimates the bytes the mesh holds: the leaf list, the
// neighbor cache and the spatial hash table.
func (m *Mesh) Footprint() int64 {
	perCell := int64(unsafe.Sizeof(Cell{}) + unsafe.Sizeof(Neighbors{}))
	return int64(len(m.cells))*perCell + int64(len(m.table))*int64(unsafe.Sizeof(int32(0)))
}

// NumCells returns the number of active leaves.
func (m *Mesh) NumCells() int { return len(m.cells) }

// MaxLevel returns the refinement-depth cap.
func (m *Mesh) MaxLevel() int { return m.maxLevel }

// CoarseSize returns the coarse-grid dimensions.
func (m *Mesh) CoarseSize() (nx, ny int) { return m.coarseNX, m.coarseNY }

// Bounds returns the physical domain extent.
func (m *Mesh) Bounds() Bounds { return m.bounds }

// Cell returns the leaf with the given index.
func (m *Mesh) Cell(idx int) Cell { return m.cells[idx] }

// Cells returns the live leaf slice; callers must not modify it.
func (m *Mesh) Cells() []Cell { return m.cells }

// CellSize returns the physical cell dimensions at a refinement level in
// [0, MaxLevel], from the table New fills.
func (m *Mesh) CellSize(level int8) (dx, dy float64) {
	sz := m.cellSize[level]
	return sz[0], sz[1]
}

// Center returns the physical center of the leaf with the given index.
func (m *Mesh) Center(idx int) (x, y float64) {
	c := m.cells[idx]
	dx, dy := m.CellSize(c.Level)
	return m.bounds.XMin + (float64(c.I)+0.5)*dx, m.bounds.YMin + (float64(c.J)+0.5)*dy
}

// Area returns the physical area of the leaf with the given index.
func (m *Mesh) Area(idx int) float64 {
	dx, dy := m.CellSize(m.cells[idx].Level)
	return dx * dy
}

// Neighbors returns the cached adjacency of the leaf with the given index.
// The returned pointer aliases mesh-internal storage; callers must not
// modify it.
func (m *Mesh) Neighbors(idx int) *Neighbors { return &m.nbrs[idx] }

// levelNX returns the grid dimensions at a level.
func (m *Mesh) levelDims(level int8) (nx, ny int32) {
	return int32(int64(m.coarseNX) << uint(level)), int32(int64(m.coarseNY) << uint(level))
}

// rebuild builds the spatial hash and the neighbor cache from m.cells into
// fresh storage.
func (m *Mesh) rebuild() {
	m.index()
	m.nbrs = make([]Neighbors, len(m.cells))
	for idx := range m.cells {
		m.computeNeighbors(int32(idx), &m.nbrs[idx])
	}
}

// computeNeighbors resolves all four sides of cell idx via hash probes:
// same level first, then coarser, then the two finer children — exactly one
// succeeds on a balanced mesh (or the side is a domain boundary).
func (m *Mesh) computeNeighbors(idx int32, out *Neighbors) {
	c := m.cells[idx]
	nx, ny := m.levelDims(c.Level)

	resolve := func(side Side, ni, nj int32, inDomain bool) {
		out.Counts[side] = 0
		if !inDomain {
			return
		}
		// Same level.
		if n := m.Lookup(ni, nj, c.Level); n >= 0 {
			out.Cells[side][0] = n
			out.Counts[side] = 1
			return
		}
		// Coarser.
		if c.Level > 0 {
			if n := m.Lookup(ni>>1, nj>>1, c.Level-1); n >= 0 {
				out.Cells[side][0] = n
				out.Counts[side] = 1
				return
			}
		}
		// Two finer cells sharing the face.
		if int(c.Level) < m.maxLevel {
			var a, b int32
			switch side {
			case Left:
				a = m.Lookup(2*ni+1, 2*nj, c.Level+1)
				b = m.Lookup(2*ni+1, 2*nj+1, c.Level+1)
			case Right:
				a = m.Lookup(2*ni, 2*nj, c.Level+1)
				b = m.Lookup(2*ni, 2*nj+1, c.Level+1)
			case Bottom:
				a = m.Lookup(2*ni, 2*nj+1, c.Level+1)
				b = m.Lookup(2*ni+1, 2*nj+1, c.Level+1)
			case Top:
				a = m.Lookup(2*ni, 2*nj, c.Level+1)
				b = m.Lookup(2*ni+1, 2*nj, c.Level+1)
			}
			if a >= 0 && b >= 0 {
				out.Cells[side][0], out.Cells[side][1] = a, b
				out.Counts[side] = 2
				return
			}
		}
		// Unreachable on a consistent mesh; leave as boundary so a broken
		// mesh fails Validate rather than panicking mid-solve.
	}

	resolve(Left, c.I-1, c.J, c.I > 0)
	resolve(Right, c.I+1, c.J, c.I+1 < nx)
	resolve(Bottom, c.I, c.J-1, c.J > 0)
	resolve(Top, c.I, c.J+1, c.J+1 < ny)
	_ = ny
}

// Validate checks mesh invariants: exact single coverage of the domain,
// index consistency, and 2:1 balance. It returns the first violation found.
func (m *Mesh) Validate() error {
	// Index consistency: a duplicate leaf took over its twin's slot in the
	// table, so the twin fails its own Lookup.
	for idx, c := range m.cells {
		if m.Lookup(c.I, c.J, c.Level) != int32(idx) {
			return fmt.Errorf("mesh: index inconsistent for cell %d (%+v) (duplicate leaves?)", idx, c)
		}
		if c.Level < 0 || int(c.Level) > m.maxLevel {
			return fmt.Errorf("mesh: cell %d level %d out of range", idx, c.Level)
		}
		nx, ny := m.levelDims(c.Level)
		if c.I < 0 || c.I >= nx || c.J < 0 || c.J >= ny {
			return fmt.Errorf("mesh: cell %d (%+v) outside domain", idx, c)
		}
	}
	// Exact coverage in units of finest-level cells.
	var covered int64
	for _, c := range m.cells {
		scale := int64(1) << uint(2*(m.maxLevel-int(c.Level)))
		covered += scale
	}
	want := int64(m.coarseNX) * int64(m.coarseNY) << uint(2*m.maxLevel)
	if covered != want {
		return fmt.Errorf("mesh: covers %d finest cells, want %d (gap or overlap)", covered, want)
	}
	// No ancestor/descendant pairs both present (overlap), and 2:1 balance.
	for idx, c := range m.cells {
		for anc, lvl := c, c.Level; lvl > 0; {
			anc, lvl = anc.Parent(), lvl-1
			if m.Lookup(anc.I, anc.J, lvl) >= 0 {
				return fmt.Errorf("mesh: cell %d (%+v) overlaps ancestor %+v", idx, c, anc)
			}
		}
		nb := m.nbrs[idx]
		nx, ny := m.levelDims(c.Level)
		interior := [4]bool{c.I > 0, c.I+1 < nx, c.J > 0, c.J+1 < ny}
		for s := Left; s <= Top; s++ {
			if interior[s] && nb.Counts[s] == 0 {
				return fmt.Errorf("mesh: cell %d (%+v) has unresolved interior side %d (balance violated?)", idx, c, s)
			}
			for _, n := range nb.On(s) {
				diff := int(m.cells[n].Level) - int(c.Level)
				if diff < -1 || diff > 1 {
					return fmt.Errorf("mesh: cells %d and %d differ by %d levels", idx, n, diff)
				}
			}
		}
	}
	return nil
}

// MaxActiveLevel returns the deepest level present in the mesh.
func (m *Mesh) MaxActiveLevel() int8 {
	var lvl int8
	for _, c := range m.cells {
		if c.Level > lvl {
			lvl = c.Level
		}
	}
	return lvl
}

// ContainingCell returns the index of the leaf containing physical point
// (x, y), or -1 if the point lies outside the domain. Points on shared
// edges resolve to the cell whose half-open span contains them.
func (m *Mesh) ContainingCell(x, y float64) int32 {
	// Written so that a NaN coordinate is outside too: converted to a
	// cell index, it would be whatever the platform makes of it.
	if !(x >= m.bounds.XMin && x < m.bounds.XMax && y >= m.bounds.YMin && y < m.bounds.YMax) {
		return -1
	}
	fx := (x - m.bounds.XMin) / m.bounds.Width()
	fy := (y - m.bounds.YMin) / m.bounds.Height()
	for l := int8(m.maxLevel); l >= 0; l-- {
		nx, ny := m.levelDims(l)
		i := int32(fx * float64(nx))
		j := int32(fy * float64(ny))
		if i >= nx {
			i = nx - 1
		}
		if j >= ny {
			j = ny - 1
		}
		if idx := m.Lookup(i, j, l); idx >= 0 {
			return idx
		}
	}
	return -1
}

// Rasterize samples per-cell values onto a uniform nx × ny grid of pixel
// centers, row-major. Useful for line cuts and figure slices.
func (m *Mesh) Rasterize(values []float64, nx, ny int) ([]float64, error) {
	if len(values) != len(m.cells) {
		return nil, fmt.Errorf("mesh: %d values for %d cells", len(values), len(m.cells))
	}
	out := make([]float64, nx*ny)
	dx := m.bounds.Width() / float64(nx)
	dy := m.bounds.Height() / float64(ny)
	for j := 0; j < ny; j++ {
		y := m.bounds.YMin + (float64(j)+0.5)*dy
		for i := 0; i < nx; i++ {
			x := m.bounds.XMin + (float64(i)+0.5)*dx
			idx := m.ContainingCell(x, y)
			if idx < 0 {
				out[j*nx+i] = math.NaN()
				continue
			}
			out[j*nx+i] = values[idx]
		}
	}
	return out, nil
}
