package mesh

import "math/bits"

// The spatial hash, CLAMR's compact variant: one open-addressed []int32
// table keyed on a leaf's own (i, j, level), holding idx+1 of the leaf (0
// is empty), linear probing, at most half full. Its size follows the leaf
// count alone, so a deep max level that few leaves reach costs nothing.

// index builds the table of m.cells into fresh storage. A duplicate leaf
// takes over its twin's slot, so the twin fails its own Lookup.
func (m *Mesh) index() {
	m.table = make([]int32, 1<<bits.Len(uint(2*len(m.cells))))
	for idx, c := range m.cells {
		m.table[m.slot(c)] = int32(idx) + 1
	}
}

// slot returns the slot that holds c, or the empty slot where c would go.
func (m *Mesh) slot(c Cell) int {
	mask := uint64(len(m.table) - 1)
	k := (uint64(uint32(c.I))<<32 | uint64(uint32(c.J))) ^ uint64(c.Level)*0x9e3779b97f4a7c15
	p := (k * 0xff51afd7ed558ccd) >> (64 - bits.TrailingZeros(uint(len(m.table))))
	for ; ; p = (p + 1) & mask {
		if v := m.table[p]; v == 0 || m.cells[v-1] == c {
			return int(p)
		}
	}
}

// Lookup returns the index of the leaf (i, j, level), or -1.
func (m *Mesh) Lookup(i, j int32, level int8) int32 {
	return m.table[m.slot(Cell{I: i, J: j, Level: level})] - 1
}
