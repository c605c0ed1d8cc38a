package clamr

import (
	"math"

	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/precision"
)

// faceList is the SoA connectivity the face-centric kernel sweeps over.
// Each interior face appears exactly once, emitted by its finer (or
// left/bottom, at equal level) cell, so the face length is the emitter's
// transverse cell size. Boundary faces are kept separately.
type faceList[C precision.Real] struct {
	// Interior x-faces: xl is the cell on the -x side, xr on the +x side.
	xl, xr []int32
	xlen   []C
	// Interior y-faces: yb on the -y side, yt on the +y side.
	yb, yt []int32
	ylen   []C
	// Boundary faces (reflective walls).
	bCell []int32
	bSide []mesh.Side
	bLen  []C
	// Per-cell inverse area at compute precision.
	invArea []C
	// shared marks arrays that belong to a construction template, read by
	// every solver copied from it: rebuild must not write them.
	shared bool
}

// rebuild re-enumerates every face of the mesh exactly once, appending into
// the list's existing backing arrays (resliced to zero length first), so a
// rebuild after an adaptation that did not grow the mesh allocates nothing.
// A shared list first lets go of its arrays, so its rebuild allocates
// fresh ones the solver then owns; a list without arrays gets them sized
// exactly first (presize), rather than regrown face by face.
//
// Emission rule per cell i and neighbor n: Right/Top sides emit when
// level(i) ≥ level(n); Left/Bottom sides emit when level(i) > level(n).
// Same-level faces are emitted by the left/bottom cell; coarse–fine faces
// by the fine cell. Sides with no neighbor are domain boundary.
func (fl *faceList[C]) rebuild(m *mesh.Mesh) {
	if fl.shared {
		*fl = faceList[C]{}
	}
	if cap(fl.xl) == 0 {
		fl.presize(m)
	}
	n := m.NumCells()
	fl.invArea = growSlice(fl.invArea, n)
	fl.xl, fl.xr, fl.xlen = fl.xl[:0], fl.xr[:0], fl.xlen[:0]
	fl.yb, fl.yt, fl.ylen = fl.yb[:0], fl.yt[:0], fl.ylen[:0]
	fl.bCell, fl.bSide, fl.bLen = fl.bCell[:0], fl.bSide[:0], fl.bLen[:0]
	for i := 0; i < n; i++ {
		fl.invArea[i] = C(1 / m.Area(i))
		c := m.Cell(i)
		dx, dy := m.CellSize(c.Level)
		nb := m.Neighbors(i)
		for side := mesh.Left; side <= mesh.Top; side++ {
			neighbors := nb.On(side)
			if len(neighbors) == 0 {
				fl.bCell = append(fl.bCell, int32(i))
				fl.bSide = append(fl.bSide, side)
				if side == mesh.Left || side == mesh.Right {
					fl.bLen = append(fl.bLen, C(dy))
				} else {
					fl.bLen = append(fl.bLen, C(dx))
				}
				continue
			}
			for _, nIdx := range neighbors {
				nLevel := m.Cell(int(nIdx)).Level
				switch side {
				case mesh.Right:
					if c.Level >= nLevel {
						fl.xl = append(fl.xl, int32(i))
						fl.xr = append(fl.xr, nIdx)
						fl.xlen = append(fl.xlen, C(dy))
					}
				case mesh.Left:
					if c.Level > nLevel {
						fl.xl = append(fl.xl, nIdx)
						fl.xr = append(fl.xr, int32(i))
						fl.xlen = append(fl.xlen, C(dy))
					}
				case mesh.Top:
					if c.Level >= nLevel {
						fl.yb = append(fl.yb, int32(i))
						fl.yt = append(fl.yt, nIdx)
						fl.ylen = append(fl.ylen, C(dx))
					}
				case mesh.Bottom:
					if c.Level > nLevel {
						fl.yb = append(fl.yb, nIdx)
						fl.yt = append(fl.yt, int32(i))
						fl.ylen = append(fl.ylen, C(dx))
					}
				}
			}
		}
	}
}

// presize gives the face arrays the exact capacity m's faces need, counted
// from neighbor counts alone: every interior x-face is some cell's
// Right-side adjacency, listed once there whichever cell emits it, and
// likewise every y-face is a Top-side one; a side with no neighbor is one
// boundary face. Only an empty list takes this pass: one that owns arrays
// keeps append's slack for a mesh that grows round by round.
func (fl *faceList[C]) presize(m *mesh.Mesh) {
	var nx, ny, nb int
	for i := 0; i < m.NumCells(); i++ {
		counts := &m.Neighbors(i).Counts
		nx += int(counts[mesh.Right])
		ny += int(counts[mesh.Top])
		for _, c := range counts {
			if c == 0 {
				nb++
			}
		}
	}
	fl.xl, fl.xr, fl.xlen = make([]int32, 0, nx), make([]int32, 0, nx), make([]C, 0, nx)
	fl.yb, fl.yt, fl.ylen = make([]int32, 0, ny), make([]int32, 0, ny), make([]C, 0, ny)
	fl.bCell, fl.bSide, fl.bLen = make([]int32, 0, nb), make([]mesh.Side, 0, nb), make([]C, 0, nb)
}

// rusanovX computes the x-direction Rusanov numerical flux between left and
// right conserved states at compute precision. dry floors the velocity
// divisions: a subnormal-but-positive height cannot blow up hu/h, while any
// wet cell (h ≥ dry) divides by its exact height, so results on wet states
// are bit-identical to an unguarded kernel. Pressure terms always use the
// true height. dry = 0 disables the guard.
func rusanovX[C precision.Real](g, dry, hL, huL, hvL, hR, huR, hvR C) (fh, fhu, fhv C) {
	dL, dR := hL, hR
	if dL < dry {
		dL = dry
	}
	if dR < dry {
		dR = dry
	}
	uL := huL / dL
	vL := hvL / dL
	uR := huR / dR
	vR := hvR / dR
	cL := C(math.Sqrt(float64(g * hL)))
	cR := C(math.Sqrt(float64(g * hR)))
	s := precision.Abs(uL) + cL
	if sr := precision.Abs(uR) + cR; sr > s {
		s = sr
	}
	half := C(0.5)
	pL := half * g * hL * hL
	pR := half * g * hR * hR
	fh = half*(huL+huR) - half*s*(hR-hL)
	fhu = half*(huL*uL+pL+huR*uR+pR) - half*s*(huR-huL)
	fhv = half*(huL*vL+huR*vR) - half*s*(hvR-hvL)
	return fh, fhu, fhv
}

// rusanovY is the y-direction counterpart of rusanovX (same dry floor).
func rusanovY[C precision.Real](g, dry, hB, huB, hvB, hT, huT, hvT C) (fh, fhu, fhv C) {
	dB, dT := hB, hT
	if dB < dry {
		dB = dry
	}
	if dT < dry {
		dT = dry
	}
	uB := huB / dB
	vB := hvB / dB
	uT := huT / dT
	vT := hvT / dT
	cB := C(math.Sqrt(float64(g * hB)))
	cT := C(math.Sqrt(float64(g * hT)))
	s := precision.Abs(vB) + cB
	if st := precision.Abs(vT) + cT; st > s {
		s = st
	}
	half := C(0.5)
	pB := half * g * hB * hB
	pT := half * g * hT * hT
	fh = half*(hvB+hvT) - half*s*(hT-hB)
	fhu = half*(hvB*uB+hvT*uT) - half*s*(huT-huB)
	fhv = half*(hvB*vB+pB+hvT*vT+pT) - half*s*(hvT-hvB)
	return fh, fhu, fhv
}

// wallFluxX is the reflective-wall x-flux for a cell state: only the
// momentum (pressure + dissipation) component is nonzero, so walls conserve
// mass exactly. n is the outward normal (+1 right wall, -1 left wall); the
// Rusanov dissipation term flips sign with it because the mirrored ghost
// sits on opposite sides.
func wallFluxX[C precision.Real](g, dry, h, hu, n C) (fhu C) {
	d := h
	if d < dry {
		d = dry
	}
	u := hu / d
	c := C(math.Sqrt(float64(g * h)))
	s := precision.Abs(u) + c
	return hu*u + C(0.5)*g*h*h + n*s*hu
}

// wallFluxY is the reflective-wall y-flux; n is the outward normal
// (+1 top wall, -1 bottom wall).
func wallFluxY[C precision.Real](g, dry, h, hv, n C) (fhv C) {
	d := h
	if d < dry {
		d = dry
	}
	v := hv / d
	c := C(math.Sqrt(float64(g * h)))
	s := precision.Abs(v) + c
	return hv*v + C(0.5)*g*h*h + n*s*hv
}

// Analytic per-sweep operation counts for the instrumentation (see package
// metrics): flop tallies of the flux/update expressions above.
const (
	flopsPerInteriorFlux = 30 // divides, abs/max, blending — sqrt counted separately
	flopsPerWallFlux     = 8
	flopsPerCellUpdate   = 9
	sqrtPerInteriorFlux  = 2
	sqrtPerWallFlux      = 1
)

// finiteDiffFace is the "vectorized" finite-difference sweep: face-centric,
// SoA gathers, one flux evaluation per interior face, scattered to the two
// cells the face separates. This is the profile the paper obtains by adding
// SIMD pragmas to CLAMR's finite_diff loop.
//
// The sweep is serial at every Workers value. A cell's RHS is a sum of
// rounded face contributions, so the order faces are visited in is part of
// the result; these loops are the one place that order is defined.
func (s *Solver[S, C]) finiteDiffFace(dt C) {
	g := C(s.cfg.Gravity)
	dry := s.dry
	fl := &s.faces
	clear(s.dh)
	clear(s.dhu)
	clear(s.dhv)

	for k := range fl.xl {
		l, r := fl.xl[k], fl.xr[k]
		fh, fhu, fhv := rusanovX(g, dry, C(s.h[l]), C(s.hu[l]), C(s.hv[l]), C(s.h[r]), C(s.hu[r]), C(s.hv[r]))
		w := fl.xlen[k]
		s.dh[l] -= S(fh * w)
		s.dhu[l] -= S(fhu * w)
		s.dhv[l] -= S(fhv * w)
		s.dh[r] += S(fh * w)
		s.dhu[r] += S(fhu * w)
		s.dhv[r] += S(fhv * w)
	}
	for k := range fl.yb {
		b, tp := fl.yb[k], fl.yt[k]
		fh, fhu, fhv := rusanovY(g, dry, C(s.h[b]), C(s.hu[b]), C(s.hv[b]), C(s.h[tp]), C(s.hu[tp]), C(s.hv[tp]))
		w := fl.ylen[k]
		s.dh[b] -= S(fh * w)
		s.dhu[b] -= S(fhu * w)
		s.dhv[b] -= S(fhv * w)
		s.dh[tp] += S(fh * w)
		s.dhu[tp] += S(fhu * w)
		s.dhv[tp] += S(fhv * w)
	}
	for k := range fl.bCell {
		i := fl.bCell[k]
		w := fl.bLen[k]
		switch fl.bSide[k] {
		case mesh.Left:
			s.dhu[i] += S(wallFluxX(g, dry, C(s.h[i]), C(s.hu[i]), -1) * w)
		case mesh.Right:
			s.dhu[i] -= S(wallFluxX(g, dry, C(s.h[i]), C(s.hu[i]), 1) * w)
		case mesh.Bottom:
			s.dhv[i] += S(wallFluxY(g, dry, C(s.h[i]), C(s.hv[i]), -1) * w)
		case mesh.Top:
			s.dhv[i] -= S(wallFluxY(g, dry, C(s.h[i]), C(s.hv[i]), 1) * w)
		}
	}

	n := s.mesh.NumCells()
	s.curDT = dt
	s.update(0, n)

	s.accountSweep(uint64(len(fl.xl)+len(fl.yb)), uint64(len(fl.bCell)), uint64(n), 1)
}

// finiteDiffCell is the "unvectorized" cell-centric sweep: every cell
// gathers its neighbors through the adjacency cache and evaluates its own
// face fluxes, so each interior flux is computed twice — the scalar profile
// of CLAMR's original finite_diff loop.
func (s *Solver[S, C]) finiteDiffCell(dt C) {
	n := s.mesh.NumCells()
	s.curDT = dt
	s.pool.ForN(s.cfg.Workers, n, s.parCell)
	s.pool.ForN(s.cfg.Workers, n, s.parUpdate)

	// Cell-centric recomputes each interior flux from both sides.
	s.accountSweep(2*uint64(len(s.faces.xl)+len(s.faces.yb)), uint64(len(s.faces.bCell)), uint64(n), 1)
}

// cellRHS gathers cell i's neighbors and accumulates its full RHS —
// writes only index i, so cells sweep in parallel safely.
func (s *Solver[S, C]) cellRHS(m *mesh.Mesh, g C, i int) {
	{
		c := m.Cell(i)
		dx, dy := m.CellSize(c.Level)
		nb := m.Neighbors(i)
		dry := s.dry
		hi := C(s.h[i])
		hui := C(s.hu[i])
		hvi := C(s.hv[i])
		var dh, dhu, dhv C

		faceLen := func(nIdx int32, transverse float64) C {
			nLevel := m.Cell(int(nIdx)).Level
			if nLevel > c.Level {
				return C(transverse / 2)
			}
			return C(transverse)
		}

		if ns := nb.On(mesh.Left); len(ns) == 0 {
			dhu += wallFluxX(g, dry, hi, hui, -1) * C(dy)
		} else {
			for _, nIdx := range ns {
				w := faceLen(nIdx, dy)
				fh, fhu, fhv := rusanovX(g, dry, C(s.h[nIdx]), C(s.hu[nIdx]), C(s.hv[nIdx]), hi, hui, hvi)
				dh += fh * w
				dhu += fhu * w
				dhv += fhv * w
			}
		}
		if ns := nb.On(mesh.Right); len(ns) == 0 {
			dhu -= wallFluxX(g, dry, hi, hui, 1) * C(dy)
		} else {
			for _, nIdx := range ns {
				w := faceLen(nIdx, dy)
				fh, fhu, fhv := rusanovX(g, dry, hi, hui, hvi, C(s.h[nIdx]), C(s.hu[nIdx]), C(s.hv[nIdx]))
				dh -= fh * w
				dhu -= fhu * w
				dhv -= fhv * w
			}
		}
		if ns := nb.On(mesh.Bottom); len(ns) == 0 {
			dhv += wallFluxY(g, dry, hi, hvi, -1) * C(dx)
		} else {
			for _, nIdx := range ns {
				w := faceLen(nIdx, dx)
				fh, fhu, fhv := rusanovY(g, dry, C(s.h[nIdx]), C(s.hu[nIdx]), C(s.hv[nIdx]), hi, hui, hvi)
				dh += fh * w
				dhu += fhu * w
				dhv += fhv * w
			}
		}
		if ns := nb.On(mesh.Top); len(ns) == 0 {
			dhv -= wallFluxY(g, dry, hi, hvi, 1) * C(dx)
		} else {
			for _, nIdx := range ns {
				w := faceLen(nIdx, dx)
				fh, fhu, fhv := rusanovY(g, dry, hi, hui, hvi, C(s.h[nIdx]), C(s.hu[nIdx]), C(s.hv[nIdx]))
				dh -= fh * w
				dhu -= fhu * w
				dhv -= fhv * w
			}
		}

		s.dh[i], s.dhu[i], s.dhv[i] = S(dh), S(dhu), S(dhv)
	}
}

// accountSweep records the analytic tally of one finite-difference sweep.
func (s *Solver[S, C]) accountSweep(fluxEvals, wallEvals, cells, launches uint64) {
	sw, cw := precision.Sizeof[S](), precision.Sizeof[C]()
	s.counters.AddFlops(cw, fluxEvals*flopsPerInteriorFlux+wallEvals*flopsPerWallFlux+cells*flopsPerCellUpdate)
	s.counters.AddTranscendental(cw, fluxEvals*sqrtPerInteriorFlux+wallEvals*sqrtPerWallFlux)
	s.counters.Add(metrics.Counters{
		LoadBytes:      (fluxEvals*6 + wallEvals*2 + cells*3) * uint64(sw),
		StoreBytes:     cells * 6 * uint64(sw),
		KernelLaunches: launches,
	})
	s.counters.AddConversions(sw, cw, fluxEvals*6+wallEvals*2+cells*6)
}
