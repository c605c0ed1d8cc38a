package self

import (
	"math"

	"repro/internal/f32math"
	"repro/internal/metrics"
	"repro/internal/precision"
)

// setupMath binds the transcendental dispatch for the (compute type,
// MathMode) pair. For float64 compute both modes use the double-precision
// libm. For float32 compute, MathNative uses the single-precision kernels
// of internal/f32math (Intel profile); MathPromoted round-trips through the
// float64 libm with conversion accounting (GNU profile).
func (s *Solver[S, C]) setupMath() {
	if precision.Sizeof[C]() == 8 {
		s.powFn = func(x, y C) C { return C(math.Pow(float64(x), float64(y))) }
		s.powConvs = 0
		return
	}
	if s.cfg.MathMode == MathNative {
		s.powFn = func(x, y C) C { return C(f32math.Pow(float32(x), float32(y))) }
		s.powConvs = 0
		return
	}
	s.powFn = func(x, y C) C { return C(float32(math.Pow(float64(x), float64(y)))) }
	s.powConvs = 2
}

// zLevelOf maps a global node index to its global z-level index.
func (s *Solver[S, C]) zLevelOf(n int) int {
	np3 := s.np * s.np * s.np
	e := n / np3
	ez := e / (s.ne * s.ne)
	k := (n % np3) / (s.np * s.np)
	return ez*s.np + k
}

// computeRHS evaluates the DGSEM right-hand side into s.rhs.
//
// Every pass is element- or node-disjoint, so with cfg.Workers > 1 the
// passes run fork-join parallel over fixed contiguous chunks and the
// result is bit-identical to the serial sweep at any worker count. All
// passes dispatch prebound kernels on the persistent pool with persistent
// per-chunk scratch, so an RHS evaluation allocates nothing.
//
// Every product in this file that feeds an add or subtract is rounded by an
// explicit conversion (C(a*b)), which the Go spec says a target may not
// fuse into a multiply-add, so the RHS has the same bits on every
// architecture; `make fma-check` guards it.
func (s *Solver[S, C]) computeRHS() {
	workers := s.cfg.Workers
	s.pool.ForN(workers, s.nNodes, s.parPressure)
	s.pool.ForN(workers, s.nNodes, s.parClearRHS)
	s.pool.ForChunks(workers, s.ne*s.ne*s.ne, s.parElems)
	s.accountRHS()
}

// bindKernels creates the parallel kernel closures once; they capture only
// the solver, reading per-dispatch parameters (the RK coefficients, the
// chunk scratch) through it, so repeated dispatch allocates nothing.
func (s *Solver[S, C]) bindKernels() {
	// Perturbation pressure p' = p00·(R·ρθ/p00)^γ − p̄ at every node. The
	// full pressure enters only through the sound speed; the momentum
	// fluxes use p' so the hydrostatic background is discretely balanced.
	s.parPressure = func(lo, hi int) {
		pprime := s.scrP
		rOverP00 := C(RGas / P00)
		gamma := C(Gamma)
		p00 := C(P00)
		for n := lo; n < hi; n++ {
			zl := s.zLevelOf(n)
			pprime[n] = C(p00*s.powFn(rOverP00*C(s.q[iRhoT][n]), gamma)) - s.pBar[zl]
		}
	}
	s.parClearRHS = func(lo, hi int) {
		for v := 0; v < nVars; v++ {
			clear(s.rhs[v][lo:hi])
		}
	}
	// Elements write disjoint rhs ranges; the scratch is per chunk.
	s.parElems = func(chunk, lo, hi int) {
		for e := lo; e < hi; e++ {
			s.elementRHS(e, s.scrP, s.scratch[chunk])
		}
	}
	s.parFilter = func(chunk, lo, hi int) {
		for e := lo; e < hi; e++ {
			s.filterElement(e, s.scratch[chunk])
		}
	}
	// Low-storage RK update, fused over all variables (per-node ranges, so
	// chunk boundaries and per-element arithmetic match the per-variable
	// form bit for bit).
	s.parRK = func(lo, hi int) {
		a, b, dt := s.rkA, s.rkB, s.rkDT
		for v := 0; v < nVars; v++ {
			g, r, q := s.g[v], s.rhs[v], s.q[v]
			for n := lo; n < hi; n++ {
				g[n] = C(a*g[n]) + C(dt*r[n])
				q[n] = S(C(q[n]) + C(b*g[n]))
			}
		}
	}
}

// elementRHS accumulates the volume, face and source terms of one element
// into s.rhs, using the chunk's scratch: nVars flux tensors and one
// derivative tensor, np³ each.
func (s *Solver[S, C]) elementRHS(e int, pprime, scratch []C) {
	np := s.np
	np2, np3 := np*np, np*np*np
	base := e * np3
	flux, deriv := scratch[:nVars*np3], scratch[nVars*np3:(nVars+1)*np3]

	// Volume terms: fill F_dir(q) at every node, then apply -J·D along
	// dir, so every rhs entry takes its three volume terms in dir order.
	for dir := 0; dir < 3; dir++ {
		for loc := 0; loc < np3; loc++ {
			n := base + loc
			vel := C(s.q[iRhoU+dir][n]) / C(s.q[iRho][n])
			for v := 0; v < nVars; v++ {
				flux[v*np3+loc] = C(C(s.q[v][n]) * vel)
			}
			flux[(iRhoU+dir)*np3+loc] += pprime[n]
		}
		for v := 0; v < nVars; v++ {
			contract(np, dir, s.dmat, flux[v*np3:(v+1)*np3], deriv)
			r := s.rhs[v][base : base+np3]
			for loc, d := range deriv {
				r[loc] -= C(s.jacoby * d)
			}
		}
	}

	s.faceCorrections(e, pprime)

	// Gravity source on vertical momentum.
	ez := e / (s.ne * s.ne)
	rw, rho := s.rhs[iRhoW][base:base+np3], s.q[iRho][base:base+np3]
	for k := 0; k < np; k++ {
		rb := s.rhoBar[ez*np+k]
		for loc := k * np2; loc < (k+1)*np2; loc++ {
			rw[loc] -= C(C(Grav) * (C(rho[loc]) - rb))
		}
	}
}

// contract applies the np×np matrix mat along direction dir of the np³
// tensor in: out[node] = Σ_m mat[d·np+m]·in[line+m·stride], where d is the
// node's index along dir and line its index with that coordinate zeroed.
// Each sum starts from zero and takes m in ascending order, and every
// product is rounded before it is added, so no target fuses a multiply-add
// and the bits are the same on every architecture.
func contract[C precision.Real](np, dir int, mat, in, out []C) {
	stride := 1
	for ; dir > 0; dir-- {
		stride *= np
	}
	span := stride * np
	for block := 0; block < np*np*np; block += span {
		for line := block; line < block+stride; line++ {
			for d := 0; d < np; d++ {
				row := mat[d*np : (d+1)*np]
				var sum C
				for m, a := range row {
					sum += C(a * in[line+m*stride])
				}
				out[line+d*stride] = sum
			}
		}
	}
}

// faceState gathers the conserved state, p' and p̄ at a node.
type faceState[C any] struct {
	q        [nVars]C
	pp, pbar C
}

// loadState reads node n.
func (s *Solver[S, C]) loadState(n int, pprime []C) faceState[C] {
	q := &s.q
	return faceState[C]{
		q:  [nVars]C{C(q[iRho][n]), C(q[iRhoU][n]), C(q[iRhoV][n]), C(q[iRhoW][n]), C(q[iRhoT][n])},
		pp: pprime[n], pbar: s.pBar[s.zLevelOf(n)],
	}
}

// mirror returns the reflective-wall ghost of q for face direction dir.
func mirror[C precision.Real](q faceState[C], dir int) faceState[C] {
	q.q[iRhoU+dir] = -q.q[iRhoU+dir]
	return q
}

// rusanov computes the dir-direction Rusanov flux between two states.
// Momentum fluxes carry the perturbation pressure; the dissipation speed
// uses the full pressure (p' + p̄).
func rusanov[C precision.Real](qL, qR faceState[C], dir int) (f [nVars]C) {
	velL, velR := faceVel(qL, dir), faceVel(qR, dir)
	cL := C(math.Sqrt(float64(C(Gamma) * (qL.pp + qL.pbar) / qL.q[iRho])))
	cR := C(math.Sqrt(float64(C(Gamma) * (qR.pp + qR.pbar) / qR.q[iRho])))
	sm := precision.Abs(velL) + cL
	if s2 := precision.Abs(velR) + cR; s2 > sm {
		sm = s2
	}
	half := C(0.5)
	for v := range f {
		f[v] = C(half*(C(qL.q[v]*velL)+C(qR.q[v]*velR))) - C(half*sm*(qR.q[v]-qL.q[v]))
	}
	f[iRhoU+dir] += C(half * (qL.pp + qR.pp))
	return f
}

// physFlux computes the physical dir-direction flux of a state.
func physFlux[C precision.Real](q faceState[C], dir int) (f [nVars]C) {
	vel := faceVel(q, dir)
	for v := range f {
		f[v] = C(q.q[v] * vel)
	}
	f[iRhoU+dir] += q.pp
	return f
}

func faceVel[C precision.Real](q faceState[C], dir int) C {
	return q.q[iRhoU+dir] / q.q[iRho]
}

// faceCorrections applies the strong-form DG SAT terms on the six faces of
// element e in the order −x, +x, −y, +y, −z, +z, so a node on an edge or
// corner takes its face terms in that order.
func (s *Solver[S, C]) faceCorrections(e int, pprime []C) {
	np := s.np
	np3 := np * np * np
	nodeStride := [3]int{1, np, np * np}
	elemStride := [3]int{1, s.ne, s.ne * s.ne}
	// The face's two transverse node strides, inner first.
	transverse := [3][2]int{{np, np * np}, {1, np * np}, {1, np}}
	for dir := 0; dir < 3; dir++ {
		ec := e / elemStride[dir] % s.ne
		for face := 0; face < 2; face++ {
			plus := face == 1
			// Node coordinate along dir on this face and on the
			// neighbour's facing face.
			in, out, nb, hasNb := 0, np-1, e-elemStride[dir], ec > 0
			if plus {
				in, out, nb, hasNb = np-1, 0, e+elemStride[dir], ec+1 < s.ne
			}
			lift := s.jacoby / C(s.weights[in])
			tA, tB := transverse[dir][0], transverse[dir][1]
			for b := 0; b < np; b++ {
				for a := 0; a < np; a++ {
					t := a*tA + b*tB
					nIn := e*np3 + t + in*nodeStride[dir]
					qIn := s.loadState(nIn, pprime)
					var qOut faceState[C]
					if hasNb {
						qOut = s.loadState(nb*np3+t+out*nodeStride[dir], pprime)
					} else {
						qOut = mirror(qIn, dir)
					}
					qL, qR := qOut, qIn
					if plus {
						qL, qR = qIn, qOut
					}
					fstar := rusanov(qL, qR, dir)
					fin := physFlux(qIn, dir)
					for v := range fstar {
						d := C(lift * (fstar[v] - fin[v]))
						if plus {
							s.rhs[v][nIn] -= d
						} else {
							s.rhs[v][nIn] += d
						}
					}
				}
			}
		}
	}
}

// applyFilter runs the modal cutoff filter over every variable, tensor
// direction by direction, reading and writing the storage arrays.
// Elements are independent, so the sweep parallelises with persistent
// per-chunk scratch and stays bit-deterministic.
func (s *Solver[S, C]) applyFilter() {
	np := s.np
	nElems := s.ne * s.ne * s.ne
	s.pool.ForChunks(s.cfg.Workers, nElems, s.parFilter)
	nodes := uint64(s.nNodes)
	s.counters.AddFlops(precision.Sizeof[C](), nodes*nVars*3*2*uint64(np))
	s.counters.Add(metrics.Counters{
		LoadBytes:  nodes * nVars * uint64(precision.Sizeof[S]()),
		StoreBytes: nodes * nVars * uint64(precision.Sizeof[S]()),
	})
}

// filterElement applies the tensor-product filter to one element of every
// variable, ping-ponging between two np³ tensors of the chunk's scratch.
func (s *Solver[S, C]) filterElement(e int, scratch []C) {
	np := s.np
	np3 := np * np * np
	a, b := scratch[:np3], scratch[np3:2*np3]
	for v := 0; v < nVars; v++ {
		q := s.q[v][e*np3 : (e+1)*np3]
		for loc, x := range q {
			a[loc] = C(x)
		}
		contract(np, 0, s.filter, a, b)
		contract(np, 1, s.filter, b, a)
		contract(np, 2, s.filter, a, b)
		for loc, x := range b {
			q[loc] = S(x)
		}
	}
}

// accountRHS records the analytic operation tally of one RHS evaluation.
func (s *Solver[S, C]) accountRHS() {
	nodes := uint64(s.nNodes)
	np := uint64(s.np)
	faceNodes := uint64(s.ne*s.ne*s.ne) * 6 * np * np
	sw, cw := precision.Sizeof[S](), precision.Sizeof[C]()
	c := &s.counters

	// EOS pass: one pow (≈transcendental) + 4 flops per node.
	c.AddTranscendental(cw, nodes)
	c.AddFlops(cw, nodes*4)
	c.Conversions += nodes * s.powConvs
	// Volume: flux fill ≈ 12 flops/node/dir; derivative 2·np MACs per
	// node per dir per variable.
	c.AddFlops(cw, nodes*3*12+nodes*3*nVars*2*np)
	// Faces: gather + Rusanov ≈ 60 flops and 2 sqrt per face node pair,
	// plus 5-variable lifting.
	c.AddFlops(cw, faceNodes*70)
	c.AddTranscendental(cw, faceNodes*2)
	// Source + zeroing.
	c.AddFlops(cw, nodes*3)
	// Traffic: state is read for EOS, three flux fills and faces, written
	// once by the RK update (counted there as part of this stage).
	c.Add(metrics.Counters{
		LoadBytes:      (nodes*nVars*4 + faceNodes*nVars) * uint64(sw),
		StoreBytes:     nodes * nVars * uint64(cw),
		KernelLaunches: 1,
	})
	// Mixed-style promotion traffic (S ≠ C).
	c.AddConversions(sw, cw, nodes*nVars*4)
}
