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
			pprime[n] = p00*s.powFn(rOverP00*C(s.q[iRhoT][n]), gamma) - s.pBar[zl]
		}
	}
	s.parClearRHS = func(lo, hi int) {
		for v := 0; v < nVars; v++ {
			clear(s.rhs[v][lo:hi])
		}
	}
	// Elements write disjoint rhs ranges; the flux scratch is per chunk.
	s.parElems = func(chunk, lo, hi int) {
		flux := s.elemScratch[chunk]
		pprime := s.scrP
		for e := lo; e < hi; e++ {
			s.elementRHS(e, pprime, flux)
		}
	}
	s.parFilter = func(chunk, lo, hi int) {
		buf, out := s.filterBuf[chunk], s.filterOut[chunk]
		for e := lo; e < hi; e++ {
			s.filterElement(e, buf, out)
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
				g[n] = a*g[n] + dt*r[n]
				q[n] = S(C(q[n]) + b*g[n])
			}
		}
	}
}

// elementRHS accumulates the volume, face and source terms of one element
// into s.rhs, using the caller-provided flux scratch (nVars × np³).
func (s *Solver[S, C]) elementRHS(e int, pprime, flux []C) {
	np := s.np
	np2, np3 := np*np, np*np*np
	fbuf := func(v int) []C { return flux[v*np3 : (v+1)*np3] }
	{
		base := e * np3
		ex, ey, ez := s.elemCoords(e)

		// --- Volume terms, one sweep per direction ---
		for dir := 0; dir < 3; dir++ {
			// Fill flux buffers F_dir(q) at every node.
			for loc := 0; loc < np3; loc++ {
				n := base + loc
				rho := C(s.q[iRho][n])
				ru := C(s.q[iRhoU][n])
				rv := C(s.q[iRhoV][n])
				rw := C(s.q[iRhoW][n])
				rt := C(s.q[iRhoT][n])
				pp := pprime[n]
				var vel C
				switch dir {
				case 0:
					vel = ru / rho
				case 1:
					vel = rv / rho
				default:
					vel = rw / rho
				}
				fbuf(iRho)[loc] = rho * vel
				fbuf(iRhoU)[loc] = ru * vel
				fbuf(iRhoV)[loc] = rv * vel
				fbuf(iRhoW)[loc] = rw * vel
				fbuf(iRhoT)[loc] = rt * vel
				switch dir {
				case 0:
					fbuf(iRhoU)[loc] += pp
				case 1:
					fbuf(iRhoV)[loc] += pp
				default:
					fbuf(iRhoW)[loc] += pp
				}
			}
			// Apply -J·D along dir for each variable.
			for v := 0; v < nVars; v++ {
				fb := fbuf(v)
				r := s.rhs[v]
				switch dir {
				case 0:
					for k := 0; k < np; k++ {
						for j := 0; j < np; j++ {
							line := j*np + k*np2
							for i := 0; i < np; i++ {
								var sum C
								drow := s.dmat[i*np : (i+1)*np]
								for m := 0; m < np; m++ {
									sum += drow[m] * fb[line+m]
								}
								r[base+line+i] -= s.jacoby * sum
							}
						}
					}
				case 1:
					for k := 0; k < np; k++ {
						for i := 0; i < np; i++ {
							line := i + k*np2
							for j := 0; j < np; j++ {
								var sum C
								drow := s.dmat[j*np : (j+1)*np]
								for m := 0; m < np; m++ {
									sum += drow[m] * fb[line+m*np]
								}
								r[base+line+j*np] -= s.jacoby * sum
							}
						}
					}
				default:
					for j := 0; j < np; j++ {
						for i := 0; i < np; i++ {
							line := i + j*np
							for k := 0; k < np; k++ {
								var sum C
								drow := s.dmat[k*np : (k+1)*np]
								for m := 0; m < np; m++ {
									sum += drow[m] * fb[line+m*np2]
								}
								r[base+line+k*np2] -= s.jacoby * sum
							}
						}
					}
				}
			}
		}

		// --- Face terms ---
		s.faceCorrections(e, ex, ey, ez, pprime)

		// --- Gravity source on vertical momentum ---
		for k := 0; k < np; k++ {
			zl := ez*s.np + k
			rb := s.rhoBar[zl]
			for j := 0; j < np; j++ {
				for i := 0; i < np; i++ {
					n := base + nodeIndex(np, i, j, k)
					s.rhs[iRhoW][n] -= C(Grav) * (C(s.q[iRho][n]) - rb)
				}
			}
		}
	}
}

// faceState gathers the conserved state and p' at a node.
type faceState[C any] struct {
	rho, ru, rv, rw, rt, pp, pbar C
}

// loadState reads node n.
func (s *Solver[S, C]) loadState(n int, pprime []C) faceState[C] {
	zl := s.zLevelOf(n)
	return faceState[C]{
		rho: C(s.q[iRho][n]), ru: C(s.q[iRhoU][n]), rv: C(s.q[iRhoV][n]),
		rw: C(s.q[iRhoW][n]), rt: C(s.q[iRhoT][n]),
		pp: pprime[n], pbar: s.pBar[zl],
	}
}

// mirror returns the reflective-wall ghost of q for face direction dir.
func mirror[C precision.Real](q faceState[C], dir int) faceState[C] {
	g := q
	switch dir {
	case 0:
		g.ru = -q.ru
	case 1:
		g.rv = -q.rv
	default:
		g.rw = -q.rw
	}
	return g
}

// rusanov computes the dir-direction Rusanov flux between two states.
// Momentum fluxes carry the perturbation pressure; the dissipation speed
// uses the full pressure (p' + p̄).
func rusanov[C precision.Real](qL, qR faceState[C], dir int) (f [nVars]C) {
	velL, velR := faceVel(qL, dir), faceVel(qR, dir)
	cL := C(math.Sqrt(float64(C(Gamma) * (qL.pp + qL.pbar) / qL.rho)))
	cR := C(math.Sqrt(float64(C(Gamma) * (qR.pp + qR.pbar) / qR.rho)))
	sm := precision.Abs(velL) + cL
	if s2 := precision.Abs(velR) + cR; s2 > sm {
		sm = s2
	}
	half := C(0.5)
	f[iRho] = half*(qL.rho*velL+qR.rho*velR) - half*sm*(qR.rho-qL.rho)
	f[iRhoU] = half*(qL.ru*velL+qR.ru*velR) - half*sm*(qR.ru-qL.ru)
	f[iRhoV] = half*(qL.rv*velL+qR.rv*velR) - half*sm*(qR.rv-qL.rv)
	f[iRhoW] = half*(qL.rw*velL+qR.rw*velR) - half*sm*(qR.rw-qL.rw)
	f[iRhoT] = half*(qL.rt*velL+qR.rt*velR) - half*sm*(qR.rt-qL.rt)
	switch dir {
	case 0:
		f[iRhoU] += half * (qL.pp + qR.pp)
	case 1:
		f[iRhoV] += half * (qL.pp + qR.pp)
	default:
		f[iRhoW] += half * (qL.pp + qR.pp)
	}
	return f
}

// physFlux computes the physical dir-direction flux of a state.
func physFlux[C precision.Real](q faceState[C], dir int) (f [nVars]C) {
	vel := faceVel(q, dir)
	f[iRho] = q.rho * vel
	f[iRhoU] = q.ru * vel
	f[iRhoV] = q.rv * vel
	f[iRhoW] = q.rw * vel
	f[iRhoT] = q.rt * vel
	switch dir {
	case 0:
		f[iRhoU] += q.pp
	case 1:
		f[iRhoV] += q.pp
	default:
		f[iRhoW] += q.pp
	}
	return f
}

func faceVel[C precision.Real](q faceState[C], dir int) C {
	switch dir {
	case 0:
		return q.ru / q.rho
	case 1:
		return q.rv / q.rho
	default:
		return q.rw / q.rho
	}
}

// faceCorrections applies the strong-form DG SAT terms on all six faces of
// element e.
func (s *Solver[S, C]) faceCorrections(e, ex, ey, ez int, pprime []C) {
	np := s.np
	np2 := np * np
	base := e * np * np2
	wEnd := C(s.weights[np-1]) // == weights[0] by symmetry
	w0 := C(s.weights[0])
	lift := s.jacoby / wEnd
	lift0 := s.jacoby / w0

	// dir 0: x faces.
	for face := 0; face < 2; face++ { // 0 = -x, 1 = +x
		for k := 0; k < np; k++ {
			for j := 0; j < np; j++ {
				var nIn, nOut int
				var qOut faceState[C]
				if face == 1 {
					nIn = base + nodeIndex(np, np-1, j, k)
					qIn := s.loadState(nIn, pprime)
					if ex+1 < s.ne {
						nOut = s.elemIndex(ex+1, ey, ez)*np*np2 + nodeIndex(np, 0, j, k)
						qOut = s.loadState(nOut, pprime)
					} else {
						qOut = mirror(qIn, 0)
					}
					fstar := rusanov(qIn, qOut, 0)
					fin := physFlux(qIn, 0)
					for v := 0; v < nVars; v++ {
						s.rhs[v][nIn] -= lift * (fstar[v] - fin[v])
					}
				} else {
					nIn = base + nodeIndex(np, 0, j, k)
					qIn := s.loadState(nIn, pprime)
					if ex > 0 {
						nOut = s.elemIndex(ex-1, ey, ez)*np*np2 + nodeIndex(np, np-1, j, k)
						qOut = s.loadState(nOut, pprime)
					} else {
						qOut = mirror(qIn, 0)
					}
					fstar := rusanov(qOut, qIn, 0)
					fin := physFlux(qIn, 0)
					for v := 0; v < nVars; v++ {
						s.rhs[v][nIn] += lift0 * (fstar[v] - fin[v])
					}
				}
			}
		}
	}

	// dir 1: y faces.
	for face := 0; face < 2; face++ {
		for k := 0; k < np; k++ {
			for i := 0; i < np; i++ {
				if face == 1 {
					nIn := base + nodeIndex(np, i, np-1, k)
					qIn := s.loadState(nIn, pprime)
					var qOut faceState[C]
					if ey+1 < s.ne {
						nOut := s.elemIndex(ex, ey+1, ez)*np*np2 + nodeIndex(np, i, 0, k)
						qOut = s.loadState(nOut, pprime)
					} else {
						qOut = mirror(qIn, 1)
					}
					fstar := rusanov(qIn, qOut, 1)
					fin := physFlux(qIn, 1)
					for v := 0; v < nVars; v++ {
						s.rhs[v][nIn] -= lift * (fstar[v] - fin[v])
					}
				} else {
					nIn := base + nodeIndex(np, i, 0, k)
					qIn := s.loadState(nIn, pprime)
					var qOut faceState[C]
					if ey > 0 {
						nOut := s.elemIndex(ex, ey-1, ez)*np*np2 + nodeIndex(np, i, np-1, k)
						qOut = s.loadState(nOut, pprime)
					} else {
						qOut = mirror(qIn, 1)
					}
					fstar := rusanov(qOut, qIn, 1)
					fin := physFlux(qIn, 1)
					for v := 0; v < nVars; v++ {
						s.rhs[v][nIn] += lift0 * (fstar[v] - fin[v])
					}
				}
			}
		}
	}

	// dir 2: z faces.
	for face := 0; face < 2; face++ {
		for j := 0; j < np; j++ {
			for i := 0; i < np; i++ {
				if face == 1 {
					nIn := base + nodeIndex(np, i, j, np-1)
					qIn := s.loadState(nIn, pprime)
					var qOut faceState[C]
					if ez+1 < s.ne {
						nOut := s.elemIndex(ex, ey, ez+1)*np*np2 + nodeIndex(np, i, j, 0)
						qOut = s.loadState(nOut, pprime)
					} else {
						qOut = mirror(qIn, 2)
					}
					fstar := rusanov(qIn, qOut, 2)
					fin := physFlux(qIn, 2)
					for v := 0; v < nVars; v++ {
						s.rhs[v][nIn] -= lift * (fstar[v] - fin[v])
					}
				} else {
					nIn := base + nodeIndex(np, i, j, 0)
					qIn := s.loadState(nIn, pprime)
					var qOut faceState[C]
					if ez > 0 {
						nOut := s.elemIndex(ex, ey, ez-1)*np*np2 + nodeIndex(np, i, j, np-1)
						qOut = s.loadState(nOut, pprime)
					} else {
						qOut = mirror(qIn, 2)
					}
					fstar := rusanov(qOut, qIn, 2)
					fin := physFlux(qIn, 2)
					for v := 0; v < nVars; v++ {
						s.rhs[v][nIn] += lift0 * (fstar[v] - fin[v])
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
// variable, using caller-provided scratch.
func (s *Solver[S, C]) filterElement(e int, buf, out []C) {
	np := s.np
	np2, np3 := np*np, np*np*np
	for v := 0; v < nVars; v++ {
		q := s.q[v]
		{
			base := e * np3
			for loc := 0; loc < np3; loc++ {
				buf[loc] = C(q[base+loc])
			}
			// x
			for k := 0; k < np; k++ {
				for j := 0; j < np; j++ {
					line := j*np + k*np2
					for i := 0; i < np; i++ {
						var sum C
						frow := s.filter[i*np : (i+1)*np]
						for m := 0; m < np; m++ {
							sum += frow[m] * buf[line+m]
						}
						out[line+i] = sum
					}
				}
			}
			// y
			for k := 0; k < np; k++ {
				for i := 0; i < np; i++ {
					line := i + k*np2
					for j := 0; j < np; j++ {
						var sum C
						frow := s.filter[j*np : (j+1)*np]
						for m := 0; m < np; m++ {
							sum += frow[m] * out[line+m*np]
						}
						buf[line+j*np] = sum
					}
				}
			}
			// z
			for j := 0; j < np; j++ {
				for i := 0; i < np; i++ {
					line := i + j*np
					for k := 0; k < np; k++ {
						var sum C
						frow := s.filter[k*np : (k+1)*np]
						for m := 0; m < np; m++ {
							sum += frow[m] * buf[line+m*np2]
						}
						out[line+k*np2] = sum
					}
				}
			}
			for loc := 0; loc < np3; loc++ {
				q[base+loc] = S(out[loc])
			}
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
