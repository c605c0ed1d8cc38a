package self

import (
	"fmt"
	"io"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/reduce"
	"repro/internal/spectral"
)

// Field identifies a diagnostic quantity for sampling.
type Field int

const (
	// FieldDensity is the full density ρ.
	FieldDensity Field = iota
	// FieldDensityAnomaly is ρ − ρ̄(z), the quantity of the paper's Fig 4.
	FieldDensityAnomaly
	// FieldTheta is the potential temperature θ = ρθ/ρ.
	FieldTheta
	// FieldThetaAnomaly is θ − θ0.
	FieldThetaAnomaly
	// FieldW is the vertical velocity.
	FieldW
)

// rhoBarAt evaluates the analytic hydrostatic density at height z.
func rhoBarAt(z float64) float64 {
	pi := 1 - Grav*z/(Cp*Theta0)
	return P00 / (RGas * Theta0) * math.Pow(pi, Cv/RGas)
}

// Sample interpolates the field at physical point (x, y, z) using the full
// tensor-product Lagrange basis of the containing element (float64
// arithmetic; sampling is diagnostics, not simulation).
func (s *Solver[S, C]) Sample(f Field, x, y, z float64) (float64, error) {
	L := s.cfg.Domain
	if x < 0 || x > L || y < 0 || y > L || z < 0 || z > L {
		return 0, fmt.Errorf("self: sample point (%g,%g,%g) outside [0,%g]³", x, y, z, L)
	}
	locate := func(c float64) (int, float64) {
		e := int(c / s.elemDX)
		if e >= s.ne {
			e = s.ne - 1
		}
		xi := 2*(c/s.elemDX-float64(e)) - 1
		return e, xi
	}
	ex, xiX := locate(x)
	ey, xiY := locate(y)
	ez, xiZ := locate(z)

	lx := lagrangeRow(s.nodes, xiX)
	ly := lagrangeRow(s.nodes, xiY)
	lz := lagrangeRow(s.nodes, xiZ)

	base := s.elemIndex(ex, ey, ez) * s.np * s.np * s.np
	interp := func(arr []S) float64 {
		var sum float64
		for k := 0; k < s.np; k++ {
			var planeSum float64
			for j := 0; j < s.np; j++ {
				var lineSum float64
				row := base + j*s.np + k*s.np*s.np
				for i := 0; i < s.np; i++ {
					lineSum += lx[i] * float64(arr[row+i])
				}
				planeSum += ly[j] * lineSum
			}
			sum += lz[k] * planeSum
		}
		return sum
	}

	switch f {
	case FieldDensity:
		return interp(s.q[iRho]), nil
	case FieldDensityAnomaly:
		return interp(s.q[iRho]) - rhoBarAt(z), nil
	case FieldTheta:
		rho := interp(s.q[iRho])
		return interp(s.q[iRhoT]) / rho, nil
	case FieldThetaAnomaly:
		rho := interp(s.q[iRho])
		return interp(s.q[iRhoT])/rho - Theta0, nil
	case FieldW:
		rho := interp(s.q[iRho])
		return interp(s.q[iRhoW]) / rho, nil
	default:
		return 0, fmt.Errorf("self: unknown field %d", f)
	}
}

// lagrangeRow evaluates all Lagrange cardinal functions at ξ.
func lagrangeRow(nodes []float64, xi float64) []float64 {
	im := spectral.InterpolationMatrix(nodes, []float64{xi})
	return im.Data
}

// LineX samples the field at n points along the x line through the bubble
// center (y = center_y, z = center_z), returning positions and values.
func (s *Solver[S, C]) LineX(f Field, n int) (xs, vals []float64, err error) {
	xs = make([]float64, n)
	vals = make([]float64, n)
	y := s.cfg.BubbleCenter[1]
	z := s.cfg.BubbleCenter[2]
	L := s.cfg.Domain
	for i := 0; i < n; i++ {
		x := (float64(i) + 0.5) / float64(n) * L
		v, err := s.Sample(f, x, y, z)
		if err != nil {
			return nil, nil, err
		}
		xs[i] = x
		vals[i] = v
	}
	return xs, vals, nil
}

// TotalMass integrates ρ over the domain with GLL quadrature and a
// reproducible sum (the paper's §III.C discipline for global reductions).
func (s *Solver[S, C]) TotalMass() float64 {
	np := s.np
	np3 := np * np * np
	scale := math.Pow(s.elemDX/2, 3)
	terms := make([]float64, 0, s.nNodes)
	for e := 0; e < s.ne*s.ne*s.ne; e++ {
		base := e * np3
		for k := 0; k < np; k++ {
			for j := 0; j < np; j++ {
				for i := 0; i < np; i++ {
					w := s.weights[i] * s.weights[j] * s.weights[k] * scale
					terms = append(terms, w*float64(s.q[iRho][base+nodeIndex(np, i, j, k)]))
				}
			}
		}
	}
	return reduce.SumReproducibleInPlace(terms)
}

// TotalRhoTheta integrates ρθ over the domain — conserved exactly by the
// equations (it is advected like mass), so its drift isolates integration
// and precision error the same way the mass audit does.
func (s *Solver[S, C]) TotalRhoTheta() float64 {
	np := s.np
	np3 := np * np * np
	scale := math.Pow(s.elemDX/2, 3)
	terms := make([]float64, 0, s.nNodes)
	for e := 0; e < s.ne*s.ne*s.ne; e++ {
		base := e * np3
		for k := 0; k < np; k++ {
			for j := 0; j < np; j++ {
				for i := 0; i < np; i++ {
					w := s.weights[i] * s.weights[j] * s.weights[k] * scale
					terms = append(terms, w*float64(s.q[iRhoT][base+nodeIndex(np, i, j, k)]))
				}
			}
		}
	}
	return reduce.SumReproducibleInPlace(terms)
}

// WriteFieldDump writes a compressed analysis dump: the density anomaly on
// the horizontal plane through the bubble center, rasterized to nx×ny and
// encoded at `rate` bits per value.
func (s *Solver[S, C]) WriteFieldDump(w io.Writer, nx, ny, rate int) (int64, error) {
	z := s.cfg.BubbleCenter[2]
	field := make([]float64, nx*ny)
	for j := 0; j < ny; j++ {
		y := (float64(j) + 0.5) / float64(ny) * s.cfg.Domain
		for i := 0; i < nx; i++ {
			x := (float64(i) + 0.5) / float64(nx) * s.cfg.Domain
			v, err := s.Sample(FieldDensityAnomaly, x, y, z)
			if err != nil {
				return 0, fmt.Errorf("self: dump: %w", err)
			}
			field[j*nx+i] = v
		}
	}
	cw := checkpoint.NewWriter(w, "self-dump", s.step, s.time)
	if err := cw.AddF64Compressed("density_anomaly", field, nx, ny, rate); err != nil {
		return 0, fmt.Errorf("self: dump: %w", err)
	}
	n, err := cw.Flush()
	if err != nil {
		return n, err
	}
	s.counters.StoreBytes += uint64(n)
	return n, nil
}

// MaxAbsW returns the maximum absolute vertical velocity — a convenient
// scalar to watch the bubble rise.
func (s *Solver[S, C]) MaxAbsW() float64 {
	maxW := 0.0
	for n := 0; n < s.nNodes; n++ {
		w := math.Abs(float64(s.q[iRhoW][n]) / float64(s.q[iRho][n]))
		if w > maxW {
			maxW = w
		}
	}
	return maxW
}
