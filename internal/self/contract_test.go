package self

import (
	"math"
	"testing"

	"repro/internal/precision"
)

// oracleContract is the pre-contract code's three filter sweeps, one loop
// nest per direction, kept as the differential oracle for contract. The
// only change from that code is the explicit rounding of each product,
// which is a no-op where nothing fuses and keeps the oracle unfused on
// targets that would.
func oracleContract[C precision.Real](np, dir int, mat, in, out []C) {
	np2 := np * np
	switch dir {
	case 0:
		for k := 0; k < np; k++ {
			for j := 0; j < np; j++ {
				line := j*np + k*np2
				for i := 0; i < np; i++ {
					var sum C
					frow := mat[i*np : (i+1)*np]
					for m := 0; m < np; m++ {
						sum += C(frow[m] * in[line+m])
					}
					out[line+i] = sum
				}
			}
		}
	case 1:
		for k := 0; k < np; k++ {
			for i := 0; i < np; i++ {
				line := i + k*np2
				for j := 0; j < np; j++ {
					var sum C
					frow := mat[j*np : (j+1)*np]
					for m := 0; m < np; m++ {
						sum += C(frow[m] * in[line+m*np])
					}
					out[line+j*np] = sum
				}
			}
		}
	default:
		for j := 0; j < np; j++ {
			for i := 0; i < np; i++ {
				line := i + j*np
				for k := 0; k < np; k++ {
					var sum C
					frow := mat[k*np : (k+1)*np]
					for m := 0; m < np; m++ {
						sum += C(frow[m] * in[line+m*np2])
					}
					out[line+k*np2] = sum
				}
			}
		}
	}
}

// fuzzSpecials are the operands that ordinary random draws almost never
// produce: signed zeros, infinities, NaN, both subnormal extremes (in
// float64 bits; the float32 decoder narrows them) and the overflow edge.
var fuzzSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022 - 0x1p-1074, math.SmallestNonzeroFloat32, -0x1p-126 + 0x1p-149,
	math.MaxFloat32, -math.MaxFloat64, 1, -1,
}

// fuzzValues decodes n operands: mostly O(1) values that exercise rounding,
// some raw bit patterns, and a special wherever pick names one.
func fuzzValues[C precision.Real](n int, seed uint64, pick []byte) []C {
	xs := make([]C, n)
	x := seed | 1
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch {
		case i < len(pick) && pick[i] != 0:
			xs[i] = C(fuzzSpecials[int(pick[i])%len(fuzzSpecials)])
		case x%8 == 0 && precision.Sizeof[C]() == 8:
			xs[i] = C(math.Float64frombits(x))
		case x%8 == 0:
			xs[i] = C(math.Float32frombits(uint32(x >> 32)))
		default:
			xs[i] = C(float64(int64(x>>11)-1<<52) / (1 << 51))
		}
	}
	return xs
}

func contractMatchesOracle[C precision.Real](t *testing.T, np, dir int, seed uint64, pick []byte) {
	t.Helper()
	np3 := np * np * np
	vals := fuzzValues[C](np*np+np3, seed, pick)
	mat, in := vals[:np*np], vals[np*np:]
	got, want := make([]C, np3), make([]C, np3)
	contract(np, dir, mat, in, got)
	oracleContract(np, dir, mat, in, want)
	for i := range got {
		if bitsOf(got[i]) != bitsOf(want[i]) {
			t.Fatalf("np=%d dir=%d %d-byte: out[%d] = %v (%#x), oracle %v (%#x)",
				np, dir, precision.Sizeof[C](), i, got[i], bitsOf(got[i]), want[i], bitsOf(want[i]))
		}
	}
}

func bitsOf[C precision.Real](x C) uint64 {
	if precision.Sizeof[C]() == 8 {
		return math.Float64bits(float64(x))
	}
	return uint64(math.Float32bits(float32(x)))
}

// FuzzContract checks contract against the per-direction loop nests it
// replaced, bit for bit, over np ∈ [2, 8], every direction and both widths.
func FuzzContract(f *testing.F) {
	for np := uint8(0); np < 7; np++ {
		for dir := uint8(0); dir < 3; dir++ {
			for _, wide := range []bool{false, true} {
				f.Add(uint64(np)*31+uint64(dir), np, dir, wide, []byte{})
			}
		}
	}
	f.Add(uint64(7), uint8(2), uint8(2), false, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Add(uint64(9), uint8(6), uint8(0), true, []byte{0, 6, 0, 8, 0, 10, 7})
	// A -0·1 matrix: every product is -0, and a sum that starts from zero
	// is +0 where one that starts from its first product is -0.
	f.Add(uint64(3), uint8(0), uint8(1), false, []byte{1, 1, 1, 1, 12, 12, 12, 12, 12, 12, 12, 12})
	f.Fuzz(func(t *testing.T, seed uint64, np, dir uint8, wide bool, pick []byte) {
		n, d := 2+int(np%7), int(dir%3)
		if wide {
			contractMatchesOracle[float64](t, n, d, seed, pick)
		} else {
			contractMatchesOracle[float32](t, n, d, seed, pick)
		}
	})
}
