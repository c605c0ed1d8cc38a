package precision

import (
	"math"
	"testing"
	"testing/quick"
)

func TestModeStringParseRoundTrip(t *testing.T) {
	for _, m := range Ladder {
		got, err := Parse(m.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", m.String(), err)
		}
		if got != m {
			t.Errorf("Parse(%q) = %v, want %v", m.String(), got, m)
		}
	}
	aliases := map[string]Mode{
		"single": Min, "double": Full, "fp16": Half, "FLOAT64": Full,
		" mixed ": Mixed, "Minimum": Min,
	}
	for s, want := range aliases {
		got, err := Parse(s)
		if err != nil || got != want {
			t.Errorf("Parse(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := Parse("quad"); err == nil {
		t.Error("Parse accepted unknown mode")
	}
}

// TestLadderOrder pins the one rung order every consumer derives from:
// Next climbs it, Prev descends it, Rank indexes it, Name spells it.
func TestLadderOrder(t *testing.T) {
	want := []string{"half", "min", "mixed", "full"}
	if len(Ladder) != len(want) {
		t.Fatalf("Ladder = %v, want %v", Ladder, want)
	}
	for i, m := range Ladder {
		if m.Name() != want[i] || m.Rank() != i {
			t.Errorf("Ladder[%d] = %s (rank %d), want %s (rank %d)", i, m.Name(), m.Rank(), want[i], i)
		}
		if got, err := Parse(m.Name()); err != nil || got != m {
			t.Errorf("Parse(%q) = %v, %v; want %v", m.Name(), got, err, m)
		}
		next, ok := m.Next()
		if top := i == len(Ladder)-1; ok == top || (ok && next != Ladder[i+1]) {
			t.Errorf("%s.Next() = %v, %v", m.Name(), next, ok)
		}
		prev, ok := m.Prev()
		if bottom := i == 0; ok == bottom || (ok && prev != Ladder[i-1]) {
			t.Errorf("%s.Prev() = %v, %v", m.Name(), prev, ok)
		}
	}
	if len(Modes) != 3 || Modes[0] != Min || Modes[2] != Full {
		t.Errorf("Modes = %v, want the ladder without Half", Modes)
	}
	if _, ok := Mode(99).Next(); ok || Mode(99).Rank() != -1 {
		t.Error("a non-mode value has a rung")
	}
}

func TestModeSizes(t *testing.T) {
	cases := []struct {
		m                Mode
		storage, compute int
		sMant, cMant     int
	}{
		{Half, 2, 4, 11, 24},
		{Min, 4, 4, 24, 24},
		{Mixed, 4, 8, 24, 53},
		{Full, 8, 8, 53, 53},
	}
	for _, c := range cases {
		if got := c.m.StorageBytes(); got != c.storage {
			t.Errorf("%v StorageBytes = %d, want %d", c.m, got, c.storage)
		}
		if got := c.m.ComputeBytes(); got != c.compute {
			t.Errorf("%v ComputeBytes = %d, want %d", c.m, got, c.compute)
		}
		if got := c.m.StorageMantissaBits(); got != c.sMant {
			t.Errorf("%v StorageMantissaBits = %d, want %d", c.m, got, c.sMant)
		}
		if got := c.m.ComputeMantissaBits(); got != c.cMant {
			t.Errorf("%v ComputeMantissaBits = %d, want %d", c.m, got, c.cMant)
		}
		if !c.m.Valid() {
			t.Errorf("%v reported invalid", c.m)
		}
	}
	if Mode(99).Valid() {
		t.Error("Mode(99) reported valid")
	}
}

func TestUlp64(t *testing.T) {
	if got := Ulp64(1); got != math.Ldexp(1, -52) {
		t.Errorf("Ulp64(1) = %g, want 2^-52", got)
	}
	if got := Ulp64(0); got != math.Ldexp(1, -1074) {
		t.Errorf("Ulp64(0) = %g, want smallest subnormal", got)
	}
	if !math.IsNaN(Ulp64(math.Inf(1))) || !math.IsNaN(Ulp64(math.NaN())) {
		t.Error("Ulp64 of non-finite values is not NaN")
	}
	// ULP is symmetric in sign and monotone across binades.
	if Ulp64(-8) != Ulp64(8) {
		t.Error("Ulp64 not sign-symmetric")
	}
	if Ulp64(8) != 8*Ulp64(1) {
		t.Error("Ulp64 did not scale with the binade")
	}
}

func TestUlp32(t *testing.T) {
	if got := Ulp32(1); got != math.Ldexp(1, -23) {
		t.Errorf("Ulp32(1) = %g, want 2^-23", got)
	}
	if Ulp32(-4) != Ulp32(4) {
		t.Error("Ulp32 not sign-symmetric")
	}
}

func TestUlpError(t *testing.T) {
	if got := UlpError(1, 1); got != 0 {
		t.Errorf("UlpError(equal) = %g", got)
	}
	next := math.Nextafter(1, 2)
	if got := UlpError(next, 1); got != 1 {
		t.Errorf("UlpError(1+ulp, 1) = %g, want 1", got)
	}
	if !math.IsInf(UlpError(1, 0), 1) {
		t.Error("UlpError with zero reference is not +Inf")
	}
}

func TestRelErrorAndDigits(t *testing.T) {
	if got := RelError(1.01, 1); math.Abs(got-0.01) > 1e-15 {
		t.Errorf("RelError(1.01,1) = %g", got)
	}
	if got := RelError(0.5, 0); got != 0.5 {
		t.Errorf("RelError(0.5,0) = %g", got)
	}
	if got := AgreementDigits(1, 1); got != 17 {
		t.Errorf("AgreementDigits(equal) = %g", got)
	}
	d := AgreementDigits(1.000001, 1)
	if d < 5.9 || d > 6.1 {
		t.Errorf("AgreementDigits(1.000001, 1) = %g, want ≈6", d)
	}
	if got := AgreementDigits(2, 1); got != 0 {
		t.Errorf("AgreementDigits(2,1) = %g, want clamp to 0", got)
	}
}

func TestRoundMantissa(t *testing.T) {
	// Rounding to 24 bits must equal the float32 conversion for values in
	// float32 normal range.
	if err := quick.Check(func(x float64) bool {
		x = math.Mod(x, 1e30)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		if x != 0 && math.Abs(x) < 1e-30 {
			return true // avoid float32 subnormal range where semantics differ
		}
		return RoundMantissa(x, 24) == float64(float32(x))
	}, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	// Identity at full precision, idempotent in general.
	if RoundMantissa(math.Pi, 53) != math.Pi {
		t.Error("RoundMantissa(53) changed the value")
	}
	for _, bits := range []int{1, 5, 11, 24, 40} {
		v := RoundMantissa(math.Pi, bits)
		if RoundMantissa(v, bits) != v {
			t.Errorf("RoundMantissa not idempotent at %d bits", bits)
		}
	}
	if RoundMantissa(0, 10) != 0 {
		t.Error("RoundMantissa(0) != 0")
	}
	if got := RoundMantissa(1.75, 2); got != 2 { // 1.75 → 2 significand bits: {1, 1.5, 2,...}; tie at 1.75? 1.75 = 1.11b needs 3 bits; candidates 1.5 (1.1b) and 2.0; midpoint 1.75 ties to even → 2.0
		t.Errorf("RoundMantissa(1.75, 2) = %g, want 2", got)
	}
}

func TestDemote(t *testing.T) {
	if Full.Demote(math.Pi) != math.Pi {
		t.Error("Full.Demote changed the value")
	}
	if Min.Demote(math.Pi) != float64(float32(math.Pi)) {
		t.Error("Min.Demote is not float32 rounding")
	}
	if Mixed.Demote(math.Pi) != float64(float32(math.Pi)) {
		t.Error("Mixed.Demote is not float32 rounding")
	}
	// Half demotion is exact binary16: 65504 is the max finite value.
	if Half.Demote(65504) != 65504 {
		t.Error("Half.Demote(65504) moved")
	}
	if !math.IsInf(Half.Demote(70000), 1) {
		t.Error("Half.Demote(70000) did not overflow to +Inf")
	}
	if Half.Demote(1e-9) != 0 {
		t.Error("Half.Demote(1e-9) did not underflow to 0")
	}
	// Demotion error stays within half an ulp of the format.
	if err := quick.Check(func(x float64) bool {
		x = math.Mod(x, 1000)
		if math.IsNaN(x) {
			return true
		}
		got := Min.Demote(x)
		return math.Abs(got-x) <= Ulp32(float32(x))/2+1e-300
	}, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

func TestSizeofAndAbs(t *testing.T) {
	type named32 float32
	type named64 float64
	if got := [4]int{Sizeof[float32](), Sizeof[float64](), Sizeof[named32](), Sizeof[named64]()}; got != [4]int{4, 8, 4, 8} {
		t.Errorf("Sizeof over {float32, float64, ~float32, ~float64} = %v, want [4 8 4 8]", got)
	}
	if Abs(float32(-1.5)) != 1.5 || Abs(2.5) != 2.5 || Abs(0.0) != 0 {
		t.Error("Abs wrong on -1.5 / 2.5 / 0")
	}
}
