package runner

import (
	"context"
	"runtime"
	"testing"
)

// Operands of the multiply-add contraction probe; package-level so the
// compiler cannot fold the probe at build time. fmaX·fmaY is exactly
// 1 + 2⁻²⁶ + 2⁻⁵⁴, which rounds to 1 + 2⁻²⁶ = −fmaZ: an unfused x*y+z is
// exactly 0, a fused one keeps the 2⁻⁵⁴.
var (
	fmaX = 1 + 1.0/(1<<27)
	fmaY = 1 + 1.0/(1<<27)
	fmaZ = -(1 + 1.0/(1<<26))
)

// goldenStateHashes pins the final-state hash of one tiny spec per
// numerically distinct solver path, as generated at commit 37f40ca. A
// kernel change that moves a bit trips it — on purpose, when the change
// means to: regenerate the pins in the same commit and say so.
var goldenStateHashes = []struct {
	name string
	spec ExperimentSpec
	want string
}{
	{"clamr/half/vectorized", goldenCLAMR("half", "vectorized"), "b4253f0523a5237e0f401170a60a7850e7f2cde1321cd5fc3d1da7abd732adf3"},
	{"clamr/half/unvectorized", goldenCLAMR("half", "unvectorized"), "c791b1bae749762d88ce6ea63253003290e8e393a2ef56b6cb6dfeba9bad5cd6"},
	{"clamr/min/vectorized", goldenCLAMR("min", "vectorized"), "ee0433fd8a7cf610c7fbb88d62cceff11ef8469df7c50a1509b5218bff83be00"},
	{"clamr/min/unvectorized", goldenCLAMR("min", "unvectorized"), "4ff7d44594095b0f7a5d91844ac3960c51bfd8c36a781deaa5aab90363daf306"},
	{"clamr/mixed/vectorized", goldenCLAMR("mixed", "vectorized"), "9e2b20196198ce057587b96bb239af31a2089867dbdc57e993439067239697d8"},
	{"clamr/mixed/unvectorized", goldenCLAMR("mixed", "unvectorized"), "35ca436a435d8cf436cf5ca20e3b5479977a60f36694b35d0829e04bc1e2f5fd"},
	{"clamr/full/vectorized", goldenCLAMR("full", "vectorized"), "dd564f634b50df93d5d96072a69886cabb5c866a4f4e7aadcf62dbbba270259a"},
	{"clamr/full/unvectorized", goldenCLAMR("full", "unvectorized"), "2e912cb1f9adad5814ba4a666dfb087cfa910647ca94049cfade5b7dfd8a2fa6"},
	{"self/min/intel-native", goldenSELF("min", "intel-native"), "dd9d9a9b78e1eceeb192e3dc1ee30d8c6d019ce918ccbf2833bc9014c9e49c39"},
	{"self/min/gnu-promoted", goldenSELF("min", "gnu-promoted"), "396afd071bd70472d6d97ce2768c2119db2a34f1bb1522d1d429fd4c4b68b4d1"},
	{"self/full/intel-native", goldenSELF("full", "intel-native"), "77c4cd50da8f4aff14f3924e784add8647d775371d1836b7092c4347a76ac6ff"},
	{"self/full/gnu-promoted", goldenSELF("full", "gnu-promoted"), "77c4cd50da8f4aff14f3924e784add8647d775371d1836b7092c4347a76ac6ff"},
}

// goldenCLAMR adapts twice in 12 steps, so remap and face-list rebuild are
// inside the pinned bits.
func goldenCLAMR(mode, kernel string) ExperimentSpec {
	return ExperimentSpec{
		App: AppCLAMR, Mode: mode, Steps: 12,
		NX: 16, NY: 16, MaxLevel: 1, Kernel: kernel, AMRInterval: 5,
	}
}

func goldenSELF(mode, mathMode string) ExperimentSpec {
	return ExperimentSpec{
		App: AppSELF, Mode: mode, Steps: 3,
		Elements: 2, Order: 3, MathMode: mathMode,
	}
}

// TestGoldenStateHashes is the bit-identity tripwire: same spec → same
// state hash, against hashes pinned in the source rather than against a
// second run of the same build, at a serial and a chunked worker budget.
func TestGoldenStateHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("state hashes are pinned for amd64, not %s", runtime.GOARCH)
	}
	if fmaX*fmaY+fmaZ != 0 {
		t.Skip("this build fuses x*y+z into a multiply-add; state hashes are pinned for non-fusing builds")
	}
	for _, g := range goldenStateHashes {
		for _, workers := range []int{1, 3} {
			res, err := Run(context.Background(), g.spec, RunOpts{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", g.name, workers, err)
			}
			if res.StateHash != g.want {
				t.Errorf("%s workers=%d: state hash %s, pinned %s", g.name, workers, res.StateHash, g.want)
			}
		}
	}
}
