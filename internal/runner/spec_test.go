package runner

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/clamr"
	"repro/internal/precision"
)

func clamrTestSpec() ExperimentSpec {
	return ExperimentSpec{
		App: AppCLAMR, Mode: "full", Steps: 10, LineCutN: 32,
		NX: 24, NY: 24, MaxLevel: 1, Kernel: "vectorized", AMRInterval: 5,
	}
}

func selfTestSpec() ExperimentSpec {
	return ExperimentSpec{
		App: AppSELF, Mode: "min", Steps: 4, LineCutN: 16,
		Elements: 2, Order: 3, MathMode: "intel-native",
	}
}

func TestSpecHashStableAcrossAliases(t *testing.T) {
	base := clamrTestSpec()
	want, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	aliases := []ExperimentSpec{base, base, base}
	aliases[0].Mode = "double" // alias of full
	aliases[1].Kernel = "face" // alias of vectorized
	aliases[2].App = " CLAMR "
	// Junk SELF fields on a CLAMR spec must not perturb the hash.
	aliases[2].Elements, aliases[2].Order, aliases[2].MathMode = 9, 9, "gnu"
	for i, a := range aliases {
		got, err := a.Hash()
		if err != nil {
			t.Fatalf("alias %d: %v", i, err)
		}
		if got != want {
			t.Errorf("alias %d hashes %s, want %s", i, got, want)
		}
	}
}

func TestSpecHashSeparatesResultAffectingFields(t *testing.T) {
	base := clamrTestSpec()
	seen := map[string]string{}
	record := func(name string, s ExperimentSpec) {
		h, err := s.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for prev, ph := range seen {
			if ph == h {
				t.Errorf("%s and %s collide on %s", name, prev, h)
			}
		}
		seen[name] = h
	}
	record("base", base)
	v := base
	v.Mode = "min"
	record("mode", v)
	v = base
	v.Steps++
	record("steps", v)
	v = base
	v.NX *= 2
	record("nx", v)
	v = base
	v.Kernel = "cell"
	record("kernel", v)
	v = base
	v.AMRInterval = 0
	record("amr", v)
	v = base
	v.DryTol = 1e-7
	record("drytol", v)
	record("self", selfTestSpec())
}

func TestSpecCanonicalJSONIsStable(t *testing.T) {
	s := selfTestSpec()
	s.MathMode = "gnu" // alias
	got, err := s.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"app":"self","mode":"min","steps":4,"line_cut_n":16,` +
		`"elements":2,"order":3,"math_mode":"gnu-promoted"}`
	if string(got) != want {
		t.Errorf("canonical JSON:\n got %s\nwant %s", got, want)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []ExperimentSpec{
		{App: "hydra", Mode: "full", Steps: 1},
		{App: AppCLAMR, Mode: "full", Steps: 0, NX: 8, NY: 8},
		{App: AppCLAMR, Mode: "sideways", Steps: 1, NX: 8, NY: 8},
		{App: AppCLAMR, Mode: "full", Steps: 1, NX: 0, NY: 8},
		{App: AppCLAMR, Mode: "full", Steps: 1, NX: 8, NY: 8, Kernel: "warp"},
		{App: AppSELF, Mode: "full", Steps: 1, Elements: 0, Order: 3},
		{App: AppSELF, Mode: "full", Steps: 1, Elements: 2, Order: 3, MathMode: "llvm"},
		{App: AppCLAMR, Mode: "full", Steps: 1, NX: 8, NY: 8, LineCutN: -1},
	}
	for i, s := range bad {
		if _, err := s.Normalized(); err == nil {
			t.Errorf("spec %d validated: %+v", i, s)
		}
	}
}

func TestSpecAutoModeHashing(t *testing.T) {
	// Concrete specs keep the v1 hash: a budget-free spec must hash
	// identically whether or not the auto-mode fields exist in the binary.
	// Guarded by construction — a concrete spec's canonical JSON carries no
	// budget keys, so its digest input is byte-for-byte the v1 form.
	concrete := clamrTestSpec()
	cj, err := concrete.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(cj), "max_mass_error") || strings.Contains(string(cj), "auto") {
		t.Fatalf("concrete spec canonical JSON leaks auto fields: %s", cj)
	}

	auto := clamrTestSpec()
	auto.Mode = "auto"
	auto.MaxMassError = 1e-7
	n, err := auto.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if !n.IsAuto() || n.Mode != ModeAuto {
		t.Fatalf("normalized auto spec = %+v", n)
	}

	// Auto specs and budget-carrying specs hash apart from each other and
	// from the concrete base.
	hashes := map[string]string{}
	for name, s := range map[string]ExperimentSpec{
		"concrete": concrete,
		"auto":     auto,
		"budget": func() ExperimentSpec {
			v := clamrTestSpec()
			v.MaxMassError = 1e-7
			return v
		}(),
		"auto-linf": func() ExperimentSpec {
			v := auto
			v.MaxMassError = 0
			v.MaxLinecutLinf = 1e-5
			return v
		}(),
	} {
		h, err := s.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for prev, ph := range hashes {
			if ph == h {
				t.Errorf("%s and %s collide on %s", name, prev, h)
			}
		}
		hashes[name] = h
	}

	// Concrete(mode) strips budgets: the result hashes exactly like a plain
	// submission at that mode — the dedup/cache contract resolution relies on.
	resolved := auto.Concrete("min")
	plain := clamrTestSpec()
	plain.Mode = "min"
	rh, err := resolved.Hash()
	if err != nil {
		t.Fatal(err)
	}
	ph, err := plain.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if rh != ph {
		t.Errorf("Concrete(min) hash %s != plain min submission %s", rh, ph)
	}
}

func TestSpecAutoModeValidation(t *testing.T) {
	neg := clamrTestSpec()
	neg.MaxMassError = -1e-9
	if _, err := neg.Normalized(); err == nil {
		t.Error("negative mass-error budget validated")
	}
	neg = clamrTestSpec()
	neg.MaxLinecutLinf = -1
	if _, err := neg.Normalized(); err == nil {
		t.Error("negative line-cut budget validated")
	}
	// "auto" with no budget is still valid: the autotuner treats a
	// budget-free auto spec as unconstrained.
	open := clamrTestSpec()
	open.Mode = " Auto "
	if _, err := open.Normalized(); err != nil {
		t.Errorf("bare auto spec rejected: %v", err)
	}
}

func TestSweepSpecsCoverThePaperSweep(t *testing.T) {
	specs := SweepSpecs(repro.QuickScale)
	if len(specs) != 11 {
		t.Fatalf("sweep has %d specs, want 11 (3 modes × 2 kernels + 3 fig modes + 2 self modes)", len(specs))
	}
	hashes := map[string]bool{}
	apps := map[string]int{}
	for i, s := range specs {
		if _, err := s.Normalized(); err != nil {
			t.Errorf("spec %d invalid: %v", i, err)
		}
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if hashes[h] {
			t.Errorf("spec %d duplicates an earlier spec: %+v", i, s)
		}
		hashes[h] = true
		apps[s.App]++
	}
	if apps[AppCLAMR] != 9 || apps[AppSELF] != 2 {
		t.Errorf("sweep app split = %v, want clamr:9 self:2", apps)
	}
}

func TestSpecRoundTripThroughConfigs(t *testing.T) {
	s := repro.NewSession(repro.QuickScale)
	cfg, steps := s.CLAMRPerfConfig(clamr.KernelFace)
	spec := CLAMRSpec(precision.Mixed, cfg, steps, s.LineCutN())
	back, err := spec.CLAMRConfig(0)
	if err != nil {
		t.Fatal(err)
	}
	if back.NX != cfg.NX || back.NY != cfg.NY || back.MaxLevel != cfg.MaxLevel ||
		back.Kernel != cfg.Kernel || back.AMRInterval != cfg.AMRInterval || back.DryTol != cfg.DryTol {
		t.Errorf("CLAMR config round trip: got %+v want %+v", back, cfg)
	}
	if !strings.EqualFold(spec.Mode, "mixed") {
		t.Errorf("spec mode = %q", spec.Mode)
	}
}
