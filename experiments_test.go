package repro

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/clamr"
)

func TestParseScale(t *testing.T) {
	cases := map[string]Scale{
		"quick": QuickScale, "": QuickScale,
		"standard": StandardScale, "std": StandardScale,
		"paper": PaperScale, "FULL": PaperScale,
	}
	for in, want := range cases {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScale("enormous"); err == nil {
		t.Error("ParseScale accepted junk")
	}
}

func TestFacadeConstructors(t *testing.T) {
	if len(Modes) != 3 {
		t.Error("mode list wrong")
	}
	if len(CLAMRPlatforms) != 5 || len(SELFPlatforms) != 6 {
		t.Error("platform lists wrong")
	}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	s := NewSession(QuickScale)
	for _, e := range Experiments {
		out, err := s.RunExperiment(e.ID)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(out.Text) < 40 {
			t.Errorf("%s: output suspiciously short: %q", e.ID, out.Text)
		}
		if strings.HasPrefix(e.ID, "fig") && len(out.Series) == 0 {
			t.Errorf("%s: figure produced no series", e.ID)
		}
	}
	if _, err := s.RunExperiment("table99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTable1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs mini-apps")
	}
	s := NewSession(QuickScale)
	_, workloads, err := s.clamrWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	rows := arch.Table(CLAMRPlatforms, workloads)
	byName := map[string]arch.Row{}
	for _, r := range rows {
		byName[r.Arch] = r
	}
	titan, hsw, k40 := byName["GTX TITAN X"], byName["Haswell"], byName["Tesla K40m"]
	// Paper Table I shape: GPU min-precision speedups exceed CPU speedups;
	// the TITAN X (32:1 DP penalty) exceeds the Kepler datacenter parts.
	if titan.Speedup <= k40.Speedup || k40.Speedup <= hsw.Speedup {
		t.Errorf("speedup ordering: titan %.2f k40 %.2f haswell %.2f",
			titan.Speedup, k40.Speedup, hsw.Speedup)
	}
	// Memory: min ≈ mixed < full on every architecture (same state bytes
	// feed every row).
	for _, r := range rows {
		if !(r.MemGB[0] <= r.MemGB[1] && r.MemGB[1] < r.MemGB[2]) {
			t.Errorf("%s memory ordering: %v", r.Arch, r.MemGB)
		}
	}
	// Mixed runtime ≈ full runtime on GPUs (within 35%): double compute
	// dominates.
	if k40.Times[1].Seconds() < 0.65*k40.Times[2].Seconds() {
		t.Errorf("K40m mixed %.3fs much faster than full %.3fs",
			k40.Times[1].Seconds(), k40.Times[2].Seconds())
	}
}

func TestTable5Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs mini-apps")
	}
	s := NewSession(QuickScale)
	_, workloads, err := s.selfWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	rows := arch.Table(SELFPlatforms, workloads)
	byName := map[string]arch.Row{}
	for _, r := range rows {
		byName[r.Arch] = r
	}
	// Paper Table V shape: TITAN X speedup dwarfs every other platform;
	// P100 (2:1 DP) shows the smallest GPU gain; memory halves at single.
	titan := byName["GTX TITAN X"]
	p100 := byName["Tesla P100"]
	for _, r := range rows {
		if r.Arch != "GTX TITAN X" && titan.Speedup <= r.Speedup {
			t.Errorf("TITAN X speedup %.2f not dominant over %s %.2f",
				titan.Speedup, r.Arch, r.Speedup)
		}
		ratio := r.MemGB[0] / r.MemGB[1]
		if ratio < 0.4 || ratio > 0.6 {
			t.Errorf("%s single/double memory ratio %.2f", r.Arch, ratio)
		}
	}
	for _, gpu := range []string{"Tesla K40m", "Quadro K6000", "GTX TITAN X"} {
		if p100.Speedup >= byName[gpu].Speedup {
			t.Errorf("P100 speedup %.2f not the smallest GPU gain (vs %s %.2f)",
				p100.Speedup, gpu, byName[gpu].Speedup)
		}
	}
}

func TestFig1Fidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs mini-apps")
	}
	s := NewSession(QuickScale)
	out, err := s.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	// Series: full, mixed, min cuts + three diffs.
	if len(out.Series) != 6 {
		t.Fatalf("fig1 has %d series", len(out.Series))
	}
	full := out.Series[0]
	for _, diff := range out.Series[3:] {
		orders := analysis.OrdersBelow(diff, full)
		if orders < 4.5 {
			t.Errorf("diff %q only %.1f orders below solution", diff.Label, orders)
		}
	}
	// CSV renders.
	var sb strings.Builder
	if err := analysis.WriteCSV(&sb, out.Series...); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Full") {
		t.Error("CSV missing labels")
	}
}

func TestFig2AsymmetryAmplified(t *testing.T) {
	if testing.Short() {
		t.Skip("runs mini-apps")
	}
	s := NewSession(QuickScale)
	out, err := s.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	var minAsym, fullAsym float64
	for _, series := range out.Series {
		switch series.Label {
		case "Min":
			minAsym = series.MaxAbs()
		case "Full":
			fullAsym = series.MaxAbs()
		}
	}
	// Paper Fig 2: reduced precision amplifies the asymmetry.
	if !(minAsym > fullAsym) {
		t.Errorf("min asymmetry %g not above full %g", minAsym, fullAsym)
	}
}

func TestFig3MoreStructureAtHighRes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs mini-apps")
	}
	s := NewSession(QuickScale)
	out, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Text, "more structure: Min-HiRes") {
		t.Errorf("Min-HiRes did not show more structure:\n%s", out.Text)
	}
}

func TestTable4GNUInversionInOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs mini-apps")
	}
	s := NewSession(QuickScale)
	out, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Text, "GNU single > GNU double: yes") {
		t.Errorf("table4 did not reproduce the GNU inversion:\n%s", out.Text)
	}
}

func TestFieldDumpThroughRunner(t *testing.T) {
	dam, err := clamr.NewDamBreak(Min, clamr.Config{NX: 16, NY: 16, MaxLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := dam.Run(10); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	n, err := dam.WriteFieldDump(&nopWriter{&buf}, 64, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	// 64×64 float64 raw = 32 KiB; at 8 bits/value the dump must be ~4 KiB.
	if n > 8*1024 || n < 1024 {
		t.Errorf("compressed dump %d bytes", n)
	}
	if _, err := dam.WriteFieldDump(&nopWriter{&buf}, 64, 64, 1); err == nil {
		t.Error("invalid rate accepted")
	}
}

// nopWriter adapts a strings.Builder to io.Writer for size-only checks.
type nopWriter struct{ b *strings.Builder }

func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }
