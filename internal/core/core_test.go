package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/clamr"
	"repro/internal/precision"
	"repro/internal/self"
)

func clamrCfg() clamr.Config {
	return clamr.Config{NX: 24, NY: 24, MaxLevel: 1, Kernel: clamr.KernelFace, AMRInterval: 10}
}

func TestRunCLAMRCollectsEverything(t *testing.T) {
	res, err := RunCLAMROpts(precision.Min, clamrCfg(), 30, 48, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != precision.Min || res.Steps != 30 {
		t.Errorf("identity wrong: %+v", res.Mode)
	}
	if res.WallTime <= 0 || res.FiniteDiffTime <= 0 {
		t.Error("timers empty")
	}
	if res.Cells == 0 || res.StateBytes == 0 || res.CheckpointBytes == 0 {
		t.Error("sizes empty")
	}
	if res.Counters.TotalFlops() == 0 {
		t.Error("counters empty")
	}
	if res.MassError > 1e-4 {
		t.Errorf("mass error %g", res.MassError)
	}
	if res.LineCut.Len() != 48 {
		t.Errorf("line cut %d points", res.LineCut.Len())
	}
	if res.LineCut.MaxAbs() < 1 {
		t.Error("line cut looks empty")
	}
	w := res.Workload()
	if !w.Vectorized || w.SerialOps == 0 || w.StateBytes == 0 {
		t.Errorf("workload malformed: %+v", w)
	}
}

func TestRunCLAMRPrecisionComparison(t *testing.T) {
	full, err := RunCLAMROpts(precision.Full, clamrCfg(), 40, 64, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	min, err := RunCLAMROpts(precision.Min, clamrCfg(), 40, 64, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig 1: ≥5 orders of magnitude separation.
	if orders := analysis.OrdersBelow(analysis.Diff(full.LineCut, min.LineCut), full.LineCut); orders < 4.5 {
		t.Errorf("min precision only %.1f orders below solution", orders)
	}
	// Memory: min below full.
	if min.StateBytes >= full.StateBytes {
		t.Error("min state not smaller than full")
	}
	if float64(min.CheckpointBytes)/float64(full.CheckpointBytes) > 0.75 {
		t.Error("checkpoint ratio not ≈2/3")
	}
}

func TestRunSELFCollectsEverything(t *testing.T) {
	cfg := self.Config{Elements: 3, Order: 3}
	res, err := RunSELFOpts(precision.Min, cfg, 10, 32, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.WallTime <= 0 || res.DOF == 0 || res.StateBytes == 0 {
		t.Errorf("result incomplete: %+v", res)
	}
	if res.LineCut.Len() != 32 {
		t.Errorf("line cut %d points", res.LineCut.Len())
	}
	w := res.Workload()
	if w.SerialOps == 0 || !w.Vectorized {
		t.Errorf("workload malformed: %+v", w)
	}
}

func TestRunErrorsPropagate(t *testing.T) {
	if _, err := RunCLAMROpts(precision.Full, clamr.Config{NX: -1}, 1, 0, RunOptions{}); err == nil {
		t.Error("bad CLAMR config accepted")
	}
	if _, err := RunSELFOpts(precision.Full, self.Config{Elements: 0, Order: 3}, 1, 0, RunOptions{}); err == nil {
		t.Error("bad SELF config accepted")
	}
	if _, err := RunSELFOpts(precision.Half, self.Config{Elements: 2, Order: 2}, 1, 0, RunOptions{}); err == nil {
		t.Error("SELF half mode accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"Arch", "Min", "Full"}}
	tb.AddRow("Haswell", "26.3", "31.3")
	tb.AddRow("TITAN X", "2.8")
	out := tb.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "Haswell") {
		t.Errorf("table output: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("table has %d lines", len(lines))
	}
	// Aligned columns: header and rows share prefix widths.
	if len(lines[1]) < len("Arch     Min") {
		t.Errorf("header too narrow: %q", lines[1])
	}
	var sb strings.Builder
	if _, err := tb.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != out {
		t.Error("WriteTo differs from String")
	}
}

func TestFormatters(t *testing.T) {
	if got := FormatDuration(26300 * time.Millisecond); got != "26.3" {
		t.Errorf("FormatDuration = %q", got)
	}
	if got := FormatJoules(2762.4); got != "2762" {
		t.Errorf("FormatJoules = %q", got)
	}
	if got := FormatGB(1_590_000_000); got != "1.59" {
		t.Errorf("FormatGB = %q", got)
	}
	if got := FormatSpeedup(1.19); got != "19%" {
		t.Errorf("FormatSpeedup = %q", got)
	}
	if got := FormatSpeedup(4.53); got != "353%" {
		t.Errorf("FormatSpeedup(4.53) = %q", got)
	}
	if FormatSpeedup(0) != "-" || FormatSpeedup(math.NaN()) != "-" {
		t.Error("degenerate speedups not dashed")
	}
}
