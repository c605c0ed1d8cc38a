package campaign

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve/cache"
	"repro/internal/serve/queue"
)

// TestCampaignResultsDoNotPinTheHotTier runs a few thousand tiny solves
// through the manager, a real scheduler and a cache fronted by precisiond's
// default 64 MiB hot tier. Landing reads every result once, which is no
// evidence of reuse, so the hot tier stays empty however many jobs the
// campaign served; a client reading a result afterwards warms it on its
// second read, as for any other result.
func TestCampaignResultsDoNotPinTheHotTier(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2100 solves")
	}
	c, err := cache.Open(t.TempDir(), cache.WithHotBytes(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	sched := queue.New(queue.Config{Workers: 2, QueueDepth: 64, Cache: c})
	m := New(Config{Sched: sched, Slots: 8, Obs: obs.NewRegistry()})
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); sched.Wait(); m.Wait() }()
	sched.Start(ctx)
	m.Start(ctx)

	const tols = 700
	vals := make([]any, tols)
	for i := range vals {
		vals[i] = 1e-6 + float64(i)*1e-9
	}
	gs := GeneratorSpec{
		Kind: KindGrid,
		Base: runner.ExperimentSpec{App: runner.AppCLAMR, Mode: "min", Steps: 5, NX: 16, NY: 16, MaxLevel: 1},
		Axes: []Axis{{Field: "dry_tol", Values: vals}, {Field: "mode", Values: []any{"min", "mixed", "full"}}},
	}
	camp, err := m.Submit(Spec{Generator: gs})
	if err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, camp)
	if a := camp.Aggregates(); a.Completed != 3*tols || a.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0", a.Completed, a.Failed, 3*tols)
	}

	s := c.Stats()
	if s.Puts != 3*tols || s.DiskHits != 3*tols {
		t.Errorf("puts=%d disk_hits=%d, want one put and one landing read per job (%d)", s.Puts, s.DiskHits, 3*tols)
	}
	if s.HotEntries != 0 || s.HotBytes != 0 {
		t.Fatalf("after %d campaign jobs the hot tier holds %d entries, %d bytes; want none", 3*tols, s.HotEntries, s.HotBytes)
	}

	spec, err := camp.gen.At(0)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	for read := 1; read <= 2; read++ {
		if _, src, ok := c.Fetch(hash); !ok || src != cache.SourceDisk {
			t.Fatalf("extra read %d = %q, %v; want a disk hit", read, src, ok)
		}
		if want, got := read-1, c.Stats().HotEntries; got != want {
			t.Fatalf("after extra read %d the hot tier holds %d entries, want %d", read, got, want)
		}
	}
	if _, src, _ := c.Fetch(hash); src != cache.SourceHot {
		t.Fatalf("third extra read = %q, want hot", src)
	}
}
