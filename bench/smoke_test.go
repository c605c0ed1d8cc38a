package main

import (
	"context"
	"os/exec"
	"testing"
	"time"
)

// TestSmokeReadWarm runs read_warm end to end against real servers with a
// two-second window: build, boot, preload, restart on a quarter-size hot
// tier, drive, verify. It is the only test here that starts processes.
func TestSmokeReadWarm(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain to build the servers with")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	env, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer env.cleanup()
	if err := env.buildServers(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(ctx, env, findWorkload("read_warm"), 1, 2*time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || len(res.Errors) != 0 {
		t.Fatalf("smoke run not correct: failed=%d errors=%v", res.Failed, res.Errors)
	}
	for _, name := range []string{"setup_s", "ops_per_s", "lat_p50_ms", "lat_p95_ms", "cpu_ms_per_op", "peak_rss_mb"} {
		if m, ok := res.EndToEnd[name]; !ok || m.Value <= 0 || m.Unit == "" {
			t.Errorf("end-to-end metric %s = %+v", name, m)
		}
	}
	if res.Env.HotBytes <= 0 || res.Env.PreloadKeys != readWarmKeys {
		t.Errorf("hot tier not sized from the preload: %+v", res.Env)
	}
	for _, kind := range []string{kindResubmit, kindRead200, kindRead304} {
		if res.ByKind[kind].Count == 0 {
			t.Errorf("no %s operations in the window", kind)
		}
	}
}
