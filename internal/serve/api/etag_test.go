package api

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve/cache"
	"repro/internal/serve/queue"
)

// newTestServerAt is newTestServer with a caller-owned cache directory, so
// restart tests can rebuild the whole stack over the same store.
func newTestServerAt(t *testing.T, dir string, cfg queue.Config) (*httptest.Server, func()) {
	t.Helper()
	return newTestServerHot(t, dir, 1<<20, cfg)
}

// newTestServerHot is newTestServerAt with the hot tier's byte cap chosen.
func newTestServerHot(t *testing.T, dir string, hotBytes int64, cfg queue.Config) (*httptest.Server, func()) {
	t.Helper()
	c, err := cache.Open(dir, cache.WithHotBytes(hotBytes))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = c
	sched := queue.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	sched.Start(ctx)
	srv := httptest.NewServer(New(sched, c, WithPollInterval(5*time.Millisecond)))
	stop := func() {
		srv.Close()
		cancel()
		sched.Wait()
	}
	t.Cleanup(stop)
	return srv, stop
}

func get(t *testing.T, url, ifNoneMatch string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestETagRoundTrip(t *testing.T) {
	srv, _, _ := newTestServer(t, queue.Config{Workers: 1})
	v, _ := submit(t, srv, clamrSpec(4, "full"))

	url := srv.URL + "/v1/jobs/" + v.ID + "/result"
	resp, body := get(t, url, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first fetch status %d: %s", resp.StatusCode, body)
	}
	etag := resp.Header.Get("ETag")
	if etag != `"`+v.SpecHash+`"` {
		t.Fatalf("ETag = %q, want quoted spec hash %q", etag, v.SpecHash)
	}
	if len(body) == 0 {
		t.Fatal("empty result body")
	}

	// Revalidation hit: 304, no body, validator repeated.
	resp304, body304 := get(t, url, etag)
	if resp304.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match fetch status %d, want 304", resp304.StatusCode)
	}
	if len(body304) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body304))
	}
	if resp304.Header.Get("ETag") != etag {
		t.Fatalf("304 ETag = %q, want %q", resp304.Header.Get("ETag"), etag)
	}

	// Stale validator: full 200, byte-identical payload.
	respStale, bodyStale := get(t, url, `"0000000000000000000000000000000000000000000000000000000000000000"`)
	if respStale.StatusCode != http.StatusOK {
		t.Fatalf("stale-ETag fetch status %d, want 200", respStale.StatusCode)
	}
	if !bytes.Equal(bodyStale, body) {
		t.Fatal("stale-ETag refetch returned different bytes")
	}

	// Weak validators never match: byte-identity reads only.
	respWeak, _ := get(t, url, "W/"+etag)
	if respWeak.StatusCode != http.StatusOK {
		t.Fatalf("weak-ETag fetch status %d, want 200", respWeak.StatusCode)
	}
}

func TestResultByHashTieredRead(t *testing.T) {
	srv, _, _ := newTestServer(t, queue.Config{Workers: 1})
	v, _ := submit(t, srv, selfSpec(6, "full"))
	direct := fetchResult(t, srv, v.ID)

	url := srv.URL + "/v1/results/" + v.SpecHash
	resp, body := get(t, url, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, direct) {
		t.Fatal("hash read differs from job result read")
	}
	if tier := resp.Header.Get("X-Read-Tier"); tier == "" {
		t.Error("no X-Read-Tier header")
	}

	// Revalidation never touches a tier: 304 straight off the validator.
	resp304, body304 := get(t, url, resp.Header.Get("ETag"))
	if resp304.StatusCode != http.StatusNotModified || len(body304) != 0 {
		t.Fatalf("revalidation = %d with %d bytes, want bare 304", resp304.StatusCode, len(body304))
	}

	// Unknown hash: 404 miss.
	respMiss, _ := get(t, srv.URL+"/v1/results/"+"ab"+v.SpecHash[2:4]+v.SpecHash[4:], "")
	if respMiss.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown hash status %d, want 404", respMiss.StatusCode)
	}
}

// TestETagStableAcrossRestart rebuilds the daemon stack over the same cache
// directory and checks a validator handed out by the first incarnation
// still revalidates against the second: the ETag is derived from the spec
// hash, not process state.
func TestETagStableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	spec := clamrSpec(4, "full")

	srv1, stop1 := newTestServerAt(t, dir, queue.Config{Workers: 1})
	v1, _ := submit(t, srv1, spec)
	resp1, body1 := get(t, srv1.URL+"/v1/jobs/"+v1.ID+"/result", "")
	etag := resp1.Header.Get("ETag")
	if resp1.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("first incarnation: status %d, ETag %q", resp1.StatusCode, etag)
	}
	stop1()

	srv2, _ := newTestServerAt(t, dir, queue.Config{Workers: 1})
	v2, _ := submit(t, srv2, spec)
	if v2.SpecHash != v1.SpecHash {
		t.Fatalf("spec hash changed across restart: %s vs %s", v2.SpecHash, v1.SpecHash)
	}
	resp304, body304 := get(t, srv2.URL+"/v1/jobs/"+v2.ID+"/result", etag)
	if resp304.StatusCode != http.StatusNotModified || len(body304) != 0 {
		t.Fatalf("restarted daemon: status %d with %d bytes, want bare 304", resp304.StatusCode, len(body304))
	}
	// And without the validator, the restarted daemon serves the same bytes.
	respFull, bodyFull := get(t, srv2.URL+"/v1/results/"+v2.SpecHash, "")
	if respFull.StatusCode != http.StatusOK || !bytes.Equal(bodyFull, body1) {
		t.Fatalf("restarted daemon payload differs (status %d)", respFull.StatusCode)
	}
}

// TestDiskTierReadsBelowTinyHotTier sizes the hot tier below any payload, so
// nothing is ever admitted and every hash read is the disk tier's: the bytes
// are the first read's, each read is one disk hit and no put, and a matching
// validator short-circuits before any tier.
func TestDiskTierReadsBelowTinyHotTier(t *testing.T) {
	srv, _ := newTestServerHot(t, t.TempDir(), 512, queue.Config{Workers: 1})
	type stored struct {
		hash  string
		first []byte
	}
	var results []stored
	for steps := 3; steps <= 5; steps++ {
		v, _ := submit(t, srv, clamrSpec(steps, "full"))
		results = append(results, stored{v.SpecHash, fetchResult(t, srv, v.ID)})
	}
	n := uint64(len(results))

	before := fetchStats(t, srv).Cache
	etags := make([]string, len(results))
	for i, r := range results {
		resp, body := get(t, srv.URL+"/v1/results/"+r.hash, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("hash read status %d: %s", resp.StatusCode, body)
		}
		if tier := resp.Header.Get("X-Read-Tier"); tier != "disk" {
			t.Errorf("X-Read-Tier = %q, want disk", tier)
		}
		if !bytes.Equal(body, r.first) {
			t.Errorf("disk read of %s differs from the first read", r.hash[:12])
		}
		etags[i] = resp.Header.Get("ETag")
	}
	after := fetchStats(t, srv).Cache
	if got := after.DiskHits - before.DiskHits; got != n {
		t.Errorf("disk_hits grew by %d, want %d", got, n)
	}
	if after.Puts != before.Puts || after.HotHits != before.HotHits || after.HotEntries != 0 {
		t.Errorf("puts %d→%d, hot_hits %d→%d, hot_entries %d; want no puts and nothing hot",
			before.Puts, after.Puts, before.HotHits, after.HotHits, after.HotEntries)
	}

	for i, r := range results {
		resp, body := get(t, srv.URL+"/v1/results/"+r.hash, etags[i])
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Errorf("revalidation = %d with %d bytes, want bare 304", resp.StatusCode, len(body))
		}
	}
	if reval := fetchStats(t, srv).Cache; reval.DiskHits != after.DiskHits || reval.Puts != after.Puts {
		t.Errorf("304s moved counters: disk_hits %d→%d, puts %d→%d",
			after.DiskHits, reval.DiskHits, after.Puts, reval.Puts)
	}
}

// TestJobScopedReadsOfExecutedJob: an executed job keeps its payload only in
// the cache, so reading its result or its trace is a cache read and counts
// as one; a matching If-None-Match is answered before any tier is touched.
func TestJobScopedReadsOfExecutedJob(t *testing.T) {
	srv, _, c := newTestServer(t, queue.Config{Workers: 1})
	v, _ := submit(t, srv, clamrSpec(4, "full"))
	url := srv.URL + "/v1/jobs/" + v.ID
	resp, body := get(t, url+"/result", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp.StatusCode, body)
	}
	if stored, ok := c.Get(v.SpecHash); !ok || !bytes.Equal(stored, body) {
		t.Fatal("job-scoped result differs from the cached payload")
	}
	hits := c.Stats().Hits // the result read and the Get above
	if hits != 2 {
		t.Fatalf("cache hits after one result read = %d, want 2", hits)
	}
	if resp304, _ := get(t, url+"/result", resp.Header.Get("ETag")); resp304.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status %d, want 304", resp304.StatusCode)
	}
	if got := c.Stats().Hits; got != hits {
		t.Errorf("a 304 read the cache: hits %d -> %d", hits, got)
	}
	if resp, body := get(t, url+"/trace", ""); resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"attempt"`)) {
		t.Fatalf("trace status %d, body %s", resp.StatusCode, body)
	}
	if got := c.Stats().Hits; got != hits+1 {
		t.Errorf("trace read: cache hits %d -> %d, want one more", hits, got)
	}
}
