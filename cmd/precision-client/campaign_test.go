package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestGridResultFallsBackToContentAddress: a grid index whose job the
// daemon has forgotten (404 on the job ID) is read by spec hash instead,
// while a job the daemon still holds is read by ID.
func TestGridResultFallsBackToContentAddress(t *testing.T) {
	var mu sync.Mutex
	var reads []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reads = append(reads, r.URL.Path)
		mu.Unlock()
		switch r.URL.Path {
		case "/v1/jobs/job-000002/result":
			fmt.Fprint(w, `{"by":"id"}`)
		case "/v1/results/aaaa":
			fmt.Fprint(w, `{"by":"hash"}`)
		default:
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"unknown job"}`)
		}
	}))
	defer srv.Close()

	for _, tc := range []struct {
		v    viewAt
		want string
		path []string
	}{
		{viewAt{id: "job-000001", specHash: "aaaa"}, `{"by":"hash"}`, []string{"/v1/jobs/job-000001/result", "/v1/results/aaaa"}},
		{viewAt{id: "job-000002", specHash: "bbbb"}, `{"by":"id"}`, []string{"/v1/jobs/job-000002/result"}},
	} {
		mu.Lock()
		reads = nil
		mu.Unlock()
		got, err := gridResult(srv.URL, tc.v, 0)
		if err != nil || string(got) != tc.want {
			t.Errorf("gridResult(%s) = %q, %v; want %q", tc.v.id, got, err, tc.want)
		}
		mu.Lock()
		read := fmt.Sprint(reads)
		mu.Unlock()
		if read != fmt.Sprint(tc.path) {
			t.Errorf("gridResult(%s) read %s, want %v", tc.v.id, read, tc.path)
		}
	}

	// Forgotten job and no result under its hash: the 404 stands.
	if got, err := gridResult(srv.URL, viewAt{id: "job-000003", specHash: "cccc"}, 0); err == nil {
		t.Errorf("gridResult with neither job nor result = %q, want an error", got)
	}
}
