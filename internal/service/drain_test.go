package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/progs"
)

// TestDrainGateRefusesAnalyzeKeepsObservability drives the graceful-drain
// contract: before Drain everything serves; after, analyze routes get 503
// with the draining code and a Retry-After hint, while healthz, stats,
// and metrics stay up for the orchestrator. The unversioned paths are
// not routes at all.
func TestDrainGateRefusesAnalyzeKeepsObservability(t *testing.T) {
	gate := NewDrainGate(NewHandler(New(Options{})))
	srv := httptest.NewServer(gate)
	defer srv.Close()
	body, _ := json.Marshal(Request{Name: "treeadd", Source: progs.TreeAdd, Roots: []string{"root"}})

	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pre-drain analyze: status %d, want 200", resp.StatusCode)
	}
	if gate.Draining() {
		t.Error("gate reports draining before Drain")
	}
	for _, tc := range []struct{ method, path string }{
		{http.MethodPost, "/analyze"},
		{http.MethodGet, "/stats"},
		{http.MethodGet, "/metrics"},
		{http.MethodGet, "/healthz"},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(string(body)))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404 (legacy unversioned route)", tc.method, tc.path, resp.StatusCode)
		}
	}

	gate.Drain()
	gate.Drain() // idempotent

	resp, err = http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining POST /v1/analyze: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining POST /v1/analyze: no Retry-After hint")
	}
	var env errorEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("draining POST /v1/analyze: bad envelope %q: %v", data, err)
	}
	if env.Error.Code != CodeDraining {
		t.Errorf("draining POST /v1/analyze: code %q, want %q", env.Error.Code, CodeDraining)
	}
	if got := gate.Refused(); got != 1 {
		t.Errorf("Refused() = %d, want 1", got)
	}

	for _, path := range []string{"/v1/healthz", "/v1/stats", "/v1/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("draining GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
}
