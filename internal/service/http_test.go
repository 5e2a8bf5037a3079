package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/progs"
)

func post(t *testing.T, srv *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestHTTPCacheHitByteIdentical is the in-process version of the CI e2e
// smoke: post one corpus program twice; the second response must be a
// cache hit (header) with a byte-identical body.
func TestHTTPCacheHitByteIdentical(t *testing.T) {
	srv := httptest.NewServer(NewHandler(New(Options{})))
	defer srv.Close()
	body, _ := json.Marshal(Request{Name: "treeadd", Source: progs.TreeAdd, Roots: []string{"root"}})

	first, firstBody := post(t, srv, string(body))
	if first.StatusCode != 200 {
		t.Fatalf("first POST: status %d: %s", first.StatusCode, firstBody)
	}
	if v := first.Header.Get(CacheHeader); v != "miss" {
		t.Errorf("first POST: %s = %q, want miss", CacheHeader, v)
	}
	second, secondBody := post(t, srv, string(body))
	if second.StatusCode != 200 {
		t.Fatalf("second POST: status %d", second.StatusCode)
	}
	if v := second.Header.Get(CacheHeader); v != "hit" {
		t.Errorf("second POST: %s = %q, want hit", CacheHeader, v)
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Error("cache hit body differs from fresh body")
	}
	if fp := second.Header.Get(FingerprintHeader); fp == "" || fp != first.Header.Get(FingerprintHeader) {
		t.Error("fingerprint header missing or unstable")
	}
}

// TestHTTPBatch posts the whole corpus as one batch and cross-checks every
// embedded document against single-program responses.
func TestHTTPBatch(t *testing.T) {
	srv := httptest.NewServer(NewHandler(New(Options{})))
	defer srv.Close()
	batch, _ := json.Marshal(struct {
		Programs []Request `json:"programs"`
	}{corpusRequests()})
	resp, data := post(t, srv, string(batch))
	if resp.StatusCode != 200 {
		t.Fatalf("batch POST: status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("batch body is not valid JSON: %v\n%s", err, data)
	}
	if len(out.Results) != len(progs.Catalog) {
		t.Fatalf("batch returned %d results, want %d", len(out.Results), len(progs.Catalog))
	}
	verdicts := strings.Split(resp.Header.Get(CacheHeader), ",")
	if len(verdicts) != len(out.Results) {
		t.Errorf("cache header has %d verdicts, want %d", len(verdicts), len(out.Results))
	}
	// Each document matches a single-program request (all cached now).
	for i, e := range progs.Catalog {
		body, _ := json.Marshal(Request{Name: e.Name, Source: e.Source, Roots: e.Roots})
		single, singleBody := post(t, srv, string(body))
		if single.Header.Get(CacheHeader) != "hit" {
			t.Errorf("%s: batch did not warm the cache", e.Name)
		}
		if !bytes.Equal(bytes.TrimSpace(singleBody), bytes.TrimSpace(out.Results[i])) {
			t.Errorf("%s: batch document differs from single response", e.Name)
		}
	}
}

// TestHTTPParseErrorIs400 checks the error contract over the wire.
func TestHTTPParseErrorIs400(t *testing.T) {
	srv := httptest.NewServer(NewHandler(New(Options{})))
	defer srv.Close()
	body, _ := json.Marshal(Request{Source: "program broken\nprocedure main()\nbegin\n  x :=\nend;"})
	resp, data := post(t, srv, string(body))
	if resp.StatusCode != 400 {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
	}
	var doc errorEnvelope
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Error.Code != CodeParseError || doc.Error.Message == "" || len(doc.Error.Diagnostics) == 0 {
		t.Errorf("400 envelope must carry code=parse_error, message, and diagnostics: %s", data)
	}
	// Malformed JSON and empty requests are also 400s, with the
	// invalid_request code.
	if resp, data := post(t, srv, "{"); resp.StatusCode != 400 || !strings.Contains(string(data), CodeInvalidRequest) {
		t.Errorf("malformed JSON: status %d body %s, want 400 invalid_request", resp.StatusCode, data)
	}
	if resp, _ := post(t, srv, "{}"); resp.StatusCode != 400 {
		t.Errorf("empty request: status %d, want 400", resp.StatusCode)
	}
	// A valid request followed by more JSON or garbage is rejected whole,
	// not served from its first value.
	trailing := `{"source":"program p\nprocedure main()\nbegin\nend;"} {"bogus":1} trailing garbage`
	if resp, data := post(t, srv, trailing); resp.StatusCode != 400 || !strings.Contains(string(data), CodeInvalidRequest) {
		t.Errorf("trailing data: status %d body %s, want 400 invalid_request", resp.StatusCode, data)
	}
	// The retired context-table cap is an unknown field now.
	capped := `{"source":"program p\nprocedure main()\nbegin\nend;","max_contexts":1}`
	if resp, data := post(t, srv, capped); resp.StatusCode != 400 || !strings.Contains(string(data), CodeInvalidRequest) {
		t.Errorf("max_contexts: status %d body %s, want 400 invalid_request", resp.StatusCode, data)
	}
}

// TestHTTPStatsAndHealthz exercises the monitoring endpoints.
func TestHTTPStatsAndHealthz(t *testing.T) {
	srv := httptest.NewServer(NewHandler(New(Options{})))
	defer srv.Close()
	resp, data := get(t, srv, "/v1/healthz")
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/healthz: status %d", resp.StatusCode)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(data, &hz); err != nil || hz.Status != "ok" {
		t.Errorf("/v1/healthz body: %s (err=%v)", data, err)
	}
	body, _ := json.Marshal(Request{Name: "dagdemo", Source: progs.TreeDagDemo})
	post(t, srv, string(body))
	post(t, srv, string(body))
	resp, data = get(t, srv, "/v1/stats")
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/stats: status %d", resp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Served != 2 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("unexpected stats after two posts: %s", st)
	}
	// Method checks.
	if resp, _ := get(t, srv, "/v1/analyze"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze: status %d, want 405", resp.StatusCode)
	}
	if resp, err := srv.Client().Post(srv.URL+"/v1/stats", "application/json", strings.NewReader("{}")); err == nil {
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST /v1/stats: status %d, want 405", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestHTTPBatchPartialFailure: a batch with one broken program keeps the
// successful results (null at the failed slot) alongside the errors array,
// under the error status.
func TestHTTPBatchPartialFailure(t *testing.T) {
	srv := httptest.NewServer(NewHandler(New(Options{})))
	defer srv.Close()
	batch, _ := json.Marshal(struct {
		Programs []Request `json:"programs"`
	}{[]Request{
		{Name: "good", Source: progs.TreeDagDemo},
		{Name: "bad", Source: "program broken\nprocedure main()\nbegin\n  x :=\nend;"},
	}})
	resp, data := post(t, srv, string(batch))
	if resp.StatusCode != 400 {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
	}
	var out struct {
		Results []json.RawMessage `json:"results"`
		Errors  []errorBody       `json:"errors"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("partial-failure body is not valid JSON: %v\n%s", err, data)
	}
	if len(out.Results) != 2 || len(out.Errors) != 1 {
		t.Fatalf("want 2 results and 1 error, got %d/%d: %s", len(out.Results), len(out.Errors), data)
	}
	var doc ResultDoc
	if err := json.Unmarshal(out.Results[0], &doc); err != nil || doc.Name != "dagdemo" {
		t.Errorf("successful result must survive a partial failure (err=%v doc=%+v)", err, doc)
	}
	if string(out.Results[1]) != "null" {
		t.Errorf("failed slot must be null, got %s", out.Results[1])
	}
	if out.Errors[0].Name != "bad" || out.Errors[0].Code != CodeParseError || len(out.Errors[0].Diagnostics) == 0 {
		t.Errorf("error entry must name the program, carry code=parse_error and diagnostics: %+v", out.Errors[0])
	}
	if v := resp.Header.Get(CacheHeader); v != "miss,error" {
		t.Errorf("%s = %q, want miss,error", CacheHeader, v)
	}
}

// TestHTTPDeepNestingIsParseError: ten megabytes of nested parentheses —
// under the body cap — answer 400 parse_error, and the server keeps
// serving. Without the parser's nesting cap this request overflowed the
// goroutine stack, a fatal error that took the whole process down.
func TestHTTPDeepNestingIsParseError(t *testing.T) {
	srv := httptest.NewServer(NewHandler(New(Options{})))
	defer srv.Close()
	const depth = 5_000_000
	src := "program deep\nprocedure main()\n  x: int\nbegin\n  x := " +
		strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth) + "\nend;\n"
	body, _ := json.Marshal(Request{Source: src})

	resp, data := post(t, srv, string(body))
	if resp.StatusCode != 400 {
		t.Fatalf("deep nesting: status %d, want 400: %.200s", resp.StatusCode, data)
	}
	var env errorEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Error.Code != CodeParseError {
		t.Fatalf("deep nesting: envelope %.200s (err %v), want code %s", data, err, CodeParseError)
	}
	if resp, data := get(t, srv, "/v1/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz after deep nesting: status %d: %s", resp.StatusCode, data)
	}
}
