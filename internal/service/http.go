package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// HTTP transport for the service, mounted by cmd/silserver. Every route
// is versioned under /v1/:
//
//	POST /v1/analyze  {"source": "...", "roots": [...]}           single
//	POST /v1/analyze  {"programs": [{...}, {...}]}                batch
//	GET  /v1/stats    service counters + Space tables
//	GET  /v1/metrics  Prometheus text exposition (metrics.go)
//	GET  /v1/healthz  liveness + current epoch
//
// Responses for /v1/analyze carry the canonical result document(s) as the
// body. Cache status is reported OUT OF BAND in the X-Sil-Cache header
// ("hit" / "miss", comma-joined for batches), so a cached response body is
// byte-identical to the fresh one — the property the e2e smoke test pins.
//
// Every failure, at every route, uses one envelope:
//
//	{"error": {"code": "...", "message": "...", "diagnostics": [...]}}
//
// with the machine-readable Code* vocabulary (service.go): parse_error and
// invalid_request behind 400, overloaded behind 429 (+ Retry-After),
// budget_exceeded behind 503, deadline_exceeded behind 504, canceled
// behind 499, internal behind 500. Each request runs under a context
// derived from the client connection plus the service RequestTimeout, so
// a hung client or an expired deadline frees the session pool at the next
// round barrier instead of stalling it.

// CacheHeader is the response header carrying per-program cache verdicts.
const CacheHeader = "X-Sil-Cache"

// FingerprintHeader carries the canonical program fingerprint(s).
const FingerprintHeader = "X-Sil-Fingerprint"

type analyzeRequest struct {
	Programs []Request `json:"programs"`
	Request            // single-program shorthand: fields inline
}

// errorBody is the inner object of the v1 error envelope.
type errorBody struct {
	// Code is the machine-readable error code (Code* constants).
	Code string `json:"code"`
	// Message is the human-readable rendering.
	Message string `json:"message"`
	// Name labels the failing program in batch errors.
	Name string `json:"name,omitempty"`
	// Diagnostics carries compile diagnostics behind parse_error.
	Diagnostics []string `json:"diagnostics,omitempty"`
}

// errorEnvelope is the uniform failure document of every v1 route.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

// writeError emits the envelope with transport concerns attached: the
// Retry-After hint on 429 (admission sheds are retryable by design — the
// queue was full, not the request wrong).
func writeError(w http.ResponseWriter, status int, body errorBody) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorEnvelope{Error: body})
}

func requestErrorBody(name string, rerr *RequestError) errorBody {
	return errorBody{Code: rerr.Code, Message: rerr.Msg, Name: name, Diagnostics: rerr.Diags}
}

// NewHandler builds the HTTP API around a Service; the service
// RequestTimeout bounds each request's context.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, errorBody{Code: CodeInvalidRequest, Message: "POST required"})
			return
		}
		ctx := r.Context()
		if timeout := s.opts.RequestTimeout; timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		var req analyzeRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, errorBody{Code: CodeInvalidRequest, Message: "bad request body: " + err.Error()})
			return
		}
		// Decode reads one JSON value and stops; anything after it is a
		// malformed request, not something to ignore.
		if err := dec.Decode(&struct{}{}); err != io.EOF {
			writeError(w, http.StatusBadRequest, errorBody{Code: CodeInvalidRequest, Message: "bad request body: trailing data after the JSON object"})
			return
		}
		single := len(req.Programs) == 0
		reqs := req.Programs
		if single {
			if strings.TrimSpace(req.Source) == "" {
				writeError(w, http.StatusBadRequest, errorBody{Code: CodeInvalidRequest, Message: "no source and no programs in request"})
				return
			}
			reqs = []Request{req.Request}
		}
		resps := s.AnalyzeBatch(ctx, reqs)

		status := http.StatusOK
		var errs []errorBody
		cacheVerdicts := make([]string, len(resps))
		fps := make([]string, len(resps))
		for i, resp := range resps {
			cacheVerdicts[i] = verdict(resp)
			fps[i] = resp.Fingerprint
			if resp.Err != nil {
				errs = append(errs, requestErrorBody(resp.Name, resp.Err))
				if resp.Err.Status > status {
					status = resp.Err.Status
				}
			}
		}
		w.Header().Set(CacheHeader, strings.Join(cacheVerdicts, ","))
		w.Header().Set(FingerprintHeader, strings.Join(fps, ","))
		if single && len(errs) > 0 {
			writeError(w, status, errs[0])
			return
		}
		if single {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			w.Write(resps[0].Body)
			w.Write([]byte("\n"))
			return
		}
		// Batch envelope: the per-program documents verbatim, in request
		// order (null for a failed program) — still deterministic bytes for
		// a deterministic batch. A partial failure keeps the successful
		// results: the clean programs were analyzed and cached, so the body
		// carries them alongside the errors array rather than making the
		// client strip the bad program and pay for the batch again.
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write([]byte(`{"results":[`))
		for i, resp := range resps {
			if i > 0 {
				w.Write([]byte(","))
			}
			if resp.Err != nil {
				w.Write([]byte("null"))
			} else {
				w.Write(resp.Body)
			}
		}
		w.Write([]byte("]"))
		if len(errs) > 0 {
			if data, err := json.Marshal(errs); err == nil {
				w.Write([]byte(`,"errors":`))
				w.Write(data)
			}
		}
		w.Write([]byte("}\n"))
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, errorBody{Code: CodeInvalidRequest, Message: "GET required"})
			return
		}
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, errorBody{Code: CodeInvalidRequest, Message: "GET required"})
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteMetrics(w)
	})
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, errorBody{Code: CodeInvalidRequest, Message: "GET required"})
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Status string `json:"status"`
			Epoch  uint64 `json:"epoch"`
		}{"ok", s.Stats().Epoch})
	})
	return mux
}

func verdict(r Response) string {
	if r.Err != nil {
		return "error"
	}
	if r.Cached {
		return "hit"
	}
	return "miss"
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(w, `{"error":{"code":%q,"message":%q}}`, CodeInternal, err.Error())
		return
	}
	w.Write(data)
	w.Write([]byte("\n"))
}
