package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"repro"
)

// Handler returns the server's HTTP surface:
//
//	POST /v1/mvnprob  — one MVN probability query (JSON, see wireRequest)
//	POST /v1/mvtprob  — one MVT probability query (requires "nu")
//	GET  /healthz     — liveness
//	GET  /stats       — Stats snapshot (counters, cache, latency)
//
// Error mapping: malformed requests → 400 with {"error","field"}, a
// covariance (or its requested approximation) that is not positive definite
// → 422, admission rejections → 503 with Retry-After, other compute
// failures → 500.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/mvnprob", s.handleProb(false))
	mux.HandleFunc("/v1/mvtprob", s.handleProb(true))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Snapshot())
	})
	return mux
}

func (s *Server) handleProb(mvt bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeErr(w, badReq("body", "use POST"), http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			writeErr(w, badReq("body", "%v", err), status)
			return
		}
		req, err := DecodeRequest(body, Limits{MaxDim: s.cfg.MaxDim})
		if err != nil {
			writeError(w, err)
			return
		}
		if mvt && req.Nu == 0 {
			writeError(w, badReq("nu", "degrees of freedom are required for mvtprob"))
			return
		}
		if !mvt && req.Nu != 0 {
			writeError(w, badReq("nu", "nu is only valid for /v1/mvtprob"))
			return
		}
		resp, err := s.Do(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// writeError maps a request-path error to its HTTP status.
func writeError(w http.ResponseWriter, err error) {
	var reqErr *RequestError
	switch {
	case errors.As(err, &reqErr):
		writeErr(w, reqErr, http.StatusBadRequest)
	case errors.Is(err, parmvn.ErrNotPositiveDefinite):
		// The request is well formed but its covariance, or the approximation
		// of it the request asked for, admits no Cholesky factor.
		writeErr(w, err, http.StatusUnprocessableEntity)
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeErr(w, err, http.StatusServiceUnavailable)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away or timed out; 499 is conventional but not in
		// net/http, so report the nearest standard status.
		writeErr(w, err, http.StatusRequestTimeout)
	default:
		writeErr(w, err, http.StatusInternalServerError)
	}
}

func writeErr(w http.ResponseWriter, err error, status int) {
	resp := errorResponse{Error: err.Error()}
	var reqErr *RequestError
	if errors.As(err, &reqErr) {
		resp.Field = reqErr.Field
	}
	writeJSON(w, status, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
