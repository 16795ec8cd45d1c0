package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro"
)

// RequestError is the typed error for every malformed request: decode
// failures, structural problems and engine-level validation alike. The HTTP
// layer maps it to 400; everything else on the request path is either
// ErrOverloaded (503) or a compute failure (500).
type RequestError struct {
	// Field names what was wrong ("body", "locs", "grid", "kernel",
	// "limits", "nu", "method", "sweep").
	Field string
	// Reason says why.
	Reason string
}

func (e *RequestError) Error() string {
	return "serve: bad request: " + e.Field + ": " + e.Reason
}

func badReq(field, format string, args ...any) *RequestError {
	return &RequestError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Request is one decoded, engine-ready probability query.
type Request struct {
	// Locs is the location set defining the covariance.
	Locs []parmvn.Point
	// Kernel is the covariance kernel specification.
	Kernel parmvn.KernelSpec
	// A, B are the integration limits (±Inf for half-open boxes).
	A, B []float64
	// Nu > 0 makes this a Student-t query with ν = Nu.
	Nu float64
	// Method optionally overrides the server's default factorization
	// method: "dense", "tlr" or "adaptive" ("" = server default).
	Method string
	// MaxError > 0 is the requested relative-error budget: the integration
	// runs incremental sample waves and stops as soon as its streaming
	// error estimate meets the budget. Under queue pressure the server may
	// degrade (loosen) this budget up to a floor of 0.01 instead of
	// rejecting the request; the response reports the budget actually
	// applied. 0 = fixed-size integration.
	MaxError float64
	// DeadlineMs > 0 caps the query's integration wall clock in
	// milliseconds, measured from admission. A blown deadline still returns
	// the running estimate with its error bar (converged=false) rather than
	// an error. 0 = no deadline.
	DeadlineMs float64
}

// Response is the wire result of one query.
type Response struct {
	Prob   float64 `json:"prob"`
	StdErr float64 `json:"stderr"`
	N      int     `json:"n"`
	Method string  `json:"method"`
	// RelErr is the achieved relative-error estimate StdErr/|Prob| (omitted
	// when no replicate spread was computed, or when the estimate is zero
	// with nonzero spread — a relative error would be infinite).
	RelErr float64 `json:"rel_err,omitempty"`
	// Samples is the number of QMC samples the query actually paid, across
	// all replicates; under a budget this is where the waves stopped.
	Samples int `json:"samples,omitempty"`
	// Converged reports that the integration met the applied max_error
	// before exhausting its sample, deadline or context budget.
	Converged bool `json:"converged,omitempty"`
	// Canceled reports that the request context was canceled
	// mid-integration; prob/stderr hold the partial estimate.
	Canceled bool `json:"canceled,omitempty"`
	// MaxError is the relative-error budget the query actually ran with —
	// the requested max_error, or the degraded (loosened) budget admission
	// control applied under load.
	MaxError float64 `json:"max_error,omitempty"`
	// Degraded reports that admission control loosened the error budget
	// under queue pressure (max_error > the requested budget).
	Degraded bool `json:"degraded,omitempty"`
	// Coalesced reports that this request waited on another request's
	// factorization instead of starting its own.
	Coalesced bool    `json:"coalesced,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// errorResponse is the wire form of a request failure.
type errorResponse struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
}

// Limits bounds what DecodeRequest accepts before any memory proportional
// to the request is committed.
type Limits struct {
	// MaxDim caps the problem dimension (locations, and nx*ny for grids).
	MaxDim int
}

// wireKernel is the JSON kernel spec.
type wireKernel struct {
	Family string  `json:"family"`
	Sigma2 float64 `json:"sigma2"`
	Range  float64 `json:"range"`
	Nu     float64 `json:"nu"`
	Nugget float64 `json:"nugget"`
}

// wireGrid asks for a regular nx×ny grid on the unit square instead of an
// explicit location list.
type wireGrid struct {
	NX int `json:"nx"`
	NY int `json:"ny"`
}

// wireRequest is the JSON request schema shared by /v1/mvnprob and
// /v1/mvtprob:
//
//	{
//	  "locs":   [[x,y], ...]            // or "grid": {"nx":…, "ny":…}
//	  "kernel": {"family":"exponential", "range":0.1, …},
//	  "a": [null, -0.5, …],             // per-dimension lower limits, null = -Inf
//	  "b": [1.0, null, …],              // per-dimension upper limits, null = +Inf
//	  "lower": -0.5, "upper": 1.0,      // or broadcast scalars instead of a/b
//	  "nu": 7,                          // mvtprob only: degrees of freedom
//	  "method": "tlr",                  // optional: dense | tlr | adaptive
//	  "sweep": "f64",                   // optional: only f64, the one sweep
//	  "max_error": 1e-3,                // optional: relative-error budget (early stop)
//	  "deadline_ms": 50                 // optional: integration wall-clock cap
//	}
//
// Sweep is read only to refuse a request for the removed float32 sweep: ""
// and "f64" name the one sweep, anything else is a 400.
type wireRequest struct {
	Locs       [][]float64 `json:"locs"`
	Grid       *wireGrid   `json:"grid"`
	Kernel     *wireKernel `json:"kernel"`
	A          []*float64  `json:"a"`
	B          []*float64  `json:"b"`
	Lower      *float64    `json:"lower"`
	Upper      *float64    `json:"upper"`
	Nu         float64     `json:"nu"`
	Method     string      `json:"method"`
	Sweep      string      `json:"sweep"`
	MaxError   float64     `json:"max_error"`
	DeadlineMs float64     `json:"deadline_ms"`
}

// DecodeRequest parses and structurally validates one JSON request body.
// Every failure — malformed JSON, out-of-range numbers, mutually exclusive
// or mis-sized fields, dimensions beyond lim.MaxDim — is a *RequestError;
// DecodeRequest never panics on any input. Engine-level validation (kernel
// parameter ranges, NaN limits) runs again in Server.Do with the same typed
// errors, so in-process callers constructing a Request by hand get identical
// treatment.
func DecodeRequest(data []byte, lim Limits) (*Request, error) {
	if lim.MaxDim <= 0 {
		lim.MaxDim = 16384
	}
	if len(bytes.TrimSpace(data)) == 0 {
		return nil, badReq("body", "empty request body")
	}
	var w wireRequest
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, badReq("body", "%v", err)
	}

	if w.Sweep != "" && w.Sweep != "f64" {
		return nil, badReq("sweep", "sweep %q: only \"f64\" is accepted (the float32 sweep was removed)", w.Sweep)
	}
	req := &Request{
		Nu: w.Nu, Method: w.Method,
		MaxError: w.MaxError, DeadlineMs: w.DeadlineMs,
	}
	if err := validBudgets(req.MaxError, req.DeadlineMs); err != nil {
		return nil, err
	}
	switch {
	case w.Grid != nil && len(w.Locs) > 0:
		return nil, badReq("grid", "locs and grid are mutually exclusive")
	case w.Grid != nil:
		if w.Grid.NX <= 0 || w.Grid.NY <= 0 {
			return nil, badReq("grid", "nx and ny must be positive, got %d×%d", w.Grid.NX, w.Grid.NY)
		}
		if w.Grid.NX > lim.MaxDim || w.Grid.NY > lim.MaxDim || w.Grid.NX*w.Grid.NY > lim.MaxDim {
			return nil, badReq("grid", "dimension %d×%d exceeds the limit %d", w.Grid.NX, w.Grid.NY, lim.MaxDim)
		}
		req.Locs = parmvn.Grid(w.Grid.NX, w.Grid.NY)
	case len(w.Locs) > 0:
		if len(w.Locs) > lim.MaxDim {
			return nil, badReq("locs", "dimension %d exceeds the limit %d", len(w.Locs), lim.MaxDim)
		}
		req.Locs = make([]parmvn.Point, len(w.Locs))
		for i, p := range w.Locs {
			if len(p) != 2 {
				return nil, badReq("locs", "location %d has %d coordinates, want 2", i, len(p))
			}
			if !finite(p[0]) || !finite(p[1]) {
				return nil, badReq("locs", "location %d is not finite", i)
			}
			req.Locs[i] = parmvn.Point{X: p[0], Y: p[1]}
		}
	default:
		return nil, badReq("locs", "one of locs or grid is required")
	}
	n := len(req.Locs)

	if w.Kernel == nil {
		return nil, badReq("kernel", "kernel is required")
	}
	req.Kernel = parmvn.KernelSpec{
		Family: w.Kernel.Family, Sigma2: w.Kernel.Sigma2,
		Range: w.Kernel.Range, Nu: w.Kernel.Nu, Nugget: w.Kernel.Nugget,
	}

	var err error
	if req.A, err = limitVector("a", w.A, w.Lower, n, math.Inf(-1)); err != nil {
		return nil, err
	}
	if req.B, err = limitVector("b", w.B, w.Upper, n, math.Inf(1)); err != nil {
		return nil, err
	}
	return req, nil
}

// limitVector resolves one side of the integration box from the explicit
// per-dimension array (null entries = open side), the broadcast scalar, or —
// with neither — the fully open side.
func limitVector(field string, arr []*float64, scalar *float64, n int, open float64) ([]float64, error) {
	if arr != nil && scalar != nil {
		scalarName := "lower"
		if field == "b" {
			scalarName = "upper"
		}
		return nil, badReq(field, "%s and %s are mutually exclusive", field, scalarName)
	}
	out := make([]float64, n)
	switch {
	case arr != nil:
		if len(arr) != n {
			return nil, badReq(field, "length %d != dimension %d", len(arr), n)
		}
		for i, v := range arr {
			if v == nil {
				out[i] = open
				continue
			}
			if math.IsNaN(*v) {
				return nil, badReq(field, "entry %d is NaN", i)
			}
			out[i] = *v
		}
	case scalar != nil:
		if math.IsNaN(*scalar) {
			return nil, badReq(field, "broadcast limit is NaN")
		}
		for i := range out {
			out[i] = *scalar
		}
	default:
		for i := range out {
			out[i] = open
		}
	}
	return out, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// validBudgets accepts the per-request accuracy/latency budgets: both
// optional (0 = unset), both non-negative, max_error below 1 (a
// relative-error budget of 1 or more stops after the first wave regardless
// of the estimate — certainly a client mistake), deadline_ms short enough to
// be a time.Duration (a longer one would overflow into an expired deadline
// in Server.queryOpts). Shared by DecodeRequest and Server.do.
func validBudgets(maxError, deadlineMs float64) error {
	if math.IsNaN(maxError) || maxError < 0 || maxError >= 1 {
		return badReq("max_error", "relative-error budget %g must be in [0,1)", maxError)
	}
	if !(deadlineMs >= 0 && deadlineMs*float64(time.Millisecond) < math.MaxInt64) {
		return badReq("deadline_ms", "deadline %g must be non-negative and fit a time.Duration", deadlineMs)
	}
	return nil
}
