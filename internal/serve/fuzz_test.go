package serve

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
)

// FuzzDecodeRequest pins the request decoder's contract on arbitrary bytes:
// it never panics, and every rejection is a typed *RequestError (so the
// HTTP layer can always map it to a 400 with a field name). When a body is
// accepted, the decoded request must be structurally sound — consistent
// dimensions, no NaN limits, dimension within the configured cap — because
// everything downstream (routing, the engine call) assumes it.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`not json at all`,
		`{"grid":{"nx":3,"ny":3},"kernel":{"family":"exponential","range":0.2},"lower":-1}`,
		`{"locs":[[0,0],[0.5,0.5]],"kernel":{"family":"matern","range":0.1,"nu":1.5},"a":[null,-1],"b":[1,null]}`,
		`{"locs":[[0,0],[1]],"kernel":{"family":"exponential","range":0.2}}`,
		`{"grid":{"nx":100000,"ny":100000},"kernel":{"family":"exponential","range":0.2}}`,
		`{"grid":{"nx":-3,"ny":2},"kernel":{"family":"exponential","range":0.2}}`,
		`{"locs":[[0,0]],"grid":{"nx":2,"ny":2},"kernel":{"family":"exponential","range":0.2}}`,
		`{"grid":{"nx":2,"ny":2},"kernel":{"family":"cubic","range":-1}}`,
		`{"grid":{"nx":2,"ny":2},"kernel":{"family":"exponential","range":0.2},"a":[0,0,0],"b":[1,1,1,1]}`,
		`{"grid":{"nx":2,"ny":2},"kernel":{"family":"exponential","range":0.2},"a":[0,0,0,0],"lower":-1}`,
		`{"grid":{"nx":2,"ny":2},"kernel":{"family":"exponential","range":0.2},"nu":-5,"method":"sparse"}`,
		`{"grid":{"nx":2,"ny":2},"kernel":{"family":"exponential","range":1e999}}`,
		`{"locs":[[1e999,0]],"kernel":{"family":"exponential","range":0.2}}`,
		`[1,2,3]`,
		`{"a":[0],"b":[1]}`,
		`{"grid":{"nx":1,"ny":1},"kernel":{"family":"powexp","range":0.3,"nu":2},"a":[-0.5],"b":[0.5],"nu":3,"method":"tlr"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	lim := Limits{MaxDim: 4096}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data, lim)
		if err != nil {
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("error is %T (%v), want *RequestError", err, err)
			}
			if reqErr.Field == "" || reqErr.Reason == "" {
				t.Fatalf("request error missing field/reason: %+v", reqErr)
			}
			return
		}
		n := len(req.Locs)
		if n <= 0 || n > lim.MaxDim {
			t.Fatalf("accepted dimension %d outside (0,%d]", n, lim.MaxDim)
		}
		if len(req.A) != n || len(req.B) != n {
			t.Fatalf("accepted limits of lengths %d,%d for dimension %d", len(req.A), len(req.B), n)
		}
		for i := range req.A {
			if math.IsNaN(req.A[i]) || math.IsNaN(req.B[i]) {
				t.Fatalf("accepted NaN limit at %d", i)
			}
		}
		for i, p := range req.Locs {
			if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
				t.Fatalf("accepted non-finite location %d: %+v", i, p)
			}
		}
	})
}

// FuzzDecodeRequestStructured drives the decoder with syntactically valid
// JSON assembled from fuzzed numeric fields, reaching past the parse layer
// into the structural checks far more often than raw bytes do.
func FuzzDecodeRequestStructured(f *testing.F) {
	f.Add(3, 3, 0.2, -1.0, 1.0, 0.0, "exponential", "")
	f.Add(2, 2, 0.1, -0.5, 0.5, 5.0, "matern", "tlr")
	f.Add(-1, 7, -0.3, 2.0, -2.0, -1.0, "cubic", "sparse")
	f.Add(1000000, 1000000, 0.0, 0.0, 0.0, 0.0, "", "adaptive")
	f.Fuzz(func(t *testing.T, nx, ny int, rng, lo, hi, nu float64, family, method string) {
		body, err := json.Marshal(map[string]any{
			"grid":   map[string]any{"nx": nx, "ny": ny},
			"kernel": map[string]any{"family": family, "range": rng, "nu": nu},
			"lower":  lo, "upper": hi, "method": method,
		})
		if err != nil {
			return // NaN/Inf fields are not representable in JSON
		}
		req, err := DecodeRequest(body, Limits{MaxDim: 1024})
		if err != nil {
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("error is %T (%v), want *RequestError", err, err)
			}
			return
		}
		if n := len(req.Locs); n <= 0 || n > 1024 || len(req.A) != n || len(req.B) != n {
			t.Fatalf("accepted inconsistent request: n=%d a=%d b=%d", len(req.Locs), len(req.A), len(req.B))
		}
	})
}
