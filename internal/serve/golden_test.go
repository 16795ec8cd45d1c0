package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro"
)

// goldenTol is the tolerance for the checked-in expected probabilities.
//
// With a fixed configuration the whole pipeline is deterministic (default-
// seeded QMC, deterministic compression), so on one machine the results are
// bit-stable; the tolerance only has to absorb cross-architecture floating-
// point variation (FMA contraction, the CPUID-gated assembly kernels vs the
// portable fallbacks), which is orders of magnitude below it. Any serving-
// layer regression — wrong factor served, limits misrouted in batch fan-in,
// seed drift, tile-size changes — moves the result far more than 1e-6
// relative, so it cannot hide behind the engine's own tolerance tests.
const goldenTol = 1e-6

// goldenCase is one fixture problem with its recorded expected probability.
// The two tlr cases were re-recorded when TLR stopped truncating tiles past
// its tolerance: their one off-diagonal tile fails the probe at the rank
// limit and stays dense, so they now equal the dense factor's answers.
// Re-record after an intentional numerical change with:
//
//	GOLDEN_PRINT=1 go test -run TestGoldenEndToEnd ./internal/serve/
type goldenCase struct {
	name   string
	method string
	kernel parmvn.KernelSpec
	lower  float64
	upper  float64 // +Inf ⇒ half-open box
	nu     float64 // >0 ⇒ Student-t
	want   float64
}

var goldenCases = []goldenCase{
	{name: "dense-mvn-halfopen", method: "dense",
		kernel: parmvn.KernelSpec{Family: "exponential", Range: 0.3},
		lower:  -1, upper: math.Inf(1), want: 0.1573968786767614},
	{name: "tlr-mvn-halfopen", method: "tlr",
		kernel: parmvn.KernelSpec{Family: "exponential", Range: 0.3},
		lower:  -1, upper: math.Inf(1), want: 0.1573968786767614},
	{name: "adaptive-mvn-halfopen", method: "adaptive",
		kernel: parmvn.KernelSpec{Family: "exponential", Range: 0.3},
		lower:  -1, upper: math.Inf(1), want: 0.1573968786767614},
	{name: "dense-mvn-box-matern", method: "dense",
		kernel: parmvn.KernelSpec{Family: "matern", Range: 0.2, Nu: 1.5},
		lower:  -2, upper: 0.5, want: 0.02223374314744166},
	{name: "tlr-mvt", method: "tlr",
		kernel: parmvn.KernelSpec{Family: "exponential", Range: 0.3},
		lower:  -1, upper: math.Inf(1), nu: 6, want: 0.1652342687845313},
	{name: "adaptive-mvt-powexp", method: "adaptive",
		kernel: parmvn.KernelSpec{Family: "powexp", Range: 0.25, Nu: 1.4},
		lower:  -1.5, upper: 1.5, nu: 8, want: 0.1591949765160755},
}

// goldenServerConfig is the fixed configuration the goldens were recorded
// under. Changing it invalidates the recorded values.
func goldenServerConfig() Config {
	return Config{Session: parmvn.Config{QMCSize: 500, TileSize: 8}, Shards: 2}
}

const goldenGrid = 4 // 4×4 grid, n = 16

// TestGoldenEndToEnd runs every fixture through BOTH entry surfaces — the
// in-process Go API (a Session configured exactly as the server pool
// configures its sessions) and the HTTP path (JSON in, JSON out, through
// the shard pool) — and checks each against the checked-in golden and
// against the other. The two surfaces must agree bit-exactly: they run the
// same deterministic engine, so any divergence is a serving-layer bug.
func TestGoldenEndToEnd(t *testing.T) {
	srv := New(goldenServerConfig())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	locs := parmvn.Grid(goldenGrid, goldenGrid)
	record := os.Getenv("GOLDEN_PRINT") != ""
	for _, gc := range goldenCases {
		// Surface 1: the Go API, on a session configured like the pool's.
		method := mustMethod(t, gc.method)
		sess := parmvn.NewSession(srv.sessionConfig(method))
		a := make([]float64, len(locs))
		b := make([]float64, len(locs))
		for i := range a {
			a[i], b[i] = gc.lower, gc.upper
		}
		var apiRes parmvn.Result
		var err error
		if gc.nu > 0 {
			apiRes, err = sess.MVTProb(locs, gc.kernel, gc.nu, a, b)
		} else {
			apiRes, err = sess.MVNProb(locs, gc.kernel, a, b)
		}
		sess.Close()
		if err != nil {
			t.Fatalf("%s: api: %v", gc.name, err)
		}

		// Surface 2: the HTTP path.
		body := map[string]any{
			"grid":   map[string]int{"nx": goldenGrid, "ny": goldenGrid},
			"kernel": map[string]any{"family": gc.kernel.Family, "range": gc.kernel.Range, "nu": gc.kernel.Nu},
			"lower":  gc.lower,
			"method": gc.method,
		}
		endpoint := ts.URL + "/v1/mvnprob"
		if gc.nu > 0 {
			body["nu"] = gc.nu
			endpoint = ts.URL + "/v1/mvtprob"
		}
		if !math.IsInf(gc.upper, 1) {
			body["upper"] = gc.upper
		}
		payload, _ := json.Marshal(body)
		resp, err := http.Post(endpoint, "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatalf("%s: http: %v", gc.name, err)
		}
		var wire Response
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: http status %d", gc.name, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
			t.Fatalf("%s: decode: %v", gc.name, err)
		}
		resp.Body.Close()

		if record {
			fmt.Printf("%-24s want: %.16g\n", gc.name, apiRes.Prob)
			continue
		}
		if wire.Prob != apiRes.Prob {
			t.Errorf("%s: http %0.17g != api %0.17g (surfaces must agree bit-exactly)",
				gc.name, wire.Prob, apiRes.Prob)
		}
		if rel := math.Abs(apiRes.Prob-gc.want) / math.Max(math.Abs(gc.want), 1e-300); rel > goldenTol {
			t.Errorf("%s: prob %0.17g, golden %0.17g (rel err %.2e > %.0e)",
				gc.name, apiRes.Prob, gc.want, rel, goldenTol)
		}
	}
}
