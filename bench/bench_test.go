package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpec holds the metric and workload tables to the benchmark contract
// and the checked-in BENCHMARK.json to the tables.
func TestSpec(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, m := range allMetrics() {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q: bad name or unit", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q is listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if m := endToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better; got %+v", m)
	}
	for _, c := range exactCounts {
		if !seen[c] {
			t.Errorf("exact count %q is not a metric", c)
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads, the contract wants 2 to 8", len(workloads))
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is bad or already used", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := benchmarkSpec(); !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from the tables in spec.go; regenerate it with: go run ./bench -print-spec > BENCHMARK.json")
	}
}

// TestSmoke runs every workload at toy size, untraced and traced, and checks
// what it prints: one "workload metric value unit" line per metric, every
// end-to-end metric on every workload, every per-layer metric on at least
// one, the result object's keys exactly the contract's, no failed operation.
func TestSmoke(t *testing.T) {
	units := map[string]string{}
	for _, m := range allMetrics() {
		units[m.Name] = m.Unit
	}
	printedAnywhere := map[string]bool{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var buf bytes.Buffer
			res, err := runWorkload(runOpts{workload: w.Name, seed: 1, seconds: runSeconds,
				trace: traced, outDir: t.TempDir(), toy: true}, &buf)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < w.ToyOps*toyRounds {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, traced, res.Correct, res.Attempted, res.Failed, buf.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result has %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: result metric %q missing or in %q, want %q", w.Name, traced, m.Name, v.Unit, m.Unit)
				}
			}
			printed := map[string]bool{}
			for _, line := range strings.Split(buf.String(), "\n") {
				if line == "" || strings.HasPrefix(line, "#") {
					continue
				}
				f := strings.Fields(line)
				if len(f) != 4 || f[0] != w.Name {
					t.Errorf("%s: malformed metric line %q", w.Name, line)
					continue
				}
				if units[f[1]] != f[3] {
					t.Errorf("%s: metric %q printed in %q, want %q", w.Name, f[1], f[3], units[f[1]])
				}
				if printed[f[1]] {
					t.Errorf("%s: metric %q printed twice", w.Name, f[1])
				}
				printed[f[1]] = true
				printedAnywhere[f[1]] = true
			}
			for _, m := range endToEnd {
				if m.Name == "peak_rss_mb" && traced {
					continue // a traced run's footprint includes the probes
				}
				if !printed[m.Name] {
					t.Errorf("%s traced=%v: end-to-end metric %q not printed", w.Name, traced, m.Name)
				}
			}
			if !traced && res.Metrics["setup_s"].Value <= 0 {
				t.Errorf("%s: setup_s = %g", w.Name, res.Metrics["setup_s"].Value)
			}
		}
	}
	for _, m := range perLayer {
		if !printedAnywhere[m.Name] {
			t.Errorf("per-layer metric %q is printed by no workload", m.Name)
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(v, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", v, c.q, got, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 40, Parent: 0},
		{Name: "child", Start: 50, End: 90, Parent: 0},
	}}
	for _, tot := range tr.totals() {
		want := map[string]float64{"op": 30e-9, "child": 70e-9}[tot.Name]
		if d := tot.Self - want; d > 1e-15 || d < -1e-15 {
			t.Errorf("self time of %q = %g, want %g", tot.Name, tot.Self, want)
		}
	}
}
