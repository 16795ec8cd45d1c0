// Command bench is the repository's one benchmark: five workloads over the
// whole stack, end-to-end metrics with tracing off, and a per-layer ledger
// measured from outside (timed calls into public functions, counters the
// public API already exposes) with tracing on. BENCHMARK.json at the
// repository root describes it; README.md in this directory explains the
// workloads, the metrics and how they interact.
//
//	go run ./bench                      every workload, untraced
//	go run ./bench -trace 1             every workload, untraced then traced
//	go run ./bench -workload crd_2k     one workload; last line is the JSON result
//	go run ./bench -repeat 2            the untraced suite twice; fails on spread beyond a bound
//	go run ./bench -rebless             recompute bench/refs.json on the dense path
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	var o runOpts
	var trace, repeat int
	var rebless, printSpec bool
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input (1 = development, 2 = held out)")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "measured-phase length the operation counts are scaled to")
	flag.IntVar(&trace, "trace", 0, "1 = record spans and emit the per-layer metrics")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for traces and the suite's results.json")
	flag.StringVar(&o.refsPath, "refs", filepath.Join("bench", "refs.json"), "reference file")
	flag.IntVar(&repeat, "repeat", 0, "run the untraced suite this many times (at least 2) and compare the runs")
	flag.BoolVar(&rebless, "rebless", false, "recompute the reference file and exit")
	flag.BoolVar(&printSpec, "print-spec", false, "print BENCHMARK.json from the tables in spec.go and exit")
	flag.Parse()
	o.trace = trace != 0

	var err error
	switch {
	case printSpec:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(benchmarkSpec())
	case o.seconds < 1:
		err = fmt.Errorf("-seconds must be at least 1")
	case rebless:
		err = reblessAll(o)
	case repeat == 1 || repeat < 0:
		err = fmt.Errorf("-repeat needs at least 2 runs to compare")
	case repeat >= 2:
		err = runRepeat(o, repeat)
	case o.workload == "all":
		err = runSuite(o)
	default:
		var res *result
		if res, err = runWorkload(o, os.Stdout); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload runs one workload in this process and prints one line per
// metric, "workload metric value unit", to out. An error means the
// benchmark itself could not run; failed operations are counted in the
// result instead.
func runWorkload(o runOpts, out io.Writer) (*result, error) {
	spec, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	sz := fullSizes
	if o.toy {
		sz = toySizes
	}
	refs, err := loadRefs(o.refsPath, sz, o.toy)
	if err != nil {
		return nil, err
	}
	e := &env{
		opts: o, spec: spec, sz: sz, refs: refs, out: out,
		metrics: map[string]float64{},
	}
	if o.trace {
		e.tr = newTracer()
	}
	printHeader(out)
	fmt.Fprintf(out, "# run workload=%s seed=%d seconds=%d rounds=%d ops_per_round=%d trace=%v\n", spec.Name, o.seed, o.seconds, e.rounds(), e.perRound(), o.trace)
	if err := spec.run(e); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	return e.finish()
}

// finish turns the recorded operations into the end-to-end metrics, runs the
// layer probes on a traced run, prints every metric and builds the result.
func (e *env) finish() (*result, error) {
	if len(e.ops) == 0 && e.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation ran", e.spec.Name)
	}
	all := e.opMs("")
	slow := e.hostSlowdown()
	e.set("bench.host_slowdown", slow)
	e.set("setup_s", quantile(e.setupS, 0)/slow)
	if len(all) > 0 {
		e.set("op_ms", e.bestOpMs()/slow)
		e.set("bench.op_p50_ms", median(all))
		e.set("bench.op_p90_ms", quantile(all, 0.9))
		e.set("bench.ops_per_s", float64(len(all))/e.measured.Seconds())
	}
	e.set("acc.approx_rel_err", e.approxErr)
	e.set("acc.stderr_z_max", e.zMax)
	e.set("acc.budgeted_z_max", e.budgetedZMax)
	if e.opts.trace {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		e.set("mem.peak_heap_mb", float64(ms.HeapSys)/(1<<20))
		e.set("bench.trace_overhead_frac", e.traceOverhead())
		runProbes(e)
		if err := e.writeTrace(); err != nil {
			return nil, err
		}
	} else {
		// Untraced only: a traced run's footprint includes its probes.
		e.set("peak_rss_mb", peakRSSMiB())
	}

	res := &result{
		Correct:   len(e.failures) == 0,
		Attempted: e.attempted,
		Failed:    len(e.failures),
		Metrics:   map[string]metricValue{},
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	fmt.Fprintf(e.out, "# samples %s ops=%d rounds=%d setups=%d measured_s=%.3f\n", e.spec.Name, len(all), e.rounds(), len(e.setupS), e.measured.Seconds())
	if len(all) <= 12 {
		fmt.Fprintf(e.out, "# every_op_ms %s %.0f\n", e.spec.Name, all)
	}
	for _, m := range allMetrics() {
		if v, ok := e.metrics[m.Name]; ok {
			fmt.Fprintf(e.out, "%s %s %.6g %s\n", e.spec.Name, m.Name, v, m.Unit)
		}
	}
	inResult := endToEnd
	if e.opts.trace {
		inResult = perLayer
	}
	for _, m := range inResult {
		res.Metrics[m.Name] = metricValue{e.metrics[m.Name], m.Unit}
	}
	sort.Strings(e.failures)
	for _, f := range e.failures {
		fmt.Fprintf(e.out, "# FAILED %s\n", f)
	}
	return res, nil
}

// traceOverhead is the share of the measured phase spent recording spans:
// spans recorded times the cost of one begin/end pair, timed here. It is
// computed, not the difference of two noisy runs; the suite prints that
// difference beside it.
func (e *env) traceOverhead() float64 {
	const n = 20000
	t := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("probe", -1, i))
	}
	perSpan := time.Since(t0).Seconds() / n
	return perSpan * float64(e.spansMeasured) / e.measured.Seconds()
}

func (e *env) writeTrace() error {
	if err := os.MkdirAll(e.opts.outDir, 0o755); err != nil {
		return err
	}
	h := hostHeader()
	h["workload"], h["seed"], h["ops"] = e.spec.Name, e.opts.seed, len(e.ops)
	path := filepath.Join(e.opts.outDir, "trace-"+e.spec.Name+".json")
	if err := e.tr.write(path, h); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "# trace %s\n", path)
	for _, t := range e.tr.totals() {
		fmt.Fprintf(e.out, "# span %s %s count=%d total_s=%.4f self_s=%.4f\n", e.spec.Name, t.Name, t.Count, t.Total, t.Self)
	}
	return nil
}
