package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// metricsByName is one child run's printed metrics.
type metricsByName map[string]float64

// runChild runs one workload in a process of its own — a clean heap and its
// own resident high-water mark — and parses the "workload metric value unit"
// lines and the final result object from its output, which it passes on
// without the result object.
func runChild(o runOpts, workload string, trace bool) (metricsByName, *result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", t, "-out", o.outDir, "-refs", o.refsPath)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", workload, err)
	}
	got := metricsByName{}
	var res result
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return nil, nil, fmt.Errorf("%s: result line: %w", workload, err)
			}
			continue
		}
		fmt.Println(line)
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == workload {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				got[f[1]] = v
			}
		}
	}
	if res.Attempted == 0 {
		return nil, nil, fmt.Errorf("%s: no result line", workload)
	}
	return got, &res, nil
}

func selected(o runOpts) []string {
	if o.workload != "all" {
		return []string{o.workload}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// runSuite runs every workload untraced, then (with -trace 1) traced, each
// in its own process, and writes everything to results.json in the output
// directory.
func runSuite(o runOpts) error {
	type row struct {
		Untraced metricsByName `json:"untraced"`
		Traced   metricsByName `json:"traced,omitempty"`
		Failed   int           `json:"failed"`
		// TraceOverheadMeasured is traced ÷ untraced op_ms − 1: two
		// separate runs, so it carries their run-to-run noise.
		TraceOverheadMeasured float64 `json:"trace_overhead_measured,omitempty"`
	}
	rows := map[string]*row{}
	failed := 0
	for _, name := range selected(o) {
		m, res, err := runChild(o, name, false)
		if err != nil {
			return err
		}
		r := &row{Untraced: m, Failed: res.Failed}
		if o.trace {
			tm, tres, err := runChild(o, name, true)
			if err != nil {
				return err
			}
			r.Traced = tm
			r.Failed += tres.Failed
			r.TraceOverheadMeasured = tm["op_ms"]/m["op_ms"] - 1
			fmt.Printf("# %s traced/untraced op_ms - 1 = %+.4f (two runs; includes run-to-run noise)\n", name, r.TraceOverheadMeasured)
		}
		rows[name] = r
		failed += r.Failed
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	doc := map[string]any{"host": hostHeader(), "seed": o.seed, "seconds": o.seconds, "workloads": rows}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.outDir, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# results %s\n", path)
	if failed > 0 {
		return fmt.Errorf("%d operations failed (see the FAILED lines)", failed)
	}
	return nil
}

// runRepeat runs the untraced suite k times with the same arguments and
// prints, per workload and end-to-end metric, the spread between the runs
// — (max − min) ÷ median — beside its bound. A spread beyond the bound, a
// count that did not repeat exactly, or a failed operation is an error.
func runRepeat(o runOpts, k int) error {
	names := selected(o)
	runs := make([]map[string]metricsByName, k)
	failed := 0
	for i := range runs {
		runs[i] = map[string]metricsByName{}
		for _, name := range names {
			m, res, err := runChild(o, name, false)
			if err != nil {
				return err
			}
			runs[i][name] = m
			failed += res.Failed
		}
	}
	bad := 0
	fmt.Printf("# repeat k=%d seed=%d: spread = (max-min)/median\n", k, o.seed)
	for _, name := range names {
		for _, m := range endToEnd {
			var vals []float64
			for i := range runs {
				vals = append(vals, runs[i][name][m.Name])
			}
			sort.Float64s(vals)
			spread := (vals[len(vals)-1] - vals[0]) / median(vals)
			verdict := "ok"
			if spread > m.Bound {
				verdict = "EXCEEDS"
				bad++
			}
			fmt.Printf("%s %s spread=%.4f bound=%.2f median=%.6g %s %s\n", name, m.Name, spread, m.Bound, median(vals), m.Unit, verdict)
		}
		for _, c := range exactCounts {
			first, ok := runs[0][name][c]
			if !ok {
				continue
			}
			for i := 1; i < k; i++ {
				if got := runs[i][name][c]; got != first {
					fmt.Printf("%s %s run 0 = %g, run %d = %g: NOT EXACT\n", name, c, first, i, got)
					bad++
				}
			}
			fmt.Printf("%s %s = %g in every run\n", name, c, first)
		}
	}
	switch {
	case failed > 0:
		return fmt.Errorf("%d operations failed", failed)
	case bad > 0:
		return fmt.Errorf("%d metrics spread beyond their bound or counts did not repeat", bad)
	}
	return nil
}

// reblessAll recomputes every reference the workloads look up, on the dense
// float64 path, and rewrites the reference file.
func reblessAll(o runOpts) error {
	rs, err := loadRefs("", fullSizes, true)
	if err != nil {
		return err
	}
	type use struct {
		sh shape
		v  variant
	}
	side, ts := fullSizes.warmSide, fullSizes.tile
	cold := variant{n: fullSizes.coldN, reps: fullSizes.reps}
	warm := variant{n: fullSizes.warmN, reps: fullSizes.reps}
	uses := []use{
		{excursionShape(fullSizes.denseSide, ts), cold},
		{excursionShape(fullSizes.tlrSide, ts), cold},
		{wideShape(side, ts), warm},
		{excursionShape(side, ts), warm},
		{prefixShape(side, ts, fullSizes.prefix), warm},
	}
	for k := 0; k < fullSizes.serveKeys; k++ {
		for _, mvt := range []bool{false, true} {
			for _, budgeted := range []bool{false, true} {
				r, err := newServeReq(fullSizes, k, mvt, budgeted)
				if err != nil {
					return err
				}
				uses = append(uses, use{r.sh, r.v})
			}
		}
	}
	for _, u := range uses {
		same, high, err := rs.get(u.sh, u.v)
		if err != nil {
			return err
		}
		fmt.Printf("%s %s prob=%.9g stderr=%.3g | high-N prob=%.9g stderr=%.3g | z=%.2f\n",
			u.sh.key, u.v, same.Prob, same.StdErr, high.Prob, high.StdErr, zScore(same.Prob, same.StdErr, high))
	}
	return rs.save(o.refsPath)
}
