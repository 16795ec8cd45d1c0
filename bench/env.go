package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/linalg"
)

// workers is the worker count every session and the Go scheduler are pinned
// to: the reference host has two cores.
const workers = 2

// runOpts are one workload run's arguments.
type runOpts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
	toy      bool
	refsPath string
}

// opRecord is one measured operation: its place in its round, a label for
// grouping, its shape and variant (the key of its references), how long the
// caller waited, and what came back.
type opRecord struct {
	pos   int
	label string
	sh    shape
	v     variant
	ms    float64
	prob  float64
	se    float64
}

// env carries one run's state from set-up to the printed result.
type env struct {
	opts runOpts
	spec workloadSpec
	sz   sizes
	tr   *tracer
	refs *refStore
	out  io.Writer

	setupS []float64
	yard   []float64 // yardstick readings, one per round (yard.go)

	ops       []opRecord
	attempted int
	failures  []string
	measured  time.Duration
	// spansMeasured is the span count when the measured phase ended; the
	// layer phase of a traced run records more.
	spansMeasured int
	phase         time.Time

	approxErr    float64
	zMax         float64
	budgetedZMax float64
	metrics      map[string]float64
}

// perRound is the number of operations in one round.
func (e *env) perRound() int {
	if e.opts.toy {
		return e.spec.ToyOps
	}
	return e.spec.Ops
}

// rounds is the workload's round count for this run's -seconds.
func (e *env) rounds() int {
	if e.opts.toy {
		return toyRounds
	}
	n := int(math.Round(float64(e.spec.Rounds) * float64(e.opts.seconds) / runSeconds))
	if n < 2 {
		n = 2
	}
	return n
}

// setup runs build reps times and keeps the last product; setup_s is the
// fastest. Every product but the last is torn down and collected at once, so
// repeated set-up does not raise the peak footprint.
func (e *env) setup(reps int, build func() (teardown func(), err error)) (func(), error) {
	if e.opts.toy {
		reps = 1
	}
	var last func()
	for i := 0; i < reps; i++ {
		if last != nil {
			last()
		}
		runtime.GC()
		t0 := time.Now()
		td, err := build()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		e.setupS = append(e.setupS, time.Since(t0).Seconds())
		last = td
	}
	return last, nil
}

// newRng returns a generator at the start of the run's seeded stream; every
// repetition of a set-up draws the same inputs from it.
func (e *env) newRng() *rand.Rand { return rand.New(rand.NewSource(e.opts.seed)) }

// beginMeasure and endMeasure bracket one stretch of the measured phase; a
// workload whose rounds each need a set-up of their own brackets every round.
func (e *env) beginMeasure() {
	runtime.GC()
	e.phase = time.Now()
}

// beginRound starts a round, outside every operation's clock. It collects
// the previous round's garbage: without that the resident peak depends on
// whether the collector happened to run between two 68 MiB factors, and
// peak_rss_mb spreads by 9 % between runs instead of 2 %. Then it takes a
// yardstick reading.
func (e *env) beginRound() {
	runtime.GC()
	e.yard = append(e.yard, yardstick())
}

// hostSlowdown is how slow the host was at its best during the run: the
// fastest yardstick reading over the nominal one, and 1 when the host
// reached its normal speed. setup_s and op_ms are divided by it.
func (e *env) hostSlowdown() float64 { return math.Max(1, quantile(e.yard, 0)/yardNominalMs) }

func (e *env) endMeasure() {
	e.measured += time.Since(e.phase)
	if e.tr != nil {
		e.spansMeasured = len(e.tr.spans)
	}
}

// record adds one finished operation.
func (e *env) record(r opRecord) {
	e.ops = append(e.ops, r)
	e.attempted++
}

// fail counts one failed operation (error, refusal or a missed tolerance)
// and keeps its name for the report.
func (e *env) fail(op string, format string, args ...any) {
	e.failures = append(e.failures, op+": "+fmt.Sprintf(format, args...))
}

// failOp is fail for an operation that produced no record.
func (e *env) failOp(op string, err error) {
	e.attempted++
	e.fail(op, "%v", err)
}

func (e *env) set(name string, v float64) { e.metrics[name] = v }

// quantile is the linearly interpolated q-quantile of vals (unsorted).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// bestOpMs is op_ms: every operation of a round at its fastest time over the
// rounds, averaged over the round. The host's slow phases last longer than an
// operation and shorter than a run, so each place in the round meets a fast
// phase in some round; what a change to the program moves is that floor.
func (e *env) bestOpMs() float64 {
	best := map[int]float64{}
	for _, r := range e.ops {
		if b, ok := best[r.pos]; !ok || r.ms < b {
			best[r.pos] = r.ms
		}
	}
	sum := 0.0
	for _, b := range best {
		sum += b
	}
	return sum / float64(len(best))
}

// opMs returns the durations of the recorded operations with the given
// label ("" = all).
func (e *env) opMs(label string) []float64 {
	var out []float64
	for _, r := range e.ops {
		if label == "" || r.label == label {
			out = append(out, r.ms)
		}
	}
	return out
}

// peakRSSMiB reads the process's resident high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// hostHeader describes where the numbers were taken.
func hostHeader() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	// The commit, read from the files git keeps; the driver's checkouts are
	// not repositories and say "unknown".
	commit := readTrim(filepath.Join(".git", "HEAD"))
	if ref, ok := strings.CutPrefix(commit, "ref: "); ok {
		commit = readTrim(filepath.Join(".git", ref))
	}
	if len(commit) >= 7 {
		commit = commit[:7]
	} else {
		commit = "unknown"
	}
	return map[string]any{
		"cpu":            cpu,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"commit":         commit,
		"vector_kernels": linalg.HasVectorKernels(),
		"repro_noasm":    os.Getenv("REPRO_NOASM"),
	}
}

func printHeader(w io.Writer) {
	h := hostHeader()
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%v", k, h[k])
	}
	fmt.Fprintf(w, "# host%s\n", b.String())
}
