package main

import "fmt"

// runSeconds is the measured-phase length the round counts below are
// calibrated for on the 2-core reference host; -seconds scales the round
// counts linearly, so for given arguments the counts repeat exactly.
const runSeconds = 20

// metricSpec is one row of BENCHMARK.json's end_to_end or per_layer list.
// Bound is the share of the parent's median by which an end-to-end metric
// may worsen before a change counts as a regression; per-layer metrics have
// none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a caller of the library or server waits and pays for.
// Every workload reports every one of them (tracing off). Accuracy is not in
// this list: it is a pass/fail ceiling per operation (see check.go) and is
// printed as acc.* so that it stays visible.
//
// The reference host is a 2-vCPU VM whose speed moves by a third and more
// in phases of seconds to minutes: six identical 2 s operations in one
// process took between 1.9 and 3.7 s, with 1.6 % steal time reported. A
// median over a run's operations therefore says which phase the host was in,
// not what the program costs. So a run repeats the same operations in rounds
// and both timings are best-of: op_ms takes every operation of a round at
// its fastest time over the rounds, setup_s is the fastest set-up. What the
// host's slow phases add is above that floor and a change to the program
// moves the floor. A run that saw no fast phase at all is scaled by its
// yardstick readings (yard.go). The plain median, 90th percentile and throughput of the
// run are the ledger rows bench.op_p50_ms, bench.op_p90_ms and
// bench.ops_per_s, without a bound; in a closed loop the throughput is the
// client count over the mean latency and says nothing op_ms does not.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.20},
}

// perLayer is the traced run's ledger, prefix = module. A metric that does
// not apply to a workload reads 0 there. README.md says which end-to-end
// number each one should move and where the prediction is no change.
var perLayer = []metricSpec{
	{"acc.approx_rel_err", "ratio", "lower", 0},
	{"acc.stderr_z_max", "sigma", "lower", 0},
	{"acc.budgeted_z_max", "sigma", "lower", 0},

	{"cov.block_mentries_per_s", "M/s", "higher", 0},
	{"cov.assemble_busy_s", "s", "lower", 0},

	{"linalg.gemm_gflops_256", "GFLOP/s", "higher", 0},
	{"linalg.syrk_gflops_256", "GFLOP/s", "higher", 0},
	{"linalg.trsm_gflops_256", "GFLOP/s", "higher", 0},
	{"linalg.potrf_gflops_256", "GFLOP/s", "higher", 0},
	{"linalg.gemm_bytes_per_flop", "B/FLOP", "lower", 0},
	{"mem.stream_gbs", "GB/s", "higher", 0},
	{"mem.peak_heap_mb", "MiB", "lower", 0},

	{"tile.compress_ms_256", "ms", "lower", 0},
	{"tile.aca_ms_256", "ms", "lower", 0},
	{"tile.addlowrank_us", "us", "lower", 0},
	{"tile.apply_lr_gflops", "GFLOP/s", "higher", 0},
	{"tile.mean_rank", "count", "lower", 0},
	{"tile.max_rank", "count", "lower", 0},

	{"engine.factorize_s", "s", "lower", 0},
	{"engine.factorize_gflops_dense_equiv", "GFLOP/s", "higher", 0},
	{"engine.gemm_busy_s", "s", "lower", 0},
	{"engine.syrk_busy_s", "s", "lower", 0},
	{"engine.trsm_busy_s", "s", "lower", 0},
	{"engine.potrf_busy_s", "s", "lower", 0},
	{"engine.evict_busy_s", "s", "lower", 0},
	{"engine.factor_mb", "MiB", "lower", 0},
	{"engine.factor_frac_of_dense", "ratio", "lower", 0},
	{"engine.tiles_dense64", "count", "lower", 0},
	{"engine.tiles_lowrank", "count", "higher", 0},
	{"engine.tiles_evicted", "count", "higher", 0},
	{"engine.max_rank", "count", "lower", 0},

	{"taskrt.tasks_total", "count", "lower", 0},
	{"taskrt.stolen", "count", "higher", 0},
	{"taskrt.peak_inflight", "count", "lower", 0},
	{"taskrt.peak_ready", "count", "lower", 0},
	{"taskrt.busy_frac", "ratio", "higher", 0},
	{"taskrt.parallel_eff_w2", "ratio", "higher", 0},
	{"taskrt.empty_tasks_per_s", "1/s", "higher", 0},

	{"mvn.wide_dense_ms", "ms", "lower", 0},
	{"mvn.wide_tlr_ms", "ms", "lower", 0},
	{"mvn.excursion_dense_ms", "ms", "lower", 0},
	{"mvn.excursion_tlr_ms", "ms", "lower", 0},
	{"mvn.prefix_dense_ms", "ms", "lower", 0},
	{"mvn.prefix_tlr_ms", "ms", "lower", 0},
	{"mvn.chain_steps_per_s", "1/s", "higher", 0},
	{"mvn.sweep_gbs", "GB/s", "higher", 0},
	{"mvn.allocs_per_query", "count", "lower", 0},
	{"mvn.f32_speedup", "ratio", "higher", 0},
	{"mvn.earlystop_samples_frac", "ratio", "lower", 0},
	{"mvn.mvt_ms", "ms", "lower", 0},
	{"mvn.qmc_busy_s", "s", "lower", 0},

	{"qmc.fillblock_mpts_per_s", "M/s", "higher", 0},
	{"stats.erfc_ns_per_elem", "ns", "lower", 0},
	{"stats.phi_interval_ns_per_elem", "ns", "lower", 0},
	{"stats.phiinv_ns_per_elem", "ns", "lower", 0},

	{"excursion.cold_region_s", "s", "lower", 0},
	{"excursion.warm_region_s", "s", "lower", 0},
	{"excursion.factorize_share", "ratio", "lower", 0},
	{"excursion.region_size", "count", "higher", 0},

	{"serve.decode_us", "us", "lower", 0},
	{"serve.do_p50_ms", "ms", "lower", 0},
	{"serve.http_overhead_ms", "ms", "lower", 0},
	{"serve.router_hop_ms", "ms", "lower", 0},
	{"serve.cache_hit_frac", "ratio", "higher", 0},
	{"serve.factorizations", "count", "lower", 0},
	{"serve.coalesced_frac", "ratio", "higher", 0},
	{"serve.batches", "count", "lower", 0},
	{"serve.mean_batch", "count", "higher", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.degraded_frac", "ratio", "lower", 0},
	{"serve.not_converged_frac", "ratio", "lower", 0},
	{"serve.samples_paid_frac", "ratio", "lower", 0},
	{"serve.budget_met_frac", "ratio", "higher", 0},

	{"factorio.encode_mbs", "MB/s", "higher", 0},
	{"factorio.decode_mbs", "MB/s", "higher", 0},
	{"factorio.file_mb", "MiB", "lower", 0},
	{"factorio.restart_first_query_ms", "ms", "lower", 0},

	{"bench.trace_overhead_frac", "ratio", "lower", 0},
	{"bench.host_slowdown", "ratio", "lower", 0},
	{"bench.op_p50_ms", "ms", "lower", 0},
	{"bench.op_p90_ms", "ms", "lower", 0},
	{"bench.ops_per_s", "1/s", "higher", 0},
}

// allMetrics is both lists, end-to-end first.
func allMetrics() []metricSpec {
	return append(append([]metricSpec(nil), endToEnd...), perLayer...)
}

// exactCounts are the counters that must repeat exactly between two runs
// with the same arguments (-repeat checks them). They are read from the
// public API after the measured phase, so untraced runs print them too.
var exactCounts = []string{
	"taskrt.tasks_total",
	"serve.factorizations",
	"serve.budget_met_frac",
	"excursion.region_size",
}

// workloadSpec names one workload, why it exists, the operations of one
// round, its round count at runSeconds, and the function that runs it. Every
// round runs the same operations in the same state, so operation i of one
// round and operation i of another cost the same. Names are stable: later
// issues refer to them. To add a workload, append here — never rename one.
type workloadSpec struct {
	Name   string
	Why    string
	Ops    int // operations per round
	Rounds int // rounds at runSeconds
	ToyOps int // operations per round at toy size (bench_test.go)
	run    func(e *env) error
}

// toyRounds is the round count of a toy run.
const toyRounds = 2

var workloads = []workloadSpec{
	{"cold_dense_4k",
		"fresh session, dense tile Cholesky at n=4096 plus one query: GEMM/SYRK/TRSM and the scheduler do the work, compression none; the bypass for every TLR change",
		1, 8, 1, runColdDense},
	{"cold_tlr_6k",
		"fresh session, streamed TLR Cholesky at n=6400 (tol 1e-6) plus one query: ACA, low-rank updates, eviction and work stealing; the paper's headline path",
		1, 6, 1, runColdTLR},
	{"warm_sweep_4k",
		"warm queries on cached dense and TLR factors at n=4096, wide/excursion/prefix boxes: no factorization, so only the SOV sweep, QMC and special functions can move it",
		6, 8, 6, runWarmSweep},
	{"crd_2k",
		"confidence-region detection on a posterior covariance at n=2500 with the adaptive factor: the paper's application, many scattered-prefix queries per operation",
		1, 5, 1, runCRD},
	{"serve_mix",
		"closed loop of 2 HTTP clients on the in-process server at n=576, fixed-N and budgeted, MVN and MVT, two keys cold mid-round: decode, flights, batching and encoding show only here",
		50, 8, 10, runServeMix},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// benchmarkFile mirrors BENCHMARK.json; -print-spec renders it from the
// tables above and bench_test.go checks the checked-in file against them.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchMetric   `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func benchmarkSpec() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, benchWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		b := m.Bound
		f.EndToEnd = append(f.EndToEnd, benchMetric{m.Name, m.Unit, m.Better, &b})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, benchMetric{m.Name, m.Unit, m.Better, nil})
	}
	return f
}
