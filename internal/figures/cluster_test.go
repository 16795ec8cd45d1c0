package figures

import (
	"math"
	"testing"
)

// sim is the explicit-DAG reference for mvnMakespan's streamed DAG: every
// task is held with its dependencies and run, in submission order, on the
// same machine model.
type sim struct {
	cfg   clusterConfig
	tasks []*task
}

// task is a node-pinned unit of work in the reference DAG.
type task struct {
	node   int
	flops  float64
	finish float64
	// deps are the predecessor tasks with the bytes that must move if the
	// producer lives on a different node.
	deps []dataDep
}

type dataDep struct {
	t     *task
	bytes float64
}

func newSim(cfg clusterConfig) *sim { return &sim{cfg: cfg} }

// add appends a task pinned to node with the given flop cost and
// dependencies, which must have been added before it, and returns it for use
// as a later dependency.
func (s *sim) add(node int, flops float64, deps ...dataDep) *task {
	t := &task{node: node, flops: flops, deps: deps}
	s.tasks = append(s.tasks, t)
	return t
}

// dep declares a dependency carrying the given payload bytes.
func dep(t *task, bytes float64) dataDep { return dataDep{t: t, bytes: bytes} }

// run returns the makespan in seconds: a task starts when its data has
// arrived and a core on its node is free.
func (s *sim) run() float64 {
	m := newMachine(s.cfg)
	for _, t := range s.tasks {
		ready := 0.0
		for _, d := range t.deps {
			ready = math.Max(ready, m.arrive(d.t.finish, d.t.node, t.node, d.bytes))
		}
		t.finish = m.run(t.node, t.flops, ready)
	}
	return m.mk
}

func TestSimSingleTask(t *testing.T) {
	cfg := clusterConfig{Nodes: 1, CoresPerNode: 1, GflopsPerCore: 1, LatencySec: 0, BandwidthBps: 1e9}
	s := newSim(cfg)
	s.add(0, 2e9) // 2 Gflop at 1 Gflop/s = 2 s
	if got := s.run(); math.Abs(got-2) > 1e-9 {
		t.Errorf("makespan %v, want 2", got)
	}
}

func TestSimSerialChain(t *testing.T) {
	cfg := clusterConfig{Nodes: 1, CoresPerNode: 4, GflopsPerCore: 1, LatencySec: 0, BandwidthBps: 1e9}
	s := newSim(cfg)
	a := s.add(0, 1e9)
	b := s.add(0, 1e9, dep(a, 0))
	s.add(0, 1e9, dep(b, 0))
	// Chain serializes despite 4 cores.
	if got := s.run(); math.Abs(got-3) > 1e-9 {
		t.Errorf("chain makespan %v, want 3", got)
	}
}

func TestSimParallelOnCores(t *testing.T) {
	cfg := clusterConfig{Nodes: 1, CoresPerNode: 2, GflopsPerCore: 1, LatencySec: 0, BandwidthBps: 1e9}
	s := newSim(cfg)
	for i := 0; i < 4; i++ {
		s.add(0, 1e9)
	}
	// 4 unit tasks on 2 cores: 2 seconds.
	if got := s.run(); math.Abs(got-2) > 1e-9 {
		t.Errorf("makespan %v, want 2", got)
	}
}

func TestSimCommunicationDelay(t *testing.T) {
	cfg := clusterConfig{Nodes: 2, CoresPerNode: 1, GflopsPerCore: 1, LatencySec: 0.5, BandwidthBps: 1e9}
	s := newSim(cfg)
	a := s.add(0, 1e9)
	s.add(1, 1e9, dep(a, 1e9)) // 1 GB over 1 GB/s + 0.5 s latency
	want := 1 + 0.5 + 1 + 1.0
	if got := s.run(); math.Abs(got-want) > 1e-9 {
		t.Errorf("makespan %v, want %v", got, want)
	}
	// Same-node dependency pays no communication.
	s2 := newSim(cfg)
	a2 := s2.add(0, 1e9)
	s2.add(0, 1e9, dep(a2, 1e9))
	if got := s2.run(); math.Abs(got-2) > 1e-9 {
		t.Errorf("local dep makespan %v, want 2", got)
	}
}

func TestGrid(t *testing.T) {
	for _, tc := range []struct{ n, pr, pc int }{
		{1, 1, 1}, {4, 2, 2}, {16, 4, 4}, {32, 4, 8}, {512, 16, 32}, {6, 2, 3},
	} {
		pr, pc := grid(tc.n)
		if pr*pc != tc.n {
			t.Errorf("grid(%d) = %dx%d does not cover", tc.n, pr, pc)
		}
		if pr != tc.pr || pc != tc.pc {
			t.Errorf("grid(%d) = %dx%d, want %dx%d", tc.n, pr, pc, tc.pr, tc.pc)
		}
	}
}

func TestMVNMakespanScalesDown(t *testing.T) {
	// More nodes: shorter makespan (strong scaling), for both variants.
	w := workload{N: 40000, TileSize: 1000, QMC: 10000, SampleTS: 1000, MeanRank: 60}
	prevChol, prevTotal := math.Inf(1), math.Inf(1)
	for _, nodes := range []int{1, 4, 16} {
		chol, pmvn := mvnMakespan(shaheenII(nodes), w)
		total := chol + pmvn
		if chol <= 0 || pmvn <= 0 {
			t.Fatalf("nodes=%d: nonpositive times %v %v", nodes, chol, pmvn)
		}
		if total >= prevTotal {
			t.Errorf("no strong scaling at %d nodes: %v >= %v", nodes, total, prevTotal)
		}
		if chol >= prevChol {
			t.Errorf("cholesky does not scale at %d nodes", nodes)
		}
		prevChol, prevTotal = chol, total
	}
}

func TestMVNMakespanTLRFasterCholesky(t *testing.T) {
	w := workload{N: 60000, TileSize: 3000, QMC: 10000, SampleTS: 3000, MeanRank: 80}
	cfg := shaheenII(16)
	cholD, pmvnD := mvnMakespan(cfg, w)
	w.TLR = true
	cholT, pmvnT := mvnMakespan(cfg, w)
	if cholT >= cholD {
		t.Errorf("TLR cholesky %v not faster than dense %v", cholT, cholD)
	}
	// Propagation is dense in both distributed variants: times comparable.
	if rel := math.Abs(pmvnT-pmvnD) / pmvnD; rel > 0.05 {
		t.Errorf("propagation times should match: %v vs %v", pmvnT, pmvnD)
	}
	// Overall speedup is modest (the paper's 1.3–1.8X regime), bounded by
	// the dense propagation share.
	speedup := (cholD + pmvnD) / (cholT + pmvnT)
	if speedup < 1.05 || speedup > 6 {
		t.Errorf("overall TLR speedup %v outside the plausible range", speedup)
	}
}

func TestMVNMakespanGrowsWithDimension(t *testing.T) {
	cfg := shaheenII(16)
	prev := 0.0
	for _, n := range []int{20000, 40000, 80000} {
		chol, pmvn := mvnMakespan(cfg, workload{N: n, TileSize: 2000, QMC: 1000, SampleTS: 2000})
		total := chol + pmvn
		if total <= prev {
			t.Errorf("makespan did not grow with n=%d: %v <= %v", n, total, prev)
		}
		prev = total
	}
}

// TestStreamingMatchesExplicitDAG rebuilds the Cholesky task DAG with the
// explicit sim and checks the streaming mvnMakespan computes the same
// makespan — the two engines must implement identical semantics.
func TestStreamingMatchesExplicitDAG(t *testing.T) {
	cfg := clusterConfig{Nodes: 4, CoresPerNode: 2, GflopsPerCore: 1, LatencySec: 0.01, BandwidthBps: 1e8}
	w := workload{N: 50, TileSize: 10, QMC: 20, SampleTS: 10}
	nt := 5
	pr, pc := grid(cfg.Nodes)
	owner := func(i, j int) int { return (i%pr)*pc + j%pc }
	m := float64(w.TileSize)
	tileBytes := m * m * bytesPerFloat

	s := newSim(cfg)
	diag := make([]*task, nt)
	low := map[[2]int]*task{}
	for kk := 0; kk < nt; kk++ {
		var pd []dataDep
		if diag[kk] != nil {
			pd = append(pd, dep(diag[kk], 0))
		}
		diag[kk] = s.add(owner(kk, kk), m*m*m/3, pd...)
		for i := kk + 1; i < nt; i++ {
			deps := []dataDep{dep(diag[kk], tileBytes)}
			if p, ok := low[[2]int{i, kk}]; ok {
				deps = append(deps, dep(p, 0))
			}
			low[[2]int{i, kk}] = s.add(owner(i, kk), m*m*m, deps...)
		}
		for i := kk + 1; i < nt; i++ {
			deps := []dataDep{dep(low[[2]int{i, kk}], tileBytes)}
			if diag[i] != nil {
				deps = append(deps, dep(diag[i], 0))
			}
			diag[i] = s.add(owner(i, i), m*m*m, deps...)
			for j := kk + 1; j < i; j++ {
				gdeps := []dataDep{
					dep(low[[2]int{i, kk}], tileBytes),
					dep(low[[2]int{j, kk}], tileBytes),
				}
				if p, ok := low[[2]int{i, j}]; ok {
					gdeps = append(gdeps, dep(p, 0))
				}
				low[[2]int{i, j}] = s.add(owner(i, j), 2*m*m*m, gdeps...)
			}
		}
	}
	explicit := s.run()
	streaming, _ := mvnMakespan(cfg, w)
	if math.Abs(explicit-streaming) > 1e-9*math.Max(explicit, 1) {
		t.Errorf("explicit DAG makespan %v vs streaming %v", explicit, streaming)
	}
}

// BenchmarkFig7ClusterSim runs one simulated distributed configuration of
// Figure 7 per iteration (dense, 128 nodes, n = 360,000).
func BenchmarkFig7ClusterSim(b *testing.B) {
	w := workload{N: 360000, TileSize: 980, QMC: 10000, SampleTS: 500, MeanRank: 145, PropFlopScale: 2.5}
	for i := 0; i < b.N; i++ {
		chol, pmvn := mvnMakespan(shaheenII(128), w)
		if chol <= 0 || pmvn <= 0 {
			b.Fatal("bad makespan")
		}
	}
}

// BenchmarkTable3Speedup reports the simulated distributed TLR speedup as a
// custom metric (the paper's Table III entry for 128 nodes).
func BenchmarkTable3Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		wd := workload{N: 360000, TileSize: 980, QMC: 10000, SampleTS: 500, MeanRank: 145, PropFlopScale: 2.5}
		cd, pd := mvnMakespan(shaheenII(128), wd)
		wd.TLR = true
		ct, pt := mvnMakespan(shaheenII(128), wd)
		b.ReportMetric((cd+pd)/(ct+pt), "speedupX")
	}
}
