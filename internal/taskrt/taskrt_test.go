package taskrt

import (
	"bytes"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSingleTaskRuns(t *testing.T) {
	r := New(2)
	defer r.Shutdown()
	var ran atomic.Bool
	r.Submit("t", 0, func() { ran.Store(true) })
	r.Wait()
	if !ran.Load() {
		t.Error("task did not run")
	}
}

func TestWriteAfterWriteOrdering(t *testing.T) {
	r := New(4)
	defer r.Shutdown()
	h := r.NewHandle("x")
	var order []int
	var mu sync.Mutex
	for i := 0; i < 20; i++ {
		i := i
		r.Submit("w", 0, func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}, Write(h))
	}
	r.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("writes out of order: %v", order)
		}
	}
}

func TestReadersRunConcurrentlyAfterWriter(t *testing.T) {
	r := New(4)
	defer r.Shutdown()
	h := r.NewHandle("x")
	var wrote atomic.Bool
	r.Submit("writer", 0, func() {
		time.Sleep(10 * time.Millisecond)
		wrote.Store(true)
	}, Write(h))
	var bad atomic.Int32
	var wg sync.WaitGroup
	wg.Add(8)
	for i := 0; i < 8; i++ {
		r.Submit("reader", 0, func() {
			defer wg.Done()
			if !wrote.Load() {
				bad.Add(1)
			}
		}, Read(h))
	}
	r.Wait()
	wg.Wait()
	if bad.Load() != 0 {
		t.Errorf("%d readers observed pre-write state", bad.Load())
	}
}

func TestWriterWaitsForAllReaders(t *testing.T) {
	r := New(4)
	defer r.Shutdown()
	h := r.NewHandle("x")
	var readers atomic.Int32
	r.Submit("init", 0, func() {}, Write(h))
	for i := 0; i < 6; i++ {
		r.Submit("reader", 0, func() {
			time.Sleep(5 * time.Millisecond)
			readers.Add(1)
		}, Read(h))
	}
	var sawAll atomic.Bool
	r.Submit("writer", 0, func() {
		sawAll.Store(readers.Load() == 6)
	}, Write(h))
	r.Wait()
	if !sawAll.Load() {
		t.Error("writer ran before all readers finished")
	}
}

func TestIndependentTasksParallel(t *testing.T) {
	// With k workers, k long tasks with no shared handles should overlap:
	// total wall time must be well under the serial sum.
	const workers = 4
	r := New(workers)
	defer r.Shutdown()
	start := time.Now()
	for i := 0; i < workers; i++ {
		r.Submit("sleep", 0, func() { time.Sleep(50 * time.Millisecond) })
	}
	r.Wait()
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Errorf("independent tasks serialized: %v", elapsed)
	}
}

func TestDiamondDependency(t *testing.T) {
	//    a
	//   / \
	//  b   c
	//   \ /
	//    d
	r := New(4)
	defer r.Shutdown()
	ha, hb, hc := r.NewHandle("a"), r.NewHandle("b"), r.NewHandle("c")
	var log []string
	var mu sync.Mutex
	add := func(s string) {
		mu.Lock()
		log = append(log, s)
		mu.Unlock()
	}
	r.Submit("a", 0, func() { add("a") }, Write(ha))
	r.Submit("b", 0, func() { add("b") }, Read(ha), Write(hb))
	r.Submit("c", 0, func() { add("c") }, Read(ha), Write(hc))
	r.Submit("d", 0, func() { add("d") }, Read(hb), Read(hc))
	r.Wait()
	pos := map[string]int{}
	for i, s := range log {
		pos[s] = i
	}
	if pos["a"] != 0 || pos["d"] != 3 {
		t.Errorf("diamond order violated: %v", log)
	}
}

func TestChainedRWDependencies(t *testing.T) {
	// A long RW chain on one handle must execute strictly in order even
	// with many workers racing.
	r := New(8)
	defer r.Shutdown()
	h := r.NewHandle("acc")
	val := 0
	for i := 0; i < 500; i++ {
		r.Submit("inc", 0, func() { val++ }, ReadWrite(h))
	}
	r.Wait()
	if val != 500 {
		t.Errorf("val = %d, want 500 (lost updates mean broken ordering)", val)
	}
}

func TestPriorityOrdering(t *testing.T) {
	// With one worker and a full queue, higher priority runs first.
	r := New(1)
	defer r.Shutdown()
	gate := r.NewHandle("gate")
	var mu sync.Mutex
	var order []int
	release := make(chan struct{})
	r.Submit("gate", 100, func() { <-release }, Write(gate))
	for _, p := range []int{1, 3, 2} {
		p := p
		r.Submit("t", p, func() {
			mu.Lock()
			order = append(order, p)
			mu.Unlock()
		}, Read(gate))
	}
	close(release)
	r.Wait()
	want := []int{3, 2, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("priority order %v, want %v", order, want)
		}
	}
}

// TestFreedWorkerRunsHighestPriority pins the one ready queue: with two
// workers both busy, a high-priority task writing data the first worker last
// wrote and a low-priority one writing the second worker's data become ready;
// when the second worker frees, it runs the high-priority task first. A
// scheduler that queues a task on the worker that last wrote its output runs
// the low-priority task there first.
func TestFreedWorkerRunsHighestPriority(t *testing.T) {
	r := New(2)
	defer r.Shutdown()
	hx, hy := r.NewHandle("x"), r.NewHandle("y")
	started := make(chan struct{})
	blocker := func(release chan struct{}) func() {
		return func() { started <- struct{}{}; <-release }
	}
	relAX, relAY, relX, relY := make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
	defer close(relX)

	// Worker X writes hx and worker Y writes hy; both run at once, so they
	// are two workers.
	gx, gy := r.NewGroup(), r.NewGroup()
	gx.Submit("ax", 0, blocker(relAX), Write(hx))
	gy.Submit("ay", 0, blocker(relAY), Write(hy))
	<-started
	<-started
	// X finishes its write and is held; then Y finishes its write and is held.
	close(relAX)
	gx.Wait()
	r.Submit("holdX", 0, blocker(relX))
	<-started
	close(relAY)
	gy.Wait()
	r.Submit("holdY", 0, blocker(relY))
	<-started

	var mu sync.Mutex
	var order []string
	run := func(name string) func() {
		return func() { mu.Lock(); order = append(order, name); mu.Unlock() }
	}
	g := r.NewGroup()
	g.Submit("hi", 10, run("hi"), Write(hx))
	g.Submit("lo", 0, run("lo"), Write(hy))
	close(relY)
	g.Wait()
	if len(order) != 2 || order[0] != "hi" {
		t.Fatalf("freed worker ran %v, want hi first", order)
	}
}

func TestStatsAccumulate(t *testing.T) {
	r := New(2)
	defer r.Shutdown()
	for i := 0; i < 5; i++ {
		r.Submit("gemm", 0, func() { time.Sleep(time.Millisecond) })
	}
	r.Submit("potrf", 0, func() {})
	r.Wait()
	s := r.Snapshot()
	if s.Tasks["gemm"] != 5 || s.Tasks["potrf"] != 1 {
		t.Errorf("task counts %v", s.Tasks)
	}
	if s.BusyTime["gemm"] < 4*time.Millisecond {
		t.Errorf("busy time %v", s.BusyTime["gemm"])
	}
}

func TestManyTasksStress(t *testing.T) {
	r := New(4)
	defer r.Shutdown()
	handles := make([]*Handle, 16)
	for i := range handles {
		handles[i] = r.NewHandle("h%d", i)
	}
	var sum atomic.Int64
	for i := 0; i < 5000; i++ {
		hi, hj := handles[i%16], handles[(i*7)%16]
		r.Submit("t", i%3, func() { sum.Add(1) }, Read(hi), Write(hj))
	}
	r.Wait()
	if sum.Load() != 5000 {
		t.Errorf("ran %d tasks, want 5000", sum.Load())
	}
}

func TestReuseAfterWait(t *testing.T) {
	r := New(2)
	defer r.Shutdown()
	h := r.NewHandle("x")
	v := 0
	r.Submit("a", 0, func() { v = 1 }, Write(h))
	r.Wait()
	r.Submit("b", 0, func() { v = 2 }, ReadWrite(h))
	r.Wait()
	if v != 2 {
		t.Errorf("v = %d after second phase", v)
	}
}

func TestSubmitSameHandleTwiceInOneTask(t *testing.T) {
	// A task reading and writing the same handle (listed twice) must not
	// deadlock on itself.
	r := New(2)
	defer r.Shutdown()
	h := r.NewHandle("x")
	done := false
	r.Submit("init", 0, func() {}, Write(h))
	r.Submit("self", 0, func() { done = true }, Read(h), Write(h))
	r.Wait()
	if !done {
		t.Error("self-referencing task never ran")
	}
}

func TestTraceExport(t *testing.T) {
	r := New(2)
	defer r.Shutdown()
	// Untraced tasks are not recorded.
	r.Submit("before", 0, func() {})
	r.Wait()
	r.EnableTracing()
	h := r.NewHandle("x")
	for i := 0; i < 7; i++ {
		r.Submit("traced", 0, func() { time.Sleep(time.Millisecond) }, ReadWrite(h))
	}
	r.Wait()
	r.DisableTracing()
	r.Submit("after", 0, func() {})
	r.Wait()
	if n := r.TraceEventCount(); n != 7 {
		t.Fatalf("recorded %d events, want 7", n)
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(events) != 7 {
		t.Fatalf("trace has %d events", len(events))
	}
	for _, e := range events {
		if e["name"] != "traced" || e["ph"] != "X" {
			t.Fatalf("malformed event %v", e)
		}
		if e["dur"].(float64) < 1 {
			t.Fatalf("event duration %v", e["dur"])
		}
	}
}

func TestWorkersClamped(t *testing.T) {
	r := New(0)
	defer r.Shutdown()
	if r.Workers() != 1 {
		t.Errorf("Workers() = %d, want clamp to 1", r.Workers())
	}
	ran := false
	r.Submit("t", 0, func() { ran = true })
	r.Wait()
	if !ran {
		t.Error("task did not run with clamped pool")
	}
}
