// Package taskrt is a task-based runtime in the style of StarPU: the
// algorithm is written as a sequence of task submissions, each declaring how
// it accesses named data handles (read, write or read-write), and the
// runtime infers the dependency DAG from those declarations — the
// "sequential task flow" model. Ready tasks are executed by a pool of worker
// goroutines through per-worker priority queues with owner-computes
// affinity: a ready task is enqueued on the worker that last wrote the data
// it writes (its output tile is warm in that worker's cache), idle workers
// steal the best-priority task from the busiest-looking peer, and within a
// queue the original priority semantics (higher first, submission order as
// tie-break) are preserved.
//
// This is the substrate on which the tiled Cholesky factorization and the
// tiled PMVN integration (Algorithms 1–3 of the paper, red boxes (a)–(d))
// are parallelized.
package taskrt

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Access declares how a task uses a data handle.
type Access int

// Access modes. W and RW are distinguished only for documentation; both
// serialize against all earlier readers and the earlier writer.
const (
	R Access = iota
	W
	RW
)

// Handle identifies a piece of data (typically one tile) whose access
// sequence defines task dependencies. Handles are created by
// Runtime.NewHandle; the dependency fields are only mutated during task
// submission, which is single-threaded by the STF contract, while owner (the
// worker that last completed a writer task — the locality hint) is guarded
// by the runtime scheduler lock.
type Handle struct {
	name       string
	lastWriter *task
	readers    []*task
	owner      int // worker that last wrote the data; -1 = unwritten
}

// String returns the debug name of the handle.
func (h *Handle) String() string { return h.name }

// Dep pairs a handle with an access mode in a Submit call.
type Dep struct {
	H    *Handle
	Mode Access
}

// Read declares read access to h.
func Read(h *Handle) Dep { return Dep{H: h, Mode: R} }

// Write declares write access to h.
func Write(h *Handle) Dep { return Dep{H: h, Mode: W} }

// ReadWrite declares read-write access to h.
func ReadWrite(h *Handle) Dep { return Dep{H: h, Mode: RW} }

type task struct {
	name     string
	fn       func()
	priority int
	seq      int64  // submission order, tie-breaker for determinism
	onDone   func() // completion callback (group bookkeeping), may be nil

	writes []*Handle // handles this task writes; writes[0] is the affinity key
	queue  int       // worker queue the ready task was placed on

	mu         sync.Mutex
	remaining  int
	done       bool
	successors []*task
}

// addSuccessor registers succ to run after t; it reports whether t is still
// pending (true = the dependency counts).
func (t *task) addSuccessor(succ *task) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return false
	}
	t.successors = append(t.successors, succ)
	return true
}

// Stats aggregates per-task-kind execution counts and busy time, plus the
// scheduler-behavior signals the CLI and the serving layer report: the peak
// depth of the ready queues (how far ahead of the workers the submitted
// graph ran), the peak number of live task descriptors (how much graph a
// windowed submission actually kept in flight) and how many ready tasks were
// stolen off their affinity owner's queue.
type Stats struct {
	Tasks    map[string]int
	BusyTime map[string]time.Duration
	// PeakReady is the deepest the ready queues have been (summed).
	PeakReady int
	// PeakInflight is the most task descriptors alive at once — submitted
	// but not yet finished, whether waiting on dependencies, ready or
	// running. Windowed submission bounds exactly this number.
	PeakInflight int
	// Stolen counts ready tasks executed by a worker other than the one
	// their owner-computes affinity placed them on.
	Stolen int
}

// Total returns the number of tasks executed across all kinds.
func (s Stats) Total() int {
	n := 0
	for _, v := range s.Tasks {
		n += v
	}
	return n
}

// Submitter is the common task-submission surface of Runtime and Group:
// algorithms written against it can run either on the global runtime scope
// or inside an isolated completion group.
type Submitter interface {
	// NewHandle registers a named data handle.
	NewHandle(format string, args ...any) *Handle
	// Submit enqueues a task with declared handle accesses.
	Submit(name string, priority int, fn func(), deps ...Dep)
	// SubmitErr enqueues a task whose function may fail. The first failure
	// is recorded on the submission scope (the Group, or the Runtime for
	// master submissions) and reported by Err — the error-propagation
	// pattern every fallible task graph (e.g. a Cholesky hitting a
	// non-positive-definite pivot) shares.
	SubmitErr(name string, priority int, fn func() error, deps ...Dep)
	// Err returns the first failure recorded by SubmitErr on this scope and
	// resets the record, so a scope reused for a new algorithm phase starts
	// clean. Call it after Wait.
	Err() error
	// Wait blocks until every task submitted through this Submitter has
	// completed.
	Wait()
}

// errScope is the shared first-failure record behind SubmitErr/Err on both
// Runtime and Group — one implementation of the lock-check-set pattern the
// factorizations used to each carry as a mutex closure.
type errScope struct {
	mu       sync.Mutex
	firstErr error
}

// record keeps the first non-nil error.
func (e *errScope) record(err error) {
	e.mu.Lock()
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.mu.Unlock()
}

// take returns the recorded error and resets the scope.
func (e *errScope) take() error {
	e.mu.Lock()
	err := e.firstErr
	e.firstErr = nil
	e.mu.Unlock()
	return err
}

// Runtime schedules tasks over a fixed worker pool. Create one with New,
// submit tasks, then Wait. A Runtime may be reused for several algorithm
// phases; call Shutdown when finished.
//
// Submissions that share data handles must come from a single goroutine (the
// STF master). Independent task graphs — disjoint handle sets — may be
// submitted concurrently from multiple goroutines, each through its own
// Group, which is how concurrent MVN queries and randomized-QMC replicates
// share one worker pool.
type Runtime struct {
	workers int

	mu           sync.Mutex
	cond         *sync.Cond // workers: some ready queue not empty / closed
	idle         *sync.Cond // waiters: inflight dropped to zero
	queues       []taskHeap // one priority queue per worker
	readyCount   int        // tasks across all queues
	closed       bool
	seq          int64
	inflight     int // tasks submitted but not yet finished
	peakReady    int // deepest the ready queues have been (summed)
	peakInflight int // most task descriptors alive at once

	statsMu sync.Mutex
	stats   Stats

	errs errScope

	trace tracer
}

// New returns a runtime with the given number of worker goroutines
// (at least 1).
func New(workers int) *Runtime {
	if workers < 1 {
		workers = 1
	}
	r := &Runtime{
		workers: workers,
		queues:  make([]taskHeap, workers),
		stats:   Stats{Tasks: map[string]int{}, BusyTime: map[string]time.Duration{}},
	}
	r.cond = sync.NewCond(&r.mu)
	r.idle = sync.NewCond(&r.mu)
	for i := 0; i < workers; i++ {
		go r.worker(i)
	}
	return r
}

// Workers returns the size of the worker pool.
func (r *Runtime) Workers() int { return r.workers }

// NewHandle registers a named data handle.
func (r *Runtime) NewHandle(format string, args ...any) *Handle {
	return &Handle{name: fmt.Sprintf(format, args...), owner: -1}
}

// Submit enqueues a task. The runtime derives its dependencies from how
// earlier tasks accessed the same handles: readers wait for the last writer;
// writers wait for the last writer and all readers since. Tasks sharing
// handles must be submitted from a single goroutine (the STF master),
// mirroring StarPU's starpu_task_insert; independent graphs may submit
// concurrently (see Group).
func (r *Runtime) Submit(name string, priority int, fn func(), deps ...Dep) {
	r.submit(name, priority, fn, nil, deps)
}

// SubmitErr enqueues a fallible task on the runtime scope; the first failure
// is kept and returned (once) by Err.
func (r *Runtime) SubmitErr(name string, priority int, fn func() error, deps ...Dep) {
	r.submit(name, priority, func() {
		if err := fn(); err != nil {
			r.errs.record(err)
		}
	}, nil, deps)
}

// Err returns the first failure recorded by Runtime.SubmitErr since the last
// call and clears it, so a runtime reused across algorithm phases reports
// each phase's outcome independently. Like master task submission itself,
// fallible phases on the raw runtime scope must not overlap; concurrent task
// graphs each use their own Group, whose Err is scoped per group.
func (r *Runtime) Err() error { return r.errs.take() }

func (r *Runtime) submit(name string, priority int, fn func(), onDone func(), deps []Dep) {
	t := &task{name: name, fn: fn, priority: priority, onDone: onDone}
	r.mu.Lock()
	r.inflight++
	if r.inflight > r.peakInflight {
		r.peakInflight = r.inflight
	}
	r.mu.Unlock()

	// Collect unique predecessor tasks.
	preds := map[*task]struct{}{}
	for _, d := range deps {
		switch d.Mode {
		case R:
			if w := d.H.lastWriter; w != nil && w != t {
				preds[w] = struct{}{}
			}
			d.H.readers = append(d.H.readers, t)
		case W, RW:
			if w := d.H.lastWriter; w != nil && w != t {
				preds[w] = struct{}{}
			}
			for _, rd := range d.H.readers {
				if rd != t {
					preds[rd] = struct{}{}
				}
			}
			d.H.lastWriter = t
			d.H.readers = nil
			t.writes = append(t.writes, d.H)
		default:
			panic("taskrt: invalid access mode")
		}
	}
	n := 0
	for p := range preds {
		if p.addSuccessor(t) {
			n++
		}
	}
	t.mu.Lock()
	t.remaining += n
	ready := t.remaining == 0
	t.mu.Unlock()
	if ready {
		r.push(t)
	}
}

// push places a ready task on a worker queue: the one that last wrote the
// task's output handle when known (owner-computes affinity — the data the
// task is about to touch is warm in that worker's cache), otherwise spread
// round-robin by submission sequence.
func (r *Runtime) push(t *task) {
	r.mu.Lock()
	t.seq = r.seq
	r.seq++
	q := -1
	if len(t.writes) > 0 {
		q = t.writes[0].owner
	}
	if q < 0 {
		q = int(t.seq) % len(r.queues)
	}
	t.queue = q
	heap.Push(&r.queues[q], t)
	r.readyCount++
	if r.readyCount > r.peakReady {
		r.peakReady = r.readyCount
	}
	r.mu.Unlock()
	r.cond.Signal()
}

// take pops the next task for worker id under r.mu: its own queue first
// (affinity), otherwise it steals the best-priority ready task among the
// other queues' tops, so the global priority semantics still decide what an
// idle worker picks up.
func (r *Runtime) take(id int) *task {
	if len(r.queues[id]) > 0 {
		r.readyCount--
		return heap.Pop(&r.queues[id]).(*task)
	}
	victim := -1
	for q := range r.queues {
		if q == id || len(r.queues[q]) == 0 {
			continue
		}
		if victim < 0 || taskBefore(r.queues[q][0], r.queues[victim][0]) {
			victim = q
		}
	}
	if victim < 0 {
		return nil
	}
	r.readyCount--
	return heap.Pop(&r.queues[victim]).(*task)
}

func (r *Runtime) worker(id int) {
	for {
		r.mu.Lock()
		var t *task
		for {
			if t = r.take(id); t != nil || r.closed {
				break
			}
			r.cond.Wait()
		}
		if t == nil {
			r.mu.Unlock()
			return
		}
		r.mu.Unlock()

		start := time.Now()
		t.fn()
		elapsed := time.Since(start)
		r.trace.record(t.name, id, start, elapsed)

		r.statsMu.Lock()
		r.stats.Tasks[t.name]++
		r.stats.BusyTime[t.name] += elapsed
		if t.queue != id {
			r.stats.Stolen++
		}
		r.statsMu.Unlock()

		// Record ownership of the written data before any successor can
		// become ready: a successor pushed after this point reads the
		// owner under the same scheduler lock.
		if len(t.writes) > 0 {
			r.mu.Lock()
			for _, h := range t.writes {
				h.owner = id
			}
			r.mu.Unlock()
		}

		t.mu.Lock()
		t.done = true
		succ := t.successors
		t.successors = nil
		t.mu.Unlock()
		for _, s := range succ {
			s.mu.Lock()
			s.remaining--
			ready := s.remaining == 0
			s.mu.Unlock()
			if ready {
				r.push(s)
			}
		}
		if t.onDone != nil {
			t.onDone()
		}
		r.mu.Lock()
		r.inflight--
		if r.inflight == 0 {
			r.idle.Broadcast()
		}
		r.mu.Unlock()
	}
}

// Wait blocks until every submitted task has completed — across all groups
// and master submissions. For a barrier over one batch only, use Group.Wait.
func (r *Runtime) Wait() {
	r.mu.Lock()
	for r.inflight > 0 {
		r.idle.Wait()
	}
	r.mu.Unlock()
}

// Shutdown waits for outstanding tasks and stops the workers. The runtime
// must not be used afterwards.
func (r *Runtime) Shutdown() {
	r.Wait()
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cond.Broadcast()
}

// Group scopes a set of task submissions to their own completion barrier:
// tasks submitted through a Group run on the shared worker pool, but
// Group.Wait blocks only until the group's own tasks have finished, not the
// whole runtime. Concurrent goroutines may each submit through their own
// Group as long as their handle sets are disjoint — this is the per-query
// wait scope used by concurrent MVN queries and parallel QMC replicates.
type Group struct {
	rt   *Runtime
	wg   sync.WaitGroup
	errs errScope
}

// NewGroup returns a fresh completion group on the runtime's worker pool.
func (r *Runtime) NewGroup() *Group { return &Group{rt: r} }

// NewHandle registers a named data handle (handles are runtime-global; the
// group only scopes completion).
func (g *Group) NewHandle(format string, args ...any) *Handle {
	return g.rt.NewHandle(format, args...)
}

// Submit enqueues a task whose completion is tracked by this group. Like
// Runtime.Submit, tasks sharing handles must be submitted from a single
// goroutine.
func (g *Group) Submit(name string, priority int, fn func(), deps ...Dep) {
	g.wg.Add(1)
	g.rt.submit(name, priority, fn, g.wg.Done, deps)
}

// SubmitErr enqueues a fallible task; the group records the first failure
// across all of its tasks, replacing the per-algorithm mutex-and-closure
// error plumbing the factorizations used to carry.
func (g *Group) SubmitErr(name string, priority int, fn func() error, deps ...Dep) {
	g.Submit(name, priority, func() {
		if err := fn(); err != nil {
			g.errs.record(err)
		}
	}, deps...)
}

// Err returns the first failure recorded by SubmitErr on this group and
// resets it. Call after Wait.
func (g *Group) Err() error { return g.errs.take() }

// Wait blocks until every task submitted through this group has completed.
func (g *Group) Wait() { g.wg.Wait() }

// Throttle is a Submitter decorator that bounds the number of
// submitted-but-unfinished tasks: Submit blocks the STF master while the
// bound is reached and resumes as tasks complete. This is the windowed
// ("lookahead") submission used by the streamed factorization — task
// descriptors for an nt-tile Cholesky number O(nt³), so submitting the whole
// graph eagerly costs more memory than the matrix; the throttle keeps only a
// scheduling window alive.
//
// Blocking the master is deadlock-free under the STF contract: a submitted
// task can only depend on earlier-submitted tasks, so the tasks already in
// flight always make progress without the master.
type Throttle struct {
	sub      Submitter
	mu       sync.Mutex
	cond     *sync.Cond
	limit    int
	inflight int
}

// NewThrottle wraps sub with an in-flight task bound of limit (at least 1).
func NewThrottle(sub Submitter, limit int) *Throttle {
	if limit < 1 {
		limit = 1
	}
	t := &Throttle{sub: sub, limit: limit}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// NewHandle registers a named data handle on the underlying scope.
func (th *Throttle) NewHandle(format string, args ...any) *Handle {
	return th.sub.NewHandle(format, args...)
}

func (th *Throttle) acquire() {
	th.mu.Lock()
	for th.inflight >= th.limit {
		th.cond.Wait()
	}
	th.inflight++
	th.mu.Unlock()
}

func (th *Throttle) release() {
	th.mu.Lock()
	th.inflight--
	th.mu.Unlock()
	th.cond.Signal()
}

// Submit enqueues a task, blocking while the in-flight bound is reached.
func (th *Throttle) Submit(name string, priority int, fn func(), deps ...Dep) {
	th.acquire()
	th.sub.Submit(name, priority, func() {
		fn()
		th.release()
	}, deps...)
}

// SubmitErr enqueues a fallible task, blocking while the in-flight bound is
// reached; errors propagate to the underlying scope.
func (th *Throttle) SubmitErr(name string, priority int, fn func() error, deps ...Dep) {
	th.acquire()
	th.sub.SubmitErr(name, priority, func() error {
		err := fn()
		th.release()
		return err
	}, deps...)
}

// Err reports the underlying scope's first recorded failure.
func (th *Throttle) Err() error { return th.sub.Err() }

// Wait blocks until every task submitted through the underlying scope has
// completed.
func (th *Throttle) Wait() { th.sub.Wait() }

// ForEachLimit runs fn(i) for every i in [0,n) with at most limit calls in
// flight — for fan-outs where each item allocates its whole working set up
// front, so unbounded spawning would exhaust memory long before the worker
// pool could drain it. limit < 1 means 1.
func ForEachLimit(n, limit int, fn func(int)) {
	if limit < 1 {
		limit = 1
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fn(i)
		}()
	}
	wg.Wait()
}

// Snapshot returns a copy of the accumulated execution statistics.
func (r *Runtime) Snapshot() Stats {
	r.mu.Lock()
	peak := r.peakReady
	peakIn := r.peakInflight
	r.mu.Unlock()
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	s := Stats{
		Tasks: map[string]int{}, BusyTime: map[string]time.Duration{},
		PeakReady: peak, PeakInflight: peakIn, Stolen: r.stats.Stolen,
	}
	for k, v := range r.stats.Tasks {
		s.Tasks[k] = v
	}
	for k, v := range r.stats.BusyTime {
		s.BusyTime[k] = v
	}
	return s
}

// taskBefore reports whether a should run before b: higher priority first,
// earlier submission as tie-break.
func taskBefore(a, b *task) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.seq < b.seq
}

// taskHeap is a max-heap on (priority, earlier submission wins ties).
type taskHeap []*task

func (h taskHeap) Len() int           { return len(h) }
func (h taskHeap) Less(i, j int) bool { return taskBefore(h[i], h[j]) }
func (h taskHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)        { *h = append(*h, x.(*task)) }
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
