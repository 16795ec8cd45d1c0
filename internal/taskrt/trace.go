package taskrt

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// traceEvent is one completed task execution.
type traceEvent struct {
	Name   string
	Worker int
	Start  time.Duration // since tracing was enabled
	Dur    time.Duration
}

// tracer collects execution events when enabled. StarPU ships the same
// facility (FxT traces rendered with ViTE); we emit the Chrome trace-event
// format, which chrome://tracing and Perfetto read directly.
type tracer struct {
	enabled atomic.Bool
	mu      sync.Mutex
	start   time.Time
	events  []traceEvent
}

func (t *tracer) record(name string, worker int, start time.Time, dur time.Duration) {
	if !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, traceEvent{
		Name:   name,
		Worker: worker,
		Start:  start.Sub(t.start),
		Dur:    dur,
	})
	t.mu.Unlock()
}

// EnableTracing starts recording one event per executed task. Call before
// submitting the work of interest.
func (r *Runtime) EnableTracing() {
	r.trace.mu.Lock()
	r.trace.start = time.Now()
	r.trace.events = r.trace.events[:0]
	r.trace.mu.Unlock()
	r.trace.enabled.Store(true)
}

// chromeEvent is the Chrome trace-event JSON schema ("X" complete events).
type chromeEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`  // microseconds
	Dur  int64  `json:"dur"` // microseconds
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
}

// WriteTrace dumps the recorded events as a Chrome trace-event JSON array
// (open in chrome://tracing or Perfetto): one row per worker, one slice per
// task.
func (r *Runtime) WriteTrace(w io.Writer) error {
	r.trace.mu.Lock()
	events := make([]chromeEvent, len(r.trace.events))
	for i, e := range r.trace.events {
		events[i] = chromeEvent{
			Name: e.Name,
			Ph:   "X",
			Ts:   e.Start.Microseconds(),
			Dur:  max64(e.Dur.Microseconds(), 1),
			Pid:  1,
			Tid:  e.Worker,
		}
	}
	r.trace.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
