package taskrt

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestThrottleBlocksAtLimit checks the windowed-submission decorator: the
// STF master must block in Submit once the in-flight bound is reached and
// resume as tasks retire.
func TestThrottleBlocksAtLimit(t *testing.T) {
	rt := New(4)
	defer rt.Shutdown()
	th := NewThrottle(rt, 3)
	gate := make(chan struct{})
	for i := 0; i < 3; i++ {
		th.Submit("held", 0, func() { <-gate })
	}
	fourth := make(chan struct{})
	go func() {
		th.Submit("fourth", 0, func() {})
		close(fourth)
	}()
	select {
	case <-fourth:
		t.Fatal("submission past the in-flight bound did not block")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	select {
	case <-fourth:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked submission never resumed")
	}
	th.Wait()
	// The throttle releases its slot at the end of the task function, just
	// before the runtime retires the descriptor, so the runtime's in-flight
	// peak can transiently exceed the bound by up to one task per worker —
	// but never by the unthrottled graph size.
	if peak := rt.Snapshot().PeakInflight; peak > 3+rt.Workers() {
		t.Errorf("peak in-flight %d far exceeds the throttle bound 3", peak)
	}
}

// TestThrottleClampsLimit pins the at-least-1 clamp: a degenerate limit must
// not deadlock the first submission.
func TestThrottleClampsLimit(t *testing.T) {
	rt := New(1)
	defer rt.Shutdown()
	th := NewThrottle(rt, 0)
	ran := false
	th.Submit("t", 0, func() { ran = true })
	th.Wait()
	if !ran {
		t.Error("task did not run through clamped throttle")
	}
}

// TestThrottleReleasesOnError checks failing tasks still release their
// window slot — a leaked slot would deadlock the master — and that the
// error reaches the underlying scope.
func TestThrottleReleasesOnError(t *testing.T) {
	rt := New(2)
	defer rt.Shutdown()
	th := NewThrottle(rt, 2)
	sentinel := errors.New("boom")
	var ran atomic.Int64
	for i := 0; i < 50; i++ {
		i := i
		th.SubmitErr("step", 0, func() error {
			ran.Add(1)
			if i%7 == 0 {
				return sentinel
			}
			return nil
		})
	}
	th.Wait()
	if got := ran.Load(); got != 50 {
		t.Errorf("ran %d tasks, want 50 (a failing task leaked its window slot)", got)
	}
	if err := th.Err(); !errors.Is(err, sentinel) {
		t.Errorf("throttle Err = %v, want the injected failure", err)
	}
}

// TestStatsPeakInflight checks the in-flight counter added for windowed
// submission is populated: with a gated dependency fan the in-flight peak
// must reach the full graph size.
func TestStatsPeakInflight(t *testing.T) {
	rt := New(2)
	defer rt.Shutdown()
	gate := make(chan struct{})
	h := rt.NewHandle("x")
	rt.Submit("gate", 0, func() { <-gate }, Write(h))
	for i := 0; i < 9; i++ {
		rt.Submit("r", 0, func() {}, Read(h))
	}
	close(gate)
	rt.Wait()
	s := rt.Snapshot()
	if s.PeakInflight != 10 {
		t.Errorf("peak in-flight %d, want 10", s.PeakInflight)
	}
}
