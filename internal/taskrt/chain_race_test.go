//go:build race

package taskrt

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// The contended-chain stress test runs under the race detector only: its
// value is the detector sweeping the ready queue's handoff between workers
// under heavy contention while failures propagate.

// runContendedChain drives a serial read-write chain interleaved with
// independent, higher-priority filler tasks that keep every worker busy,
// through a throttled submitter with an injected failure. It returns the
// tasks executed, the scope's recorded error and what a second Err call
// reports.
func runContendedChain(sentinel error) (ran int64, err, again error) {
	rt := New(4)
	defer rt.Shutdown()
	th := NewThrottle(rt, 64)
	chain := th.NewHandle("chain")
	var count atomic.Int64
	const total = 2000
	for i := 0; i < total; i++ {
		i := i
		if i%5 == 0 {
			th.Submit("filler", 1, func() {
				count.Add(1)
				time.Sleep(20 * time.Microsecond)
			})
			continue
		}
		th.SubmitErr("chain", 0, func() error {
			count.Add(1)
			if i == 777 {
				return sentinel
			}
			return nil
		}, ReadWrite(chain))
	}
	th.Wait()
	err = th.Err()
	return count.Load(), err, th.Err()
}

// TestContendedChainWithFailureInjection checks, under contention, that the
// serial chain loses no updates and that the injected failure surfaces
// exactly once through the throttled scope.
func TestContendedChainWithFailureInjection(t *testing.T) {
	sentinel := errors.New("injected failure")
	ran, err, again := runContendedChain(sentinel)
	if ran != 2000 {
		t.Fatalf("ran %d tasks, want 2000 (lost chain updates)", ran)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("scope error = %v, want the injected failure", err)
	}
	if again != nil {
		t.Fatalf("second Err = %v, want nil (the failure surfaces once)", again)
	}
}
