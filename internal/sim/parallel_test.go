package sim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelForCoversAllIndices: every index runs exactly once, and no
// more than workers of them run at once.
func TestParallelForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 100
		hits := make([]int32, n)
		var inFlight, peak atomic.Int32
		err := ParallelFor(context.Background(), n, workers, func(i int) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			atomic.AddInt32(&hits[i], 1)
			inFlight.Add(-1)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
		if p := peak.Load(); p > int32(workers) {
			t.Errorf("workers=%d: concurrency peaked at %d", workers, p)
		}
	}
}

func TestParallelForDeterministicSlots(t *testing.T) {
	// The contract: per-index derived streams + per-index slots give the
	// same result for every worker count.
	run := func(workers int) []int64 {
		out := make([]int64, 64)
		if err := ParallelFor(context.Background(), len(out), workers, func(i int) {
			out[i] = DeriveSeed(42, string(rune('a'+i)))
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestParallelForCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	err := ParallelFor(ctx, 10_000, 4, func(i int) {
		if started.Add(1) == 8 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n == 10_000 {
		t.Error("cancellation did not stop the feed")
	}
	// No goroutine may still be running fn after return.
	after := started.Load()
	time.Sleep(20 * time.Millisecond)
	if started.Load() != after {
		t.Error("fn still running after ParallelFor returned")
	}
}

func TestRunUntilCtxCancel(t *testing.T) {
	s := NewScheduler()
	// A self-perpetuating event chain: without cancellation RunUntil
	// would dispatch events forever (up to the limit).
	var fire func()
	n := 0
	fire = func() {
		n++
		s.After(time.Microsecond, fire)
	}
	s.After(0, fire)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.RunUntilCtx(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n >= ctxCheckInterval {
		t.Errorf("dispatched %d events after cancellation (poll interval %d)", n, ctxCheckInterval)
	}
}

func TestSchedulerClear(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.After(time.Second, func() { ran = true })
	h := s.After(2*time.Second, func() {})
	s.Clear()
	if s.Len() != 0 {
		t.Errorf("Len = %d after Clear", s.Len())
	}
	if s.Cancel(h) {
		t.Error("Cancel found an event after Clear")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("cleared event still ran")
	}
	// The scheduler stays usable after Clear.
	s.After(time.Millisecond, func() { ran = true })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("event scheduled after Clear did not run")
	}
}
