package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// ReferenceScheduler is the pre-arena event kernel: one heap-allocated
// node per event, a byID map for cancellation, and O(log n) heap.Remove
// on Cancel. It is kept verbatim (modulo renames) as the behavioural
// oracle for the arena Scheduler — the differential tests in
// arena_test.go replay identical schedules against both kernels and
// require bit-identical dispatch order. It is test code: no simulation
// path can reach it.
type ReferenceScheduler struct {
	now     Time
	seq     uint64
	heap    refEventHeap
	byID    map[Handle]*refEvent
	stopped bool

	executed uint64
}

// refEvent is a single scheduled callback in the reference kernel.
type refEvent struct {
	at    Time
	seq   uint64
	fn    func()
	index int // heap index; -1 once popped or cancelled
}

// refEventHeap orders events by (at, seq).
type refEventHeap []*refEvent

func (h refEventHeap) Len() int { return len(h) }

func (h refEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refEventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refEventHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// NewReferenceScheduler returns an empty reference scheduler.
func NewReferenceScheduler() *ReferenceScheduler {
	return &ReferenceScheduler{byID: make(map[Handle]*refEvent)}
}

// Now returns the current virtual time.
func (s *ReferenceScheduler) Now() Time { return s.now }

// Len returns the number of pending events.
func (s *ReferenceScheduler) Len() int { return len(s.heap) }

// Executed returns the total number of events dispatched so far.
func (s *ReferenceScheduler) Executed() uint64 { return s.executed }

// At schedules fn at absolute virtual time at.
func (s *ReferenceScheduler) At(at Time, fn func()) Handle {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	s.seq++
	ev := &refEvent{at: at, seq: s.seq, fn: fn}
	heap.Push(&s.heap, ev)
	h := Handle(s.seq)
	s.byID[h] = ev
	return h
}

// After schedules fn d after the current virtual time.
func (s *ReferenceScheduler) After(d time.Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Cancel removes a pending event (O(log n) heap.Remove).
func (s *ReferenceScheduler) Cancel(h Handle) bool {
	ev, ok := s.byID[h]
	if !ok {
		return false
	}
	delete(s.byID, h)
	if ev.index < 0 {
		return false
	}
	heap.Remove(&s.heap, ev.index)
	return true
}

// Stop halts the simulation after the current callback.
func (s *ReferenceScheduler) Stop() { s.stopped = true }

func (s *ReferenceScheduler) step() {
	ev := heap.Pop(&s.heap).(*refEvent)
	delete(s.byID, Handle(ev.seq))
	s.now = ev.at
	s.executed++
	ev.fn()
}

// Run dispatches events until none remain or Stop is called.
func (s *ReferenceScheduler) Run() error {
	s.stopped = false
	for len(s.heap) > 0 {
		if s.stopped {
			return ErrStopped
		}
		s.step()
	}
	return nil
}

// RunUntil dispatches events with timestamps <= limit, then advances the
// clock to limit.
func (s *ReferenceScheduler) RunUntil(limit Time) error {
	if limit < s.now {
		return fmt.Errorf("sim: RunUntil limit %v before now %v", limit, s.now)
	}
	s.stopped = false
	for len(s.heap) > 0 && s.heap[0].at <= limit {
		if s.stopped {
			return ErrStopped
		}
		s.step()
	}
	if !s.stopped && s.now < limit {
		s.now = limit
	}
	if s.stopped {
		return ErrStopped
	}
	return nil
}

// RunN dispatches at most n events.
func (s *ReferenceScheduler) RunN(n int) (int, error) {
	s.stopped = false
	ran := 0
	for ran < n && len(s.heap) > 0 {
		if s.stopped {
			return ran, ErrStopped
		}
		s.step()
		ran++
	}
	return ran, nil
}
