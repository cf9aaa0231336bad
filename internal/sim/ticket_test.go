package sim

import (
	"slices"
	"testing"
	"time"
)

// TestRedeemKeepsPlace: a ticket redeemed late dispatches exactly where an
// AfterIndexed made at reservation time would have — after the events at its
// instant scheduled before it, before those scheduled after it, whatever was
// scheduled or run in between.
func TestRedeemKeepsPlace(t *testing.T) {
	const ms = time.Millisecond
	run := func(ticket bool) (got []int32, end Time) {
		s := NewScheduler()
		tag := s.Handle(func(idx int32) { got = append(got, idx) })
		s.AfterIndexed(2*ms, tag, 1)
		s.AfterIndexed(ms, tag, 2)
		var place Ticket
		if ticket {
			place = s.Reserve(2 * ms)
		} else {
			s.AfterIndexed(2*ms, tag, 3)
		}
		s.AfterIndexed(2*ms, tag, 4)
		s.After(2*ms, func() { got = append(got, 5) })
		if err := s.RunUntil(ms); err != nil {
			t.Fatal(err)
		}
		// Same instant as the place, scheduled after it and after a run.
		s.AfterIndexed(ms, tag, 6)
		s.AfterIndexed(ms/2, tag, 7)
		if ticket {
			s.Redeem(place, tag, 3)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return got, s.Now()
	}
	eager, eagerEnd := run(false)
	lazy, lazyEnd := run(true)
	if want := []int32{2, 7, 1, 3, 4, 5, 6}; !slices.Equal(eager, want) || !slices.Equal(lazy, want) || eagerEnd != lazyEnd {
		t.Fatalf("eager %v ending %v, redeemed %v ending %v, want both %v", eager, eagerEnd, lazy, lazyEnd, want)
	}
}

// TestPassed: inside a running event a place has passed iff an event there
// would already have run, the tie at the current instant decided by seq;
// between runs it has passed iff the run that ended went past it.
func TestPassed(t *testing.T) {
	const ms = time.Millisecond
	s := NewScheduler()
	var early, tie, late Ticket
	check := func(when string, wantEarly, wantTie, wantLate bool) {
		t.Helper()
		if e, ti, l := s.Passed(early), s.Passed(tie), s.Passed(late); e != wantEarly || ti != wantTie || l != wantLate {
			t.Errorf("%s: Passed(early, tie, late) = %v %v %v, want %v %v %v", when, e, ti, l, wantEarly, wantTie, wantLate)
		}
	}
	s.After(2*ms, func() { check("in the event before the tie", true, false, false) })
	early, tie, late = s.Reserve(ms), s.Reserve(2*ms), s.Reserve(3*ms)
	s.After(2*ms, func() {
		check("in the event after the tie", true, true, false)
		s.Stop()
	})
	s.After(2*ms, func() {})
	check("before any run", false, false, false)
	if err := s.Run(); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	// Stopped at 2 ms with an event of that instant still queued: only what
	// ran has passed, so a place at the same instant behind it has not.
	behind := s.Reserve(0)
	check("after Stop", true, true, false)
	if s.Passed(behind) {
		t.Error("a place reserved after Stop, at the instant it stopped at, has passed")
	}
	if err := s.RunUntil(2 * ms); err != nil {
		t.Fatal(err)
	}
	// A RunUntil that reached its limit has passed everything up to it, and
	// nothing reserved since.
	check("after RunUntil(2ms)", true, true, false)
	if !s.Passed(behind) {
		t.Error("RunUntil reached its limit without passing a place at the limit")
	}
	if s.Passed(s.Reserve(0)) {
		t.Error("a place reserved after the run, at its limit, has passed")
	}
	if err := s.RunUntil(10 * ms); err != nil {
		t.Fatal(err)
	}
	check("after RunUntil(10ms)", true, true, true)
}

// TestDrainedRunEndsAtLatestPlace: a queue that drains with places
// outstanding leaves the clock where the last of them would have run, as the
// events they stand for would have — and a Stop in the last event holds it.
func TestDrainedRunEndsAtLatestPlace(t *testing.T) {
	const ms = time.Millisecond
	s := NewScheduler()
	s.After(ms, func() {})
	s.Reserve(5 * ms)
	place := s.Reserve(3 * ms)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 5*ms || !s.Passed(place) {
		t.Fatalf("drained Run ended at %v (place passed: %v), want 5ms with every place passed", s.Now(), s.Passed(place))
	}
	// Nothing queued at all: still the latest place.
	s.Reserve(2 * ms)
	if n, err := s.RunN(10); n != 0 || err != nil || s.Now() != 7*ms {
		t.Fatalf("RunN on an empty queue = (%d, %v) ending at %v, want (0, nil) at 7ms", n, err, s.Now())
	}
	// RunUntil short of the place leaves it ahead; the next Run reaches it.
	place = s.Reserve(4 * ms)
	if err := s.RunUntil(8 * ms); err != nil || s.Now() != 8*ms || s.Passed(place) {
		t.Fatalf("RunUntil(8ms) = %v ending at %v (place passed: %v)", err, s.Now(), s.Passed(place))
	}
	s.After(ms, func() { s.Stop() })
	if err := s.Run(); err != nil || s.Now() != 9*ms || s.Passed(place) {
		t.Fatalf("Run stopped by its last event = %v ending at %v (place passed: %v), want nil at 9ms, place ahead", err, s.Now(), s.Passed(place))
	}
	if err := s.Run(); err != nil || s.Now() != 11*ms || !s.Passed(place) {
		t.Fatalf("Run = %v ending at %v (place passed: %v), want nil at 11ms, place passed", err, s.Now(), s.Passed(place))
	}
}

// TestRedeemRefusals: a place that has passed cannot be taken up, nor can
// the zero Ticket, nor any under a tag nobody registered.
func TestRedeemRefusals(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	s := NewScheduler()
	tag := s.Handle(func(int32) { t.Error("a refused Redeem dispatched") })
	place := s.Reserve(time.Millisecond)
	mustPanic("Redeem under an unregistered tag", func() { s.Redeem(place, tag+1, 0) })
	mustPanic("Redeem of the zero Ticket", func() { s.Redeem(Ticket{}, tag, 0) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	mustPanic("Redeem of a passed ticket", func() { s.Redeem(place, tag, 0) })
	if s.Len() != 0 {
		t.Fatalf("%d events queued by refused Redeems", s.Len())
	}
}

// TestTicketBefore: Before orders tickets as the heap orders the events they
// stand for — by time, ties by reservation order — so tickets sorted by it
// come due in the order their redeemed events dispatch.
func TestTicketBefore(t *testing.T) {
	const ms = time.Millisecond
	s := NewScheduler()
	delays := []time.Duration{3 * ms, ms, 2 * ms, ms, 0, 3 * ms, 2 * ms}
	places := make([]Ticket, len(delays))
	for i, d := range delays {
		places[i] = s.Reserve(d)
		if places[i].At() != d {
			t.Fatalf("ticket %d at %v, reserved for %v", i, places[i].At(), d)
		}
	}
	var order []int32
	s2 := NewScheduler()
	tag2 := s2.Handle(func(idx int32) { order = append(order, idx) })
	for i, d := range delays {
		s2.AfterIndexed(d, tag2, int32(i))
	}
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	sorted := make([]int32, len(places))
	for i := range sorted {
		sorted[i] = int32(i)
	}
	slices.SortFunc(sorted, func(a, b int32) int {
		switch {
		case places[a].Before(places[b]):
			return -1
		case places[b].Before(places[a]):
			return 1
		}
		return 0
	})
	if !slices.Equal(sorted, order) {
		t.Fatalf("tickets by Before %v, events dispatched %v", sorted, order)
	}
	if places[0].Before(places[0]) {
		t.Fatal("a ticket is before itself")
	}
}
