package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestCancelStorm interleaves schedules and cancels and verifies exactly
// the non-cancelled callbacks fire, in time order.
func TestCancelStorm(t *testing.T) {
	s := NewScheduler()
	r := rand.New(rand.NewSource(99))
	type tracked struct {
		handle    Handle
		at        Time
		cancelled bool
	}
	var items []*tracked
	fired := make(map[Handle]Time)
	for i := 0; i < 2000; i++ {
		it := &tracked{at: Time(r.Intn(1000)) * time.Microsecond}
		it.handle = s.At(it.at, func() { fired[it.handle] = s.Now() })
		items = append(items, it)
	}
	// Cancel a random half.
	for _, it := range items {
		if r.Intn(2) == 0 {
			if !s.Cancel(it.handle) {
				t.Fatal("cancel of pending event failed")
			}
			it.cancelled = true
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		at, ok := fired[it.handle]
		if it.cancelled && ok {
			t.Fatal("cancelled event fired")
		}
		if !it.cancelled {
			if !ok {
				t.Fatal("live event did not fire")
			}
			if at != it.at {
				t.Fatalf("event fired at %v, scheduled %v", at, it.at)
			}
		}
	}
}

// TestHeapInterleavedRunAndSchedule alternates RunN with fresh schedules,
// verifying the clock never goes backwards.
func TestHeapInterleavedRunAndSchedule(t *testing.T) {
	s := NewScheduler()
	r := rand.New(rand.NewSource(7))
	var last Time
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			s.After(time.Duration(r.Intn(100))*time.Microsecond, func() {
				if s.Now() < last {
					t.Fatal("clock went backwards")
				}
				last = s.Now()
			})
		}
		if _, err := s.RunN(10); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil(x) then RunUntil(y>=x) processes exactly the events
// with timestamps <= y.
func TestPropertyRunUntilSplit(t *testing.T) {
	f := func(raw []uint8, splitRaw uint8) bool {
		s := NewScheduler()
		fired := 0
		maxT := Time(0)
		for _, d := range raw {
			at := Time(d) * time.Microsecond
			if at > maxT {
				maxT = at
			}
			s.At(at, func() { fired++ })
		}
		split := Time(splitRaw) * time.Microsecond
		if err := s.RunUntil(split); err != nil {
			return false
		}
		want := 0
		for _, d := range raw {
			if Time(d)*time.Microsecond <= split {
				want++
			}
		}
		if fired != want {
			return false
		}
		rest := maxT
		if split > rest {
			rest = split
		}
		if err := s.RunUntil(rest + time.Microsecond); err != nil {
			return false
		}
		return fired == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil fn did not panic")
		}
	}()
	NewScheduler().At(0, nil)
}

func TestExecutedCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 5; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Executed() != 5 {
		t.Errorf("Executed = %d, want 5", s.Executed())
	}
}
