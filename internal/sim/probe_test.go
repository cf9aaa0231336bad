package sim

import "testing"

// TestSchedulerProbe pins that the coarse probe fires at poll intervals
// and observes monotonic progress.
func TestSchedulerProbe(t *testing.T) {
	s := NewScheduler()
	var calls int
	var lastExec uint64
	s.SetProbe(func(now Time, executed uint64) {
		calls++
		if executed < lastExec {
			t.Errorf("probe saw executed go backwards: %d then %d", lastExec, executed)
		}
		lastExec = executed
	})
	for i := 0; i < 3000; i++ {
		s.At(Time(i), func() {})
	}
	if err := s.RunUntil(Time(5000)); err != nil {
		t.Fatal(err)
	}
	if calls < 2 {
		t.Fatalf("probe fired %d times over 3000 events, want >= 2", calls)
	}
	s.SetProbe(nil)
	s.At(Time(6000), func() {})
	if err := s.RunUntil(Time(7000)); err != nil {
		t.Fatal(err)
	}
}
