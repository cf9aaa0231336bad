package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(30*time.Millisecond, func() { order = append(order, 3) })
	s.At(10*time.Millisecond, func() { order = append(order, 1) })
	s.At(20*time.Millisecond, func() { order = append(order, 2) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", s.Now())
	}
}

func TestSchedulerTieBreakBySequence(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*time.Millisecond, func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("tie-broken order = %v, want ascending", order)
		}
	}
}

func TestSchedulerAfterIsRelative(t *testing.T) {
	s := NewScheduler()
	var at Time
	s.At(time.Second, func() {
		s.After(500*time.Millisecond, func() { at = s.Now() })
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 1500*time.Millisecond {
		t.Errorf("nested After fired at %v, want 1.5s", at)
	}
}

func TestSchedulerNegativeAfterClampsToNow(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.After(-time.Second, func() { fired = true })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Error("negative-delay event did not fire")
	}
	if s.Now() != 0 {
		t.Errorf("Now = %v, want 0", s.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(500*time.Millisecond, func() {})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	h := s.At(time.Second, func() { fired = true })
	if !s.Cancel(h) {
		t.Fatal("Cancel returned false for pending event")
	}
	if s.Cancel(h) {
		t.Error("second Cancel returned true")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelFromCallback(t *testing.T) {
	s := NewScheduler()
	fired := false
	var h Handle
	s.At(10*time.Millisecond, func() { s.Cancel(h) })
	h = s.At(20*time.Millisecond, func() { fired = true })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Error("event cancelled mid-run still fired")
	}
}

func TestStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	if err := s.Run(); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Errorf("dispatched %d events after Stop, want 3", count)
	}
	// Resumable: remaining events still pending.
	if s.Len() != 7 {
		t.Errorf("pending = %d, want 7", s.Len())
	}
	if err := s.Run(); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if count != 10 {
		t.Errorf("total dispatched = %d, want 10", count)
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, at := range []Time{time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	if err := s.RunUntil(3 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if s.Now() != 3*time.Millisecond {
		t.Errorf("Now = %v, want 3ms (clock advances to limit)", s.Now())
	}
	if err := s.RunUntil(10 * time.Millisecond); err != nil {
		t.Fatalf("second RunUntil: %v", err)
	}
	if len(fired) != 3 {
		t.Errorf("fired %d events total, want 3", len(fired))
	}
}

func TestRunUntilPastIsError(t *testing.T) {
	s := NewScheduler()
	s.At(time.Second, func() {})
	if err := s.RunUntil(2 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if err := s.RunUntil(time.Second); err == nil {
		t.Error("RunUntil into the past did not error")
	}
}

func TestRunN(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 5; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() { count++ })
	}
	ran, err := s.RunN(3)
	if err != nil || ran != 3 || count != 3 {
		t.Fatalf("RunN(3) = (%d, %v), count = %d", ran, err, count)
	}
	ran, err = s.RunN(10)
	if err != nil || ran != 2 || count != 5 {
		t.Fatalf("RunN(10) = (%d, %v), count = %d", ran, err, count)
	}
}

func TestTicker(t *testing.T) {
	s := NewScheduler()
	var fires []Time
	tk := s.NewTicker(10*time.Millisecond, func() {
		fires = append(fires, s.Now())
	})
	s.At(35*time.Millisecond, func() { tk.Stop() })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
}

func TestTickerStopFromOwnCallback(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tk *Ticker
	tk = s.NewTicker(time.Millisecond, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 2 {
		t.Errorf("ticker fired %d times after self-stop, want 2", count)
	}
}

func TestStreamsDeterministicAndIndependent(t *testing.T) {
	a := NewStreams(42)
	b := NewStreams(42)
	// Same name, same seed -> identical sequence.
	for i := 0; i < 100; i++ {
		if a.Stream("latency").Int63() != b.Stream("latency").Int63() {
			t.Fatal("same-named streams diverged")
		}
	}
	// Creation order must not matter.
	c := NewStreams(42)
	c.Stream("churn") // touch another stream first
	av := NewStreams(42).Stream("latency").Int63()
	cv := c.Stream("latency").Int63()
	if av != cv {
		t.Error("stream sequence depends on creation order")
	}
	// Different names should differ (overwhelmingly likely).
	d := NewStreams(42)
	same := 0
	for i := 0; i < 20; i++ {
		if d.Stream("x").Int63() == d.Stream("y").Int63() {
			same++
		}
	}
	if same == 20 {
		t.Error("streams x and y produced identical sequences")
	}
}

func TestStreamsDifferentSeedsDiffer(t *testing.T) {
	a := NewStreams(1).Stream("s")
	b := NewStreams(2).Stream("s")
	same := 0
	for i := 0; i < 20; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same == 20 {
		t.Error("different seeds produced identical sequences")
	}
}

func TestStreamNames(t *testing.T) {
	s := NewStreams(7)
	s.Stream("b")
	s.Stream("a")
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v, want [a b]", names)
	}
}

func TestDistributionMeans(t *testing.T) {
	s := NewStreams(123)
	r := s.Stream("dist")
	const n = 200000

	var sum float64
	for i := 0; i < n; i++ {
		sum += Exponential(r, 50)
	}
	if got := sum / n; math.Abs(got-50) > 1.5 {
		t.Errorf("Exponential mean = %.2f, want ~50", got)
	}

	// Weibull(lambda, k) has mean lambda * Gamma(1 + 1/k); for k=1 it is
	// exponential with mean lambda.
	sum = 0
	for i := 0; i < n; i++ {
		sum += Weibull(r, 20, 1)
	}
	if got := sum / n; math.Abs(got-20) > 1 {
		t.Errorf("Weibull(20,1) mean = %.2f, want ~20", got)
	}
}

// Property: for any batch of non-negative delays, Run dispatches exactly
// len(delays) events in non-decreasing time order.
func TestPropertyRunDispatchesAllInOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		s := NewScheduler()
		var times []Time
		for _, d := range raw {
			s.After(time.Duration(d)*time.Microsecond, func() {
				times = append(times, s.Now())
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		if len(times) != len(raw) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: derived seeds are stable functions of (root, name).
func TestPropertyDeriveSeedStable(t *testing.T) {
	f := func(root int64, name string) bool {
		return DeriveSeed(root, name) == DeriveSeed(root, name) && DeriveSeed(root, name) != 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%1000)*time.Microsecond, func() {})
		if s.Len() > 10000 {
			_, _ = s.RunN(5000)
		}
	}
	_ = s.Run()
}
