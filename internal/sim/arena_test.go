package sim

import (
	"context"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
	"time"
)

// --- differential testing against the pre-arena reference kernel ---

// trace records one dispatched event: which schedule call fired, when, and
// which reserved places had passed by then (the sum of their tags, each
// plus one) — what the event would have read off Passed.
type trace struct {
	tag    int
	at     Time
	passed int
}

// schedOp is one randomised operation applied identically to both kernels.
type schedOp struct {
	kind   int           // opSchedule, opIndexed, opReserve, opCancel, opRedeem, opRunN or opRunUntil
	delay  time.Duration // opSchedule, opIndexed, opReserve: delay from now; opRunUntil: horizon from now
	target int           // opCancel, opRedeem: index of the schedule op to cancel or redeem
	batch  int           // opRunN: events to dispatch
}

// opIndexed schedules an indexed event (AfterIndexed), which the reference
// kernel models as a closure nobody holds the handle of: a cancel aimed at
// it finds the zero Handle on both sides. opReserve takes a place and no
// event (Reserve), which the reference kernel models as the event scheduled
// eagerly: it has fired there exactly when the place has passed here.
// opRedeem has the event after all if the place has not passed (Redeem), and
// is nothing to the reference, which always had it.
const (
	opSchedule = iota
	opIndexed
	opReserve
	opCancel
	opRedeem
	opRunN
	opRunUntil
)

func randomOps(r *rand.Rand, n int) []schedOp {
	ops := make([]schedOp, n)
	scheduled := 0
	for i := range ops {
		switch k := r.Intn(20); {
		case k < 12 || scheduled == 0: // bias toward scheduling
			ops[i] = schedOp{kind: opSchedule + r.Intn(3), delay: time.Duration(r.Intn(50)) * time.Microsecond}
			scheduled++
		case k < 18:
			ops[i] = schedOp{kind: opCancel + r.Intn(2), target: r.Intn(scheduled)}
		case k < 19:
			ops[i] = schedOp{kind: opRunN, batch: 1 + r.Intn(5)}
		default:
			ops[i] = schedOp{kind: opRunUntil, delay: time.Duration(r.Intn(12)) * time.Microsecond}
		}
	}
	return ops
}

// deepOps is a script that holds well over 20 000 events pending: bursts
// of one to eight events at the same instant, every third of them indexed,
// one cancellation per four schedules aimed half the time at the most
// recent burst and half the time anywhere (so tombstones sit at every
// depth, the top included, beside entries that have no arena slot), and
// once the queue is full, short RunN and RunUntil batches between further
// bursts, so pops descend eight or nine levels of the 4-ary heap with its
// size passing through every residue mod 4.
func deepOps(r *rand.Rand) []schedOp {
	var ops []schedOp
	scheduled := 0
	burst := func() {
		d := time.Duration(r.Intn(4000)) * time.Microsecond
		for k := 1 + r.Intn(8); k > 0; k-- {
			kind := opSchedule
			if scheduled%3 == 2 {
				kind = opIndexed
			}
			ops = append(ops, schedOp{kind: kind, delay: d})
			scheduled++
			if scheduled%4 == 0 {
				target := r.Intn(scheduled)
				if r.Intn(2) == 0 {
					target = scheduled - 1 - r.Intn(min(8, scheduled))
				}
				ops = append(ops, schedOp{kind: opCancel, target: target})
			}
		}
	}
	for scheduled < 32000 {
		burst()
	}
	for i := 0; i < 6000; i++ {
		switch r.Intn(3) {
		case 0:
			ops = append(ops, schedOp{kind: opRunN, batch: 1 + r.Intn(7)})
		case 1:
			ops = append(ops, schedOp{kind: opRunUntil, delay: time.Duration(r.Intn(3)) * time.Microsecond})
		default:
			burst()
		}
	}
	return ops
}

// kernel is what the differential replays drive: both schedulers have it.
type kernel interface {
	After(d time.Duration, fn func()) Handle
	Cancel(h Handle) bool
	RunN(n int) (int, error)
	RunUntil(limit Time) error
	Run() error
	Now() Time
	Len() int
}

// side is one kernel under replay with its rendering of what only the arena
// kernel has. t is the index of the schedule op throughout.
type side struct {
	kernel
	indexed func(d time.Duration, t int, fire func(t int)) // schedule fire(t) as an indexed event
	reserve func(d time.Duration, t int)                   // take the place an indexed event would
	redeem  func(t int)                                    // have that event after all, unless the place has passed
	passed  func(t int) bool                               // has the place passed
	held    func() int                                     // places not passed that no queued event stands in
}

// replay runs ops against s and drains it, returning the dispatch trace,
// the final (now, len) state and the most events ever pending, a reserved
// place that has not passed counting as the event it stands for. RunN counts
// events, which a place is not, so a script redeems what it holds before it
// counts.
func replay(s side, ops []schedOp) (out []trace, now Time, pending, peak int) {
	var handles []Handle
	var places []int // the reserve ops
	passed := func() (sum int) {
		for _, t := range places {
			if s.passed(t) {
				sum += t + 1
			}
		}
		return sum
	}
	fire := func(t int) { out = append(out, trace{tag: t, at: s.Now(), passed: passed()}) }
	for _, op := range ops {
		switch op.kind {
		case opSchedule:
			t := len(handles)
			handles = append(handles, s.After(op.delay, func() { fire(t) }))
		case opIndexed:
			s.indexed(op.delay, len(handles), fire)
			handles = append(handles, 0)
		case opReserve:
			s.reserve(op.delay, len(handles))
			places = append(places, len(handles))
			handles = append(handles, 0)
		case opCancel:
			s.Cancel(handles[op.target])
		case opRedeem:
			s.redeem(op.target)
		case opRunN:
			for _, t := range places {
				s.redeem(t)
			}
			_, _ = s.RunN(op.batch)
		case opRunUntil:
			_ = s.RunUntil(s.Now() + op.delay)
		}
		peak = max(peak, s.Len()+s.held())
	}
	_ = s.Run()
	return out, s.Now(), s.Len() + s.held(), peak
}

// requireSameReplay replays ops on both kernels and requires bit-identical
// dispatch order, clocks, queue lengths and passed places. It returns the
// arena kernel's peak pending count.
func requireSameReplay(t *testing.T, ops []schedOp) int {
	t.Helper()
	arena := NewScheduler()
	var arenaFire func(int)
	tag := arena.Handle(func(idx int32) { arenaFire(int(idx)) })
	// tickets are the places not redeemed; a redeemed place has passed once
	// its event has fired, and until then the event stands in Len for it.
	tickets, fired := map[int]Ticket{}, map[int]bool{}
	redeemTag := arena.Handle(func(idx int32) { fired[int(idx)] = true })
	gotTr, gotNow, gotLen, gotPeak := replay(side{
		kernel: arena,
		indexed: func(d time.Duration, t int, fire func(int)) {
			arenaFire = fire
			arena.AfterIndexed(d, tag, int32(t))
		},
		reserve: func(d time.Duration, t int) { tickets[t] = arena.Reserve(d) },
		redeem: func(t int) {
			if tk, ok := tickets[t]; ok && !arena.Passed(tk) {
				arena.Redeem(tk, redeemTag, int32(t))
				delete(tickets, t)
			}
		},
		passed: func(t int) bool {
			if tk, ok := tickets[t]; ok {
				return arena.Passed(tk)
			}
			return fired[t]
		},
		held: func() (n int) {
			for _, tk := range tickets {
				if !arena.Passed(tk) {
					n++
				}
			}
			return n
		},
	}, ops)
	ref := NewReferenceScheduler()
	refFired := map[int]bool{}
	wantTr, wantNow, wantLen, wantPeak := replay(side{
		kernel:  ref,
		indexed: func(d time.Duration, t int, fire func(int)) { ref.After(d, func() { fire(t) }) },
		reserve: func(d time.Duration, t int) { ref.After(d, func() { refFired[t] = true }) },
		redeem:  func(int) {},
		passed:  func(t int) bool { return refFired[t] },
		held:    func() int { return 0 },
	}, ops)
	if gotNow != wantNow || gotLen != wantLen || gotPeak != wantPeak {
		t.Fatalf("state (now=%v len=%d peak=%d), reference (now=%v len=%d peak=%d)",
			gotNow, gotLen, gotPeak, wantNow, wantLen, wantPeak)
	}
	if len(gotTr) != len(wantTr) {
		t.Fatalf("dispatched %d events, reference %d", len(gotTr), len(wantTr))
	}
	for i := range gotTr {
		if gotTr[i] != wantTr[i] {
			t.Fatalf("dispatch %d = %+v, reference %+v", i, gotTr[i], wantTr[i])
		}
	}
	return gotPeak
}

// TestArenaMatchesReference replays thousands of randomised cancel-heavy
// schedules against both kernels, closure and indexed events interleaved.
// This is the determinism contract of the arena kernel: (at, seq) total
// order across both forms, cancellation visibility, and RunN and RunUntil
// batching must be indistinguishable from the reference.
func TestArenaMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for round := 0; round < 200; round++ {
		requireSameReplay(t, randomOps(r, 50+r.Intn(200)))
	}
}

// TestDeepHeapMatchesReference is the same contract where the 4-ary heap
// is deep: the random scripts above never hold more than a few hundred
// events, three levels, and a flood holds tens of thousands.
func TestDeepHeapMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		if peak := requireSameReplay(t, deepOps(rand.New(rand.NewSource(seed)))); peak < 20000 {
			t.Fatalf("seed %d: peak pending %d, want >= 20000", seed, peak)
		}
	}
}

// FuzzArenaMatchesReference is the same differential check driven by the
// fuzzer: the input bytes seed the op stream.
func FuzzArenaMatchesReference(f *testing.F) {
	f.Add(int64(1), 100)
	f.Add(int64(42), 300)
	f.Fuzz(func(t *testing.T, seed int64, n int) {
		if n < 1 || n > 2000 {
			t.Skip()
		}
		requireSameReplay(t, randomOps(rand.New(rand.NewSource(seed)), n))
	})
}

// --- arena-specific behaviour ---

func TestHandleGoesStaleAfterDispatchAndReuse(t *testing.T) {
	s := NewScheduler()
	h1 := s.After(time.Millisecond, func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Cancel(h1) {
		t.Error("Cancel of already-run event returned true")
	}
	// The freed slot is recycled; the stale handle must not cancel the
	// new incarnation.
	h2 := s.After(time.Millisecond, func() {})
	if s.Cancel(h1) {
		t.Error("stale handle cancelled a recycled slot")
	}
	if !s.Cancel(h2) {
		t.Error("fresh handle did not cancel")
	}
}

func TestCancelIsLazyButLenIsLive(t *testing.T) {
	s := NewScheduler()
	var handles []Handle
	for i := 0; i < 100; i++ {
		handles = append(handles, s.At(time.Duration(i)*time.Millisecond, func() {}))
	}
	for i := 0; i < 100; i += 2 {
		if !s.Cancel(handles[i]) {
			t.Fatal("cancel failed")
		}
	}
	if s.Len() != 50 {
		t.Fatalf("Len = %d after cancelling half, want 50", s.Len())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Executed() != 50 {
		t.Fatalf("Executed = %d, want 50", s.Executed())
	}
}

func TestClearReusesArena(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 1000; i++ {
		s.After(time.Duration(i)*time.Microsecond, func() {})
	}
	s.Clear()
	if s.Len() != 0 {
		t.Fatalf("Len = %d after Clear", s.Len())
	}
	// Refilling to the same high-water mark must not grow the arena.
	before := cap(s.arena)
	fn := func() {}
	for i := 0; i < 1000; i++ {
		s.After(time.Duration(i)*time.Microsecond, fn)
	}
	if cap(s.arena) != before {
		t.Errorf("arena grew across Clear: cap %d -> %d", before, cap(s.arena))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Executed() != 1000 {
		t.Fatalf("Executed = %d, want 1000 (cleared events must not run)", s.Executed())
	}
}

func TestRunNCtxStopsOnCancellation(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 5000; i++ {
		s.After(time.Duration(i)*time.Microsecond, fn)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran, err := s.RunNCtx(ctx, 5000)
	if err == nil {
		t.Fatal("RunNCtx ignored a cancelled context")
	}
	if ran != 0 {
		t.Errorf("ran %d events under a pre-cancelled context, want 0", ran)
	}
	// A live context dispatches normally.
	ran, err = s.RunNCtx(context.Background(), 5000)
	if err != nil || ran != 5000 {
		t.Fatalf("RunNCtx = (%d, %v), want (5000, nil)", ran, err)
	}
}

// TestIndexedEvents names what an indexed event is beyond its place in the
// order: it counts as pending and as executed, survives a RunUntil short of
// it, is dropped by Clear without an arena slot to recycle, clamps a
// negative delay like After, and needs a registered tag.
func TestIndexedEvents(t *testing.T) {
	s := NewScheduler()
	var got []int32
	tag := s.Handle(func(idx int32) { got = append(got, idx) })
	other := s.Handle(func(idx int32) { got = append(got, -idx) })
	s.AfterIndexed(2*time.Millisecond, tag, 7)
	s.AfterIndexed(time.Millisecond, other, 3)
	s.AfterIndexed(-time.Second, tag, 1)
	if s.Len() != 3 || len(s.arena) != 0 {
		t.Fatalf("Len = %d with %d arena slots, want 3 and 0", s.Len(), len(s.arena))
	}
	if err := s.RunUntil(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if want := []int32{1, -3}; !slices.Equal(got, want) || s.Len() != 1 || s.Executed() != 2 {
		t.Fatalf("after RunUntil: dispatched %v (want %v), Len %d, Executed %d", got, want, s.Len(), s.Executed())
	}
	h := s.After(time.Millisecond, func() { t.Error("cleared event ran") })
	s.Clear()
	if s.Len() != 0 || len(s.free) != 1 || s.Cancel(h) {
		t.Fatalf("after Clear: Len %d, %d free slots, want 0 and the closure's 1", s.Len(), len(s.free))
	}
	if err := s.Run(); err != nil || len(got) != 2 {
		t.Fatalf("Run after Clear: err %v, dispatched %v", err, got)
	}
	defer func() {
		if recover() == nil {
			t.Error("AfterIndexed accepted a tag nobody registered")
		}
	}()
	s.AfterIndexed(0, other+1, 0)
}

// TestSteadyStateZeroAllocs is the arena's core guarantee: after
// warm-up, schedule + cancel + dispatch cycles perform no heap
// allocations, and neither does taking a place, asking after it or having
// its event after all, whether Run or RunUntil dispatches. A hundred
// cycles count as one run, so that growth amortised over cycles shows.
func TestSteadyStateZeroAllocs(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	tag := s.Handle(func(int32) {})
	// Warm up arena, heap, and free list to the high-water mark.
	for i := 0; i < 4096; i++ {
		s.After(time.Duration(i%64)*time.Microsecond, fn)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var tickets [512]Ticket
	cycle := func() {
		for i := 0; i < 512; i++ {
			s.After(time.Duration(i%64)*time.Microsecond, fn)
			s.AfterIndexed(time.Duration(i%64)*time.Microsecond, tag, int32(i))
			tickets[i] = s.Reserve(time.Duration(i%64) * time.Microsecond)
			if i%2 == 0 && !s.Passed(tickets[i]) {
				s.Redeem(tickets[i], tag, int32(i))
			}
		}
		for i := 0; i < 128; i++ {
			h := s.After(time.Duration(i%64)*time.Microsecond, fn)
			s.Cancel(h)
		}
		// The first half by RunUntil, whose loop (RunUntilCtx) a
		// measurement's deadline runs, the rest by Run.
		if err := s.RunUntil(s.Now() + 32*time.Microsecond); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection mid-count allocates in the runtime
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100; i++ {
			cycle()
		}
	})
	if allocs != 0 {
		t.Errorf("100 steady-state schedule/cancel/dispatch cycles allocated %v times, want 0", allocs)
	}
}
