// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate every experiment in this repository runs on:
// an arena-backed scheduler — a 4-ary heap ordered by virtual time whose
// pop picks among children without branching — a virtual clock, and a
// family of named, independently-seeded random streams.
// Determinism is a hard requirement — given the same seed and the same
// sequence of schedule calls, a simulation replays identically. Ties in
// virtual time are broken by schedule order (a monotonically increasing
// sequence number), never by map iteration or goroutine interleaving.
//
// # Allocation discipline
//
// The scheduler is built for allocation-free steady-state dispatch: events
// live in a slab arena of plain structs recycled through a free list, the
// heap orders int32 arena indices rather than pointers, and handles encode
// (slot, generation) so cancellation needs no side map. After warm-up —
// once the arena and heap have grown to the simulation's high-water mark —
// At/After, Cancel and event dispatch perform zero heap allocations. Hot
// paths that would otherwise allocate a closure per event should keep the
// event's state in a slice of their own and use AfterIndexed (below).
//
// Cancellation is O(1) and lazy: Cancel marks the arena slot as a
// tombstone (releasing the callback immediately) and the heap entry is
// discarded when it reaches the top.
//
// # Indexed events
//
// A caller that keeps its own event state by value — p2p's in-flight
// messages are records in one slice — needs the queue to remember only
// which record is due. AfterIndexed schedules exactly that: a heap entry
// carrying an int32 and the tag of a handler registered once with Handle,
// dispatched as handler(idx). It owns no arena slot, so scheduling writes
// and dispatch reads nothing outside the heap array; it returns no Handle
// and cannot be cancelled. Indexed and arena events share one (at, seq)
// order.
//
// # Tickets
//
// An event whose only effect is a fact somebody may read later need not be
// an event: what matters about it is where it stands in the (at, seq) order.
// Reserve takes that place exactly as AfterIndexed would — the sequence
// number advances, so every other event keeps the order it has — and
// returns it as a Ticket, which costs the queue nothing. Passed says whether
// an event in that place would have been dispatched before the one running
// now, ties at the current instant decided by seq as the heap decides them;
// between runs it says whether the run that just ended went past it (a
// RunUntil that reached its limit has passed everything up to the limit, a
// drained Run everything, a Stop only what ran). Redeem turns a ticket that
// has not passed into the indexed event it stands for, in its original
// place. The holder of a ticket therefore chooses, any time before the place
// comes up, between reading the fact off Passed and having the event after
// all — p2p's redundant INVs are tickets, and so are the pongs that only feed
// an RTT estimator (see its package comment). Before orders two tickets as
// the heap would order their events, so a holder of many can keep them in
// landing order and find the passed ones at the front. A queue that drains
// with tickets outstanding still ends where its last event would have run:
// Run leaves the clock at the latest reserved time.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is a point in virtual time, measured as a duration since the start
// of the simulation. It is deliberately a duration rather than a wall-clock
// time: simulations have no epoch.
type Time = time.Duration

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is invalid and is never returned by Schedule. A Handle encodes
// the event's arena slot and a per-slot generation; it stays safely
// rejectable after the event runs or is cancelled (a slot must be recycled
// 2^32 times before a stale handle could alias a live event).
type Handle uint64

// makeHandle packs an arena slot index and its generation. Slot indices
// are offset by one so the zero Handle stays invalid.
func makeHandle(idx int32, gen uint32) Handle {
	return Handle(uint64(gen)<<32 | uint64(uint32(idx)+1))
}

// splitHandle unpacks a Handle; ok is false for the zero Handle.
func splitHandle(h Handle) (idx int32, gen uint32, ok bool) {
	lo := uint32(h)
	if lo == 0 {
		return 0, 0, false
	}
	return int32(lo - 1), uint32(h >> 32), true
}

// ErrStopped is returned by Run variants when the simulation was stopped
// explicitly via Stop rather than by exhausting events or reaching a limit.
var ErrStopped = errors.New("sim: stopped")

// event slot states.
const (
	slotFree      = iota // on the free list, not in the heap
	slotPending          // scheduled, in the heap
	slotCancelled        // tombstone: still in the heap, skipped on pop
)

// event is one arena slot: a scheduled callback. Slots are recycled through
// the free list; gen distinguishes incarnations so stale handles are
// rejected.
type event struct {
	fn  func()
	gen uint32
	st  uint8
}

// heapEntry is one node of the 4-ary heap: the children of entry i are
// entries 4i+1 .. 4i+4, so a pop descends half the levels of a binary heap
// and the four children it inspects per level are contiguous. The
// (at, seq) ordering key lives here and not in the arena slot, so sift
// comparisons stay within the (hot, sequentially laid out) heap array
// instead of chasing arena indices. tag says what idx means: zero, an
// arena slot; otherwise the argument of the indexed-event handler
// registered under that tag (Handle), with no slot behind the entry.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
	tag uint32
}

// key is an entry's (at, seq) as the 128-bit number the heap orders by.
// Schedule times are never negative (schedule rejects at < now, and the
// clock starts at zero), so at compares unsigned as it does signed.
type key struct{ at, seq uint64 }

func (e *heapEntry) key() key { return key{uint64(e.at), e.seq} }

// less reports, as 0 or 1, whether a orders before b: one subtraction
// through a borrow chain, so the answer is a flag to do arithmetic on
// rather than a branch to predict.
func less(a, b key) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.at, b.at, borrow)
	return int(borrow)
}

// pick returns b if takeB is 1 and a if it is 0, without branching.
func pick(a, b key, takeB int) key {
	k := uint64(-takeB)
	return key{a.at ^ (a.at^b.at)&k, a.seq ^ (a.seq^b.seq)&k}
}

// Ticket is a reserved place in the (at, seq) order: what Reserve returns,
// Passed reads and Redeem turns into an event. The zero Ticket is no place
// at all — Reserve never returns it.
type Ticket struct {
	at  Time
	seq uint64
}

// At returns the time of t's place.
func (t Ticket) At() Time { return t.at }

// Before reports whether t's place comes before u's in the (at, seq) order:
// whether the heap would dispatch an event in t's place first.
func (t Ticket) Before(u Ticket) bool {
	return less(key{uint64(t.at), t.seq}, key{uint64(u.at), u.seq}) != 0
}

// Scheduler is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; all scheduling must happen from the goroutine driving
// Run (typically from within event callbacks).
type Scheduler struct {
	now Time
	// cur is the sequence number of the event being dispatched: with now,
	// the running key Passed compares a ticket against. A run that went past
	// everything up to now leaves it above every number handed out (settle).
	cur uint64
	seq uint64
	// horizon is the latest time Reserve has handed out: where a drained Run
	// leaves the clock, as the event the ticket stands for would have.
	horizon Time
	arena   []event
	free    []int32     // recycled arena slots (LIFO)
	heap    []heapEntry // ordered by (at, seq)
	live    int         // pending, non-cancelled events
	stopped bool

	executed uint64 // total events dispatched, for stats and loop guards

	// handlers[tag-1] dispatches the indexed events scheduled under tag.
	handlers []func(idx int32)
}

// NewScheduler returns an empty scheduler with the clock at zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Len returns the number of pending (non-cancelled) events.
func (s *Scheduler) Len() int { return s.live }

// Executed returns the total number of events dispatched so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// siftUp moves the entry at i toward the root (hole insertion: the moved
// entry is held aside while ancestors shift down).
func (s *Scheduler) siftUp(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if less(e.key(), h[parent].key()) == 0 {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// siftDown moves the entry at i toward the leaves (hole insertion). Which
// of four children is least is close to a coin flip per level, so a full
// child group is decided without branching: a two-round tournament whose
// winner's index is computed from less's 0/1 results. Only the partial
// last group (at most one per descent) and the stop test branch, and the
// stop test is predictable — the entry sifted is the heap's last, which
// usually belongs near the bottom.
func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		c := 4*i + 1
		var m int
		if c+4 <= n {
			g := (*[4]heapEntry)(h[c : c+4])
			k0, k1, k2, k3 := g[0].key(), g[1].key(), g[2].key(), g[3].key()
			m01, m23 := less(k1, k0), less(k3, k2)
			m = c + m01 + (2+m23-m01)&-less(pick(k2, k3, m23), pick(k0, k1, m01))
		} else if c < n {
			m = c
			for j := c + 1; j < n; j++ {
				m += (j - m) & -less(h[j].key(), h[m].key())
			}
		} else {
			break
		}
		if less(h[m].key(), e.key()) == 0 {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// popMin removes and returns the heap's minimum entry. The caller must
// ensure the heap is non-empty.
func (s *Scheduler) popMin() heapEntry {
	h := s.heap
	e := h[0]
	last := len(h) - 1
	h[0] = h[last]
	s.heap = h[:last]
	if last > 0 {
		s.siftDown(0)
	}
	return e
}

// freeSlot recycles an arena slot, releasing callback references and
// bumping the generation so outstanding handles go stale.
func (s *Scheduler) freeSlot(idx int32) {
	ev := &s.arena[idx]
	ev.fn = nil
	ev.gen++
	ev.st = slotFree
	s.free = append(s.free, idx)
}

// skim frees cancelled tombstones sitting at the top of the heap so the
// minimum entry, if any, is a live event. An indexed entry is always live
// and is recognised without a look at the arena.
func (s *Scheduler) skim() {
	for len(s.heap) > 0 && s.heap[0].tag == 0 && s.arena[s.heap[0].idx].st == slotCancelled {
		s.freeSlot(s.popMin().idx)
	}
}

// push enters an event into the (at, seq) order, taking the next sequence
// number. The caller has checked that at is not in the past.
func (s *Scheduler) push(at Time, idx int32, tag uint32) {
	s.seq++
	s.enter(heapEntry{at: at, seq: s.seq, idx: idx, tag: tag})
}

// enter queues an entry whose place is already decided.
func (s *Scheduler) enter(e heapEntry) {
	s.heap = append(s.heap, e)
	s.siftUp(len(s.heap) - 1)
	s.live++
}

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past (before Now) is a programming error and panics: allowing it would
// silently reorder causality.
func (s *Scheduler) At(at Time, fn func()) Handle {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if len(s.arena) >= math.MaxInt32-1 {
			panic("sim: event arena exhausted")
		}
		s.arena = append(s.arena, event{})
		idx = int32(len(s.arena) - 1)
	}
	ev := &s.arena[idx]
	ev.fn = fn
	ev.st = slotPending
	s.push(at, idx, 0)
	return makeHandle(idx, ev.gen)
}

// After schedules fn to run d after the current virtual time. Negative
// delays are clamped to zero so jittered delays never panic.
func (s *Scheduler) After(d time.Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Handle registers fn as an indexed-event handler and returns the tag that
// AfterIndexed schedules under it. Registration is set-up work, done once
// per handler for the scheduler's lifetime.
func (s *Scheduler) Handle(fn func(idx int32)) (tag uint32) {
	if fn == nil {
		panic("sim: Handle with nil fn")
	}
	s.handlers = append(s.handlers, fn)
	return uint32(len(s.handlers))
}

// AfterIndexed schedules the handler registered under tag to run with idx,
// d after the current virtual time (negative delays are clamped to zero).
// The event is a heap entry and nothing else — see "Indexed events" in the
// package comment — so it returns no Handle: whoever owns the state behind
// idx decides what a stale one means when it fires.
func (s *Scheduler) AfterIndexed(d time.Duration, tag uint32, idx int32) {
	if tag == 0 || int(tag) > len(s.handlers) {
		panic("sim: AfterIndexed with unregistered tag")
	}
	if d < 0 {
		d = 0
	}
	s.push(s.now+d, idx, tag)
}

// Reserve takes the place in the (at, seq) order that an AfterIndexed(d, …)
// called now would take — the sequence number advances all the same — and
// queues nothing: see "Tickets" in the package comment.
func (s *Scheduler) Reserve(d time.Duration) Ticket {
	if d < 0 {
		d = 0
	}
	s.seq++
	t := Ticket{at: s.now + d, seq: s.seq}
	if t.at > s.horizon {
		s.horizon = t.at
	}
	return t
}

// Passed reports whether an event in t's place would have been dispatched
// before the event running now — or, between runs, by the run that ended.
func (s *Scheduler) Passed(t Ticket) bool {
	return less(key{uint64(t.at), t.seq}, key{uint64(s.now), s.cur}) != 0
}

// Redeem schedules the handler registered under tag to run with idx in t's
// place, ties included: the indexed event t has stood for since Reserve. A
// place that has passed cannot be taken up, and asking is a programming
// error.
func (s *Scheduler) Redeem(t Ticket, tag uint32, idx int32) {
	if tag == 0 || int(tag) > len(s.handlers) {
		panic("sim: Redeem with unregistered tag")
	}
	if t.seq == 0 || s.Passed(t) {
		panic(fmt.Sprintf("sim: Redeem of a ticket for %v that is none or has passed (now %v)", t.at, s.now))
	}
	s.enter(heapEntry{at: t.at, seq: t.seq, idx: idx, tag: tag})
}

// settle records that a run went past every place up to now: whatever was
// reserved for a time not after it has passed, whatever is reserved from
// here on has not.
func (s *Scheduler) settle() { s.cur = s.seq + 1 }

// drained ends a run that emptied the queue: it has passed every reserved
// place too, and the clock ends at the latest of them — unless the last
// event called Stop, which holds the clock there as it holds it anywhere.
func (s *Scheduler) drained() {
	if s.stopped {
		return
	}
	if s.horizon > s.now {
		s.now = s.horizon
	}
	s.settle()
}

// Cancel removes a pending event in O(1). It reports whether the event was
// still pending (false if it already ran, was cancelled, or the handle is
// unknown). The slot becomes a lazy tombstone: its callback (and anything
// the callback captures) is released immediately, and the heap entry is
// discarded when it surfaces.
func (s *Scheduler) Cancel(h Handle) bool {
	idx, gen, ok := splitHandle(h)
	if !ok || int(idx) >= len(s.arena) {
		return false
	}
	ev := &s.arena[idx]
	if ev.gen != gen || ev.st != slotPending {
		return false
	}
	ev.st = slotCancelled
	ev.fn = nil
	s.live--
	return true
}

// Stop halts the simulation: the currently running callback completes, and
// Run returns ErrStopped without dispatching further events.
func (s *Scheduler) Stop() { s.stopped = true }

// step dispatches the earliest pending live event, advancing the clock.
// The caller must ensure at least one live event exists.
func (s *Scheduler) step() {
	s.skim()
	e := s.popMin()
	s.now, s.cur = e.at, e.seq
	s.executed++
	s.live--
	if e.tag != 0 {
		s.handlers[e.tag-1](e.idx)
		return
	}
	fn := s.arena[e.idx].fn
	s.freeSlot(e.idx)
	fn()
}

// drainTombstones frees any cancelled entries left in the heap once no
// live events remain, so an idle scheduler holds no stale slots.
func (s *Scheduler) drainTombstones() {
	if s.live > 0 {
		return
	}
	s.dropAll()
}

// dropAll empties the heap, recycling the arena slots behind its entries;
// an indexed entry owns none.
func (s *Scheduler) dropAll() {
	for _, e := range s.heap {
		if e.tag == 0 {
			s.freeSlot(e.idx)
		}
	}
	s.heap = s.heap[:0]
}

// Run dispatches events until none remain or Stop is called. It returns
// nil when the event queue drains (drained) and ErrStopped when stopped.
func (s *Scheduler) Run() error {
	s.stopped = false
	for s.live > 0 {
		if s.stopped {
			return ErrStopped
		}
		s.step()
	}
	s.drainTombstones()
	s.drained()
	return nil
}

// RunUntil dispatches events with timestamps <= limit, then advances the
// clock to limit. Events scheduled beyond limit remain pending, so the
// simulation can be resumed. Returns ErrStopped if stopped early.
func (s *Scheduler) RunUntil(limit Time) error {
	return s.RunUntilCtx(context.Background(), limit)
}

// ctxCheckInterval is how many events RunUntilCtx (and RunNCtx) dispatch
// between context polls: frequent enough that cancellation of a large
// build is prompt (well under a millisecond of virtual work per poll),
// rare enough that the poll cost vanishes against event dispatch.
const ctxCheckInterval = 1024

// RunUntilCtx is RunUntil with cooperative cancellation: every
// ctxCheckInterval events the context is polled, and a done context stops
// dispatch and returns ctx.Err(). The clock stays wherever dispatch
// stopped, so the caller sees how far the simulation got; pending events
// remain queued.
func (s *Scheduler) RunUntilCtx(ctx context.Context, limit Time) error {
	if limit < s.now {
		return fmt.Errorf("sim: RunUntil limit %v before now %v", limit, s.now)
	}
	s.stopped = false
	for n := 0; s.live > 0; n++ {
		s.skim()
		if s.heap[0].at > limit {
			break
		}
		if s.stopped {
			return ErrStopped
		}
		if n%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s.step()
	}
	s.drainTombstones()
	if s.stopped {
		return ErrStopped
	}
	s.now = limit
	s.settle()
	return nil
}

// Clear drops every pending event without running it. The clock does not
// move. Abandoned simulations call this so queued closures (and whatever
// state they capture) become collectable immediately. The arena and free
// list are retained: a cleared scheduler schedules again without
// re-growing, so abandoned builds do not thrash the allocator. What a
// dropped indexed event pointed at is for whoever scheduled it to reclaim;
// an outstanding ticket no longer holds the clock of a later Run to its time.
func (s *Scheduler) Clear() {
	s.dropAll()
	s.live = 0
	s.horizon = 0
}

// RunN dispatches at most n events. It returns the number dispatched and
// ErrStopped if stopped before n events ran.
func (s *Scheduler) RunN(n int) (int, error) {
	return s.RunNCtx(context.Background(), n)
}

// RunNCtx is RunN with cooperative cancellation on the same cadence as
// RunUntilCtx: every ctxCheckInterval events the context is polled, and a
// done context stops dispatch and returns the count so far with ctx.Err().
// Stepped debugging loops driven from a cancellable context therefore stop
// promptly instead of grinding through their full batch.
func (s *Scheduler) RunNCtx(ctx context.Context, n int) (int, error) {
	s.stopped = false
	ran := 0
	for ran < n && s.live > 0 {
		if s.stopped {
			return ran, ErrStopped
		}
		if ran%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return ran, err
			}
		}
		s.step()
		ran++
	}
	s.drainTombstones()
	if ran < n {
		s.drained()
	}
	return ran, nil
}
