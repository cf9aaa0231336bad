package obs

import "sort"

// Shard is a single-writer ring buffer of trace events. Exactly one
// goroutine may call Record on a given shard at a time; the repo's
// convention is shard 0 for the goroutine driving a simulation (dispatch
// and measurement), and one shard per concurrent writer elsewhere.
//
// Record never allocates and never blocks: when the ring is full the
// oldest event is overwritten and counted as dropped. Capacity is
// rounded up to a power of two so the ring index is a mask, not a
// division.
type Shard struct {
	id   int
	buf  []Event
	mask uint64
	// n counts every Record call; buf[(n-1)&mask] is the newest event
	// and max(0, n-len(buf)) events have been overwritten.
	n uint64
}

// Record appends ev to the ring, overwriting the oldest event when
// full. Single-writer; callers nil-check the shard pointer so the
// disabled path is one branch.
func (s *Shard) Record(ev Event) {
	s.buf[s.n&s.mask] = ev
	s.n++
}

// ID returns the shard's index within its Tracer.
func (s *Shard) ID() int { return s.id }

// Len returns the number of events currently retained.
func (s *Shard) Len() int {
	if s.n < uint64(len(s.buf)) {
		return int(s.n)
	}
	return len(s.buf)
}

// Dropped returns how many events were overwritten because the ring
// was full.
func (s *Shard) Dropped() uint64 {
	if s.n <= uint64(len(s.buf)) {
		return 0
	}
	return s.n - uint64(len(s.buf))
}

// events appends the retained events in record order.
func (s *Shard) events(dst []Event) []Event {
	if s.n <= uint64(len(s.buf)) {
		return append(dst, s.buf[:s.n]...)
	}
	// The ring wrapped: oldest retained event is at n&mask.
	start := s.n & s.mask
	dst = append(dst, s.buf[start:]...)
	return append(dst, s.buf[:start]...)
}

// DefaultShardEvents is the per-shard ring capacity used when the
// caller does not choose one: 64 Ki 40-byte events, 2.5 MiB per shard.
const DefaultShardEvents = 1 << 16

// Tracer owns a set of shards and merges them into one canonical event
// stream for export. Create it disabled-by-default infrastructure-side:
// the hooks it feeds are nil until a shard is handed out, so an absent
// tracer costs nothing.
type Tracer struct {
	shards []*Shard
	cap    int
}

// NewTracer returns a tracer with the given per-shard ring capacity
// (rounded up to a power of two; DefaultShardEvents if <= 0) and an
// initial shard count. Shards grow on demand via Shard.
func NewTracer(eventsPerShard, shards int) *Tracer {
	if eventsPerShard <= 0 {
		eventsPerShard = DefaultShardEvents
	}
	capPow2 := 1
	for capPow2 < eventsPerShard {
		capPow2 <<= 1
	}
	t := &Tracer{cap: capPow2}
	t.Shard(shards - 1)
	return t
}

// Shard returns shard i, growing the shard set if needed. Growing is a
// setup-time operation: callers attach shards before a run, never
// during one.
func (t *Tracer) Shard(i int) *Shard {
	for len(t.shards) <= i {
		t.shards = append(t.shards, &Shard{
			id:   len(t.shards),
			buf:  make([]Event, t.cap),
			mask: uint64(t.cap) - 1,
		})
	}
	return t.shards[i]
}

// Dropped sums overwritten events across shards.
func (t *Tracer) Dropped() uint64 {
	var d uint64
	for _, s := range t.shards {
		d += s.Dropped()
	}
	return d
}

// Len sums retained events across shards.
func (t *Tracer) Len() int {
	var n int
	for _, s := range t.shards {
		n += s.Len()
	}
	return n
}

// Events merges every shard's retained events into canonical order:
// ascending sim time, then shard ID, then record order
// within the shard. The order is deterministic for a deterministic
// simulation, so exported traces diff cleanly across runs.
func (t *Tracer) Events() []Event {
	type tagged struct {
		shard int
		pos   int
	}
	var out []Event
	var tags []tagged
	for _, s := range t.shards {
		base := len(out)
		out = s.events(out)
		for p := base; p < len(out); p++ {
			tags = append(tags, tagged{shard: s.id, pos: p - base})
		}
	}
	idx := make([]int, len(out))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ea, eb := out[idx[a]], out[idx[b]]
		if ea.At != eb.At {
			return ea.At < eb.At
		}
		ta, tb := tags[idx[a]], tags[idx[b]]
		if ta.shard != tb.shard {
			return ta.shard < tb.shard
		}
		return ta.pos < tb.pos
	})
	sorted := make([]Event, len(out))
	for i, j := range idx {
		sorted[i] = out[j]
	}
	return sorted
}
