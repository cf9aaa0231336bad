// Fixture for the maporder analyzer: checked as-if it were a
// deterministic package (repro/internal/sim).
package fixture

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/sim"
)

func schedInRange(s *sim.Scheduler, m map[int]int) {
	for k := range m {
		_ = k
		s.After(0, func() {}) // want `event-scheduling call \(\*sim\.Scheduler\)\.After`
	}
}

// indexedInRange: an indexed event takes its place in the (at, seq) order
// exactly as the closure forms do.
func indexedInRange(s *sim.Scheduler, tag uint32, m map[int32]int) {
	for k := range m {
		s.AfterIndexed(0, tag, k) // want `event-scheduling call \(\*sim\.Scheduler\)\.AfterIndexed`
	}
}

// ticketsInRange: a reserved place is a place in that order too, and
// redeeming one queues an event.
func ticketsInRange(s *sim.Scheduler, tag uint32, m map[int32]sim.Ticket) {
	for k, t := range m {
		m[k] = s.Reserve(0) // want `event-scheduling call \(\*sim\.Scheduler\)\.Reserve`
		s.Redeem(t, tag, k) // want `event-scheduling call \(\*sim\.Scheduler\)\.Redeem`
	}
}

func printInRange(m map[int]int) {
	for k := range m {
		fmt.Println(k) // want `output write fmt\.Println`
	}
}

func sinkInRange(m map[int]int, buf *bytes.Buffer) {
	for k := range m {
		buf.WriteString(string(rune(k))) // want `ordered sink write`
	}
}

func encodeInRange(m map[int]int, enc *json.Encoder) {
	for k := range m {
		_ = enc.Encode(k) // want `stream encode`
	}
}

func appendUnsorted(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k) // want `append to keys inside range over map`
	}
	return keys
}

// appendSorted is the sanctioned collect-then-sort idiom: the append is
// fine because the slice is sorted after the loop.
func appendSorted(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// appendLoopLocal builds a slice that never outlives one iteration, so
// it cannot carry map order anywhere.
func appendLoopLocal(m map[int][]int) {
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		_ = local
	}
}

// rangeSlice is order-sensitive work inside a loop — but over a slice,
// whose order is deterministic.
func rangeSlice(s *sim.Scheduler, xs []int) {
	for range xs {
		s.After(0, func() {})
	}
}

// aggregate is pure order-independent aggregation.
func aggregate(m map[int]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}
