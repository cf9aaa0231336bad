// Fixture proving the analyzers scope by import path: this file breaks
// every rule but is checked as-if it were repro/cmd/bcbpt-sim, which is
// in no analyzer's scope (a command reads wall clocks and writes files by
// design), so the suite must stay silent.
package fixture

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

var mu sync.Mutex

func everythingTheRulesBan(m map[int]int) []int {
	_ = time.Now()
	_ = rand.Intn(10)
	_ = fmt.Sprintf("x-%d", 1)
	var keys []int
	for k := range m {
		keys = append(keys, k)
		fmt.Println(k)
	}
	mu.Lock()
	_ = os.WriteFile("x", nil, 0o644)
	mu.Unlock()
	return keys
}

// The v2 rules would all fire on the shapes below were this package in
// scope: a literal seed at an RNG sink (seedflow), an unguarded
// allocating hook site (hookcost), and an unbounded loop that never
// polls ctx (ctxpoll).
type Network struct {
	sched  *sim.Scheduler
	trace  *obs.Shard
	drops  int
	OnDrop func(code uint8)
}

func (n *Network) schedule() {
	n.sched.After(0, func() { deliverOutOfScope(n) })
}

func deliverOutOfScope(n *Network) {
	n.drops++
	_ = rand.NewSource(42)
	n.trace.Record(obs.Event{P1: uint64(len(fmt.Sprintf("d-%d", n.drops)))})
	n.OnDrop(1)
}

func spinOutOfScope(ctx context.Context, work func() bool) {
	for work() {
	}
}
