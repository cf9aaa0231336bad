// Fixture for the hotalloc analyzer: checked as-if it were the flood
// hot-path package (repro/internal/p2p).
package fixture

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

func flagged(s *sim.Scheduler, id int) {
	s.After(time.Millisecond, func() {}) // want `closure-form Scheduler\.After`
	s.At(0, func() {})                   // want `closure-form Scheduler\.At allocates`
	_ = fmt.Sprintf("node-%d", id)       // want `fmt\.Sprintf allocates`
	_ = fmt.Sprint(id)                   // want `fmt\.Sprint allocates`
}

func clean(s *sim.Scheduler, tag uint32, err error) error {
	// An indexed event is a heap entry and nothing else.
	s.AfterIndexed(time.Millisecond, tag, 0)
	// Error construction is a failure path, deliberately exempt.
	return fmt.Errorf("wrap: %w", err)
}
