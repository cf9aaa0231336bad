// Figure 3: compare the transaction propagation delay distribution of the
// simulated Bitcoin protocol, LBC, and BCBPT (dt = 25ms) — the paper's
// headline result. Expect BCBPT's CDF left of LBC's, left of Bitcoin's.
//
// This example runs a reduced-scale version (400 nodes, 60 runs) that
// finishes in well under a minute; use cmd/bcbpt-sim for full scale.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/experiment"
)

func main() {
	fig, err := experiment.Figure3Ctx(context.Background(), experiment.Options{
		Nodes:    400,
		Runs:     60,
		Seed:     1,
		Deadline: 2 * time.Minute,
	})
	if err != nil {
		log.Fatalf("figure3: %v", err)
	}
	fmt.Println(fig)

	// The reproduction criterion: median ordering.
	var bitcoin, lbc, bcbpt time.Duration
	for _, s := range fig.Series {
		switch s.Name {
		case "bitcoin":
			bitcoin = s.Dist.Median()
		case "lbc":
			lbc = s.Dist.Median()
		default:
			bcbpt = s.Dist.Median()
		}
	}
	fmt.Printf("median Δt: bcbpt=%v < lbc=%v < bitcoin=%v : %v\n",
		bcbpt.Round(time.Millisecond), lbc.Round(time.Millisecond),
		bitcoin.Round(time.Millisecond), bcbpt < lbc && lbc < bitcoin)
}
