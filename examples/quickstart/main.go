// Quickstart: build a 200-node world, cluster it with BCBPT (dt = 25ms),
// inject one transaction from the measuring node and print each
// connection's Δt — the paper's core measurement (eq. 5) in ~40 lines.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
)

func main() {
	cfg := core.DefaultConfig() // dt = 25ms, the paper's Fig. 3 setting
	built, err := experiment.Build(context.Background(), experiment.Spec{
		Nodes:    200,
		Seed:     7,
		Protocol: experiment.ProtoBCBPT,
		BCBPT:    cfg,
	})
	if err != nil {
		log.Fatalf("build: %v", err)
	}

	clusters := built.BCBPT.Clusters()
	fmt.Printf("BCBPT clustered %d nodes into %d clusters (dt=%v)\n",
		built.Net.NumNodes(), len(clusters), cfg.Threshold)

	res, err := built.CampaignContext(context.Background(), 25, time.Minute)
	if err != nil {
		log.Fatalf("campaign: %v", err)
	}
	fmt.Printf("Δt(m,n) over %d samples: %s\n", res.Dist.N(), res.Dist)
	fmt.Println("\nCDF of transaction arrival at the measuring node's connections:")
	for _, p := range res.Dist.CDF(6) {
		fmt.Printf("  %3.0f%%  %v\n", p.Fraction*100, p.Value.Round(time.Millisecond))
	}
}
