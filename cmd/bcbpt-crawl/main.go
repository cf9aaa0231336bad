// Command bcbpt-crawl measures a live BCBPT network the way the paper's
// crawler measured the real Bitcoin network (refs [5],[12]): it connects
// to every address it is given, sends repeated pings, and reports the
// observed round-trip distribution and reachable-node census.
//
// Usage:
//
//	bcbpt-crawl -targets 127.0.0.1:18555,127.0.0.1:18556 -pings 5
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/measure"
	"repro/internal/netnode"
)

func main() {
	var (
		targets = flag.String("targets", "", "comma-separated addresses to crawl")
		pings   = flag.Int("pings", 5, "pings per target")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "bcbpt-crawl: ", log.LstdFlags)
	if *targets == "" {
		logger.Fatal("no -targets given")
	}

	cfg := netnode.DefaultConfig()
	cfg.PingInterval = 0
	cfg.Threshold = 0 // the crawler measures; it does not cluster
	node, err := netnode.New(cfg)
	if err != nil {
		logger.Fatalf("new node: %v", err)
	}
	if err := node.Start(); err != nil {
		logger.Fatalf("start: %v", err)
	}
	defer node.Stop()

	addrs := strings.Split(*targets, ",")
	sort.Strings(addrs)
	var samples []time.Duration
	reachable := 0
	for _, addr := range addrs {
		rtt, err := node.ProbeAddr(strings.TrimSpace(addr), *pings)
		if err != nil {
			logger.Printf("%s unreachable: %v", addr, err)
			continue
		}
		reachable++
		samples = append(samples, rtt)
		fmt.Printf("%-24s min-rtt %v\n", addr, rtt)
	}
	dist := measure.NewDistribution(samples)
	fmt.Printf("\nreachable: %d/%d\n", reachable, len(addrs))
	if dist.N() > 0 {
		fmt.Printf("rtt distribution: %s\n", dist)
	}
}
