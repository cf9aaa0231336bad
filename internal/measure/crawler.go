package measure

import (
	"context"
	"errors"
	"slices"
	"time"

	"repro/internal/p2p"
	"repro/internal/sim"
)

// Crawler reproduces the measurement campaign the paper's simulator was
// parameterised with (§V.A, refs [5],[12]): a client that connects to the
// reachable network and observes ping/pong round trips — "connected to
// approximately 5000 network peers and observing a total of 20,000
// ping/pong messages" — plus a census of reachable nodes.
//
// In this repository the crawler runs against the simulated network; its
// output (an RTT distribution) is exactly the kind of data that would be
// fed back into the latency model to calibrate it against a live network.
type Crawler struct {
	net *p2p.Network
	// vantage is the node the crawler measures from.
	vantage p2p.NodeID
}

// NewCrawler creates a crawler measuring from the given vantage node.
func NewCrawler(net *p2p.Network, vantage p2p.NodeID) (*Crawler, error) {
	if _, ok := net.Node(vantage); !ok {
		return nil, errors.New("measure: crawler vantage node unknown")
	}
	return &Crawler{net: net, vantage: vantage}, nil
}

// CrawlResult is the outcome of a crawl.
type CrawlResult struct {
	// Reachable is the node census at crawl start.
	Reachable int
	// RTTs pools every observed ping round trip.
	RTTs Distribution
}

// Crawl probes every reachable node `pingsPer` times and aggregates the
// observed round trips. Each round pings the targets in ascending ID order,
// spread so that none waits behind another on the vantage's uplink: target
// k is a ProbeN of its own, started k ping times (Network.PingTime) in, with
// rounds gap apart or as long as one takes to leave. The network runs until
// the deadline passes. The round trips are pooled as the vantage takes them
// in (Network.OnRTT); folding the vantage's landed pongs (Node.FoldPongs)
// completes the pool.
func (c *Crawler) Crawl(pingsPer int, gap, deadline time.Duration) (CrawlResult, error) {
	if pingsPer < 1 {
		return CrawlResult{}, errors.New("measure: pingsPer must be >= 1")
	}
	node, ok := c.net.Node(c.vantage)
	if !ok {
		return CrawlResult{}, errors.New("measure: vantage churned away")
	}
	ids := c.net.NodeIDs()
	targets := slices.DeleteFunc(slices.Clone(ids), func(id p2p.NodeID) bool { return id == c.vantage })
	var samples []time.Duration
	prev := c.net.OnRTT
	defer func() { c.net.OnRTT = prev }()
	c.net.OnRTT = func(prober *p2p.Node, target p2p.NodeID, rtt time.Duration) {
		if prev != nil {
			prev(prober, target, rtt)
		}
		if prober == node {
			samples = append(samples, rtt)
		}
	}
	start, space := c.net.Now(), c.net.PingTime()
	round := max(gap, time.Duration(len(targets))*space)
	for k := range targets {
		if k > 0 {
			if err := c.net.RunUntil(context.Background(), start+sim.Time(k)*sim.Time(space)); err != nil && !errors.Is(err, sim.ErrStopped) {
				return CrawlResult{}, err
			}
		}
		node.ProbeN(targets[k:k+1], pingsPer, round)
	}
	if err := c.net.RunUntil(context.Background(), start+sim.Time(deadline)); err != nil && !errors.Is(err, sim.ErrStopped) {
		return CrawlResult{}, err
	}
	node.FoldPongs()
	return CrawlResult{Reachable: len(ids), RTTs: NewDistribution(samples)}, nil
}
