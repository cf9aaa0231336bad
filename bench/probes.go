package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/geo"
	"repro/internal/latency"
	"repro/internal/p2p"
	"repro/internal/topology"
)

// The probes time one layer each, in isolation and on fixed inputs, so
// that a layer whose cost is buried in every workload still has a number
// of its own. Each takes under a second. They run in the traced run only
// and their spans go to the trace as workload "probes".

const (
	kernelEvents  = 2_000_000
	kernelWindow  = 8192 // events pending while the kernel probe runs
	placeCalls    = 200_000
	sampleCalls   = 1_000_000
	probeNodes    = 2000
	connectPairs  = 20_000
	recommendSize = 3000
	recommendK    = 64
	recommendRuns = 500
	allRuns       = 200
)

// perCall runs f under a span and returns its wall time per call in ns.
func perCall(rec *recorder, span string, calls int, f func() error) (float64, error) {
	start := time.Now()
	err := rec.in(span, f)
	return float64(time.Since(start)) / float64(calls), err
}

func runProbes(rec *recorder, seed int64) (map[string]float64, error) {
	m := map[string]float64{}
	rec.at("probes", -1)
	r := rand.New(rand.NewSource(seed))
	placer := geo.DefaultPlacer()

	locs := make([]geo.Location, placeCalls)
	m["geo.place_ns"], _ = perCall(rec, "geo.place", placeCalls, func() error {
		for i := range locs {
			locs[i] = placer.Place(r)
		}
		return nil
	})

	model, err := latency.NewModel(latency.DefaultParams())
	if err != nil {
		return m, err
	}
	link := model.NewLink(r, locs[0].Coord, locs[1].Coord)
	m["latency.sample_ns"], err = perCall(rec, "latency.sample", sampleCalls, func() error {
		var sum time.Duration
		for i := 0; i < sampleCalls; i++ {
			sum += link.SampleOneWay(r)
		}
		if sum <= 0 {
			return errors.New("latency probe sampled no delay")
		}
		return nil
	})
	if err != nil {
		return m, err
	}

	cfg := p2p.DefaultConfig()
	cfg.Seed = seed
	net, err := p2p.NewNetwork(cfg)
	if err != nil {
		return m, err
	}
	defer net.Close()
	net.Reserve(probeNodes)
	ids := make([]p2p.NodeID, probeNodes)
	m["p2p.add_node_ns"], _ = perCall(rec, "p2p.add_node", probeNodes, func() error {
		for i := range ids {
			ids[i] = net.AddNode(locs[i]).ID()
		}
		return nil
	})
	m["p2p.connect_disconnect_ns"], err = perCall(rec, "p2p.connect_disconnect", connectPairs, func() error {
		for i := 0; i < connectPairs; i++ {
			a, b := ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]
			if a == b {
				continue
			}
			if err := net.Connect(a, b); err != nil {
				return err
			}
			net.Disconnect(a, b)
		}
		return nil
	})
	if err != nil {
		return m, fmt.Errorf("connect probe: %w", err)
	}

	// The kernel probe keeps kernelWindow events pending: each step
	// schedules one, cancels every fourth, and runs the earliest once the
	// window is full, which is the mix a flood gives the scheduler.
	sched := net.Scheduler()
	noop := func() {}
	m["sim.kernel_ns_per_event"], err = perCall(rec, "sim.kernel", kernelEvents, func() error {
		for i := 0; i < kernelEvents; i++ {
			h := sched.After(time.Duration(r.Int63n(int64(time.Second))), noop)
			if i%4 == 3 {
				sched.Cancel(h)
			}
			if sched.Len() >= kernelWindow {
				if _, err := sched.RunN(1); err != nil {
					return err
				}
			}
		}
		return sched.Run()
	})
	if err != nil {
		return m, fmt.Errorf("kernel probe: %w", err)
	}

	dns := topology.NewDNSSeed()
	for i := 0; i < recommendSize; i++ {
		dns.Register(p2p.NodeID(i+1), locs[i])
	}
	ns, err := perCall(rec, "topology.recommend", recommendRuns, func() error {
		for i := 0; i < recommendRuns; i++ {
			if got := dns.Recommend(p2p.NodeID(i+1), locs[i], recommendK); len(got) != recommendK {
				return fmt.Errorf("recommend probe: %d of %d candidates", len(got), recommendK)
			}
		}
		return nil
	})
	m["topology.recommend_us"] = ns / 1e3
	if err != nil {
		return m, err
	}

	// All caches its sorted list until the registry changes, so each call
	// follows the registration of a new node, as each churn arrival does.
	dns = topology.NewDNSSeed()
	for i := 0; i < probeNodes; i++ {
		dns.Register(p2p.NodeID(i+1), locs[i])
	}
	ns, err = perCall(rec, "topology.all", allRuns, func() error {
		for i := 0; i < allRuns; i++ {
			dns.Register(p2p.NodeID(probeNodes+i+1), locs[probeNodes+i])
			if got := len(dns.All()); got != probeNodes+i+1 {
				return fmt.Errorf("all probe: %d of %d nodes", got, probeNodes+i+1)
			}
		}
		return nil
	})
	m["topology.all_us"] = ns / 1e3
	return m, err
}
