package core

import (
	"time"

	"repro/internal/p2p"
	"repro/internal/sim"
)

// StartMaintenance begins the cluster-maintenance phase of §IV.B:
// "Periodically, Node N discovers other nodes using the normal Bitcoin
// network nodes discovery mechanism. Then, node N finds out whether the
// discovered nodes are physically close by following the distance
// calculation mechanism."
//
// Every interval one node (rotating deterministically) re-measures a few
// candidates; if it finds a node in another cluster whose RTT is under the
// threshold AND strictly better than the best estimate it holds for its
// current cluster peers, it migrates: leaves its cluster links and joins
// the closer cluster. Returns the ticker so callers can stop maintenance.
func (b *BCBPT) StartMaintenance(interval time.Duration) *sim.Ticker {
	var cursor int
	return b.net.Scheduler().NewTicker(interval, func() {
		ids := b.net.NodeIDs()
		if len(ids) == 0 {
			return
		}
		cursor = (cursor + 1) % len(ids)
		b.reevaluate(ids[cursor])
	})
}

// reevaluate runs one maintenance round for a node.
func (b *BCBPT) reevaluate(id p2p.NodeID) {
	node, ok := b.net.Node(id)
	if !ok {
		return
	}
	cluster, clustered := b.clusterOf[id]
	if !clustered || b.joining[id] {
		return
	}
	cands := b.clusteredPrefix(b.recommend(id, node.Location()))
	var outside []p2p.NodeID
	for _, c := range cands {
		if b.clusterOf[c] != cluster {
			outside = append(outside, c)
		}
	}
	if len(outside) == 0 {
		return
	}
	if len(outside) > 4 {
		outside = outside[:4]
	}
	b.stats.Probes += uint64(len(outside) * b.cfg.ProbeCount)
	node.ProbeN(outside, b.cfg.ProbeCount, b.cfg.ProbeGap)
	deadline := time.Duration(b.cfg.ProbeCount)*b.cfg.ProbeGap + b.cfg.DecisionSlack
	b.net.Scheduler().After(deadline, func() {
		b.maybeMigrate(id, outside)
	})
}

// maybeMigrate moves the node to a measured-closer cluster if one beats
// both the threshold and its current intra-cluster proximity.
func (b *BCBPT) maybeMigrate(id p2p.NodeID, outside []p2p.NodeID) {
	node, ok := b.net.Node(id)
	if !ok {
		return
	}
	cluster, clustered := b.clusterOf[id]
	if !clustered || b.joining[id] {
		return
	}
	current := b.bestIntraRTT(node, cluster)
	var best p2p.NodeID
	bestRTT := time.Duration(1<<62 - 1)
	for _, c := range outside {
		est, ok := node.Estimator(c)
		if !ok || !est.Ready() {
			continue
		}
		if rtt := est.Min(); rtt < bestRTT {
			best, bestRTT = c, rtt
		}
	}
	if best == 0 || bestRTT >= b.cfg.Threshold || (current > 0 && bestRTT >= current) {
		return
	}
	targetCluster, ok := b.clusterOf[best]
	if !ok || targetCluster == cluster {
		return
	}
	// Migrate: switch registry membership first so any refill triggered
	// by the disconnects below wires into the NEW cluster, then drop the
	// old intra-cluster links.
	b.assign(id, targetCluster)
	b.stats.Migrations++
	for _, p := range node.Peers() {
		if b.clusterOf[p] == cluster {
			b.net.Disconnect(id, p)
		}
	}
	b.fillWith(id, []p2p.NodeID{best})
}

// bestIntraRTT returns the smallest RTT estimate the node holds for a
// same-cluster peer (0 if it has none).
func (b *BCBPT) bestIntraRTT(node *p2p.Node, cluster ClusterID) time.Duration {
	var best time.Duration
	node.EachPeer(func(p p2p.NodeID) bool {
		if b.clusterOf[p] != cluster {
			return true
		}
		est, ok := node.Estimator(p)
		if !ok || !est.Ready() {
			return true
		}
		if rtt := est.Min(); best == 0 || rtt < best {
			best = rtt
		}
		return true
	})
	return best
}
