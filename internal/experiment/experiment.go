// Package experiment composes the substrates into the paper's evaluation
// (§V): network construction under each protocol, the measuring-node
// campaign, and one generator per figure/claim:
//
//   - Figure3Ctx: Δt distributions for simulated Bitcoin vs LBC vs BCBPT
//     (dt = 25ms);
//   - Figure4Ctx: Δt distributions for BCBPT at dt ∈ {30, 50, 100}ms;
//   - VarianceVsConnectionsCtx: the §V.C claim that Bitcoin's delay spread
//     grows with the measuring node's connection count while BCBPT's
//     stays flat;
//   - OverheadCtx: the §IV.A ping-measurement overhead deferred by the
//     paper to future work.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/chain"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ProtocolKind names a neighbour-selection protocol.
type ProtocolKind string

// Supported protocols.
const (
	ProtoBitcoin ProtocolKind = "bitcoin" // vanilla random selection
	ProtoLBC     ProtocolKind = "lbc"     // geographic clustering
	ProtoBCBPT   ProtocolKind = "bcbpt"   // ping-time clustering
)

// Spec describes one simulated network build.
//
// Specs serialize with encoding/json, the form CampaignSpec.Fingerprint
// hashes. Every field is plain data.
type Spec struct {
	// Nodes is the network size. The paper matches the measured real-
	// network size (~5000 reachable peers); tests use smaller worlds.
	Nodes int `json:"nodes"`
	// Seed roots all randomness for the build.
	Seed int64 `json:"seed"`
	// Protocol selects neighbour selection.
	Protocol ProtocolKind `json:"protocol"`
	// BCBPT configures the BCBPT protocol (ignored otherwise). The zero
	// value means core.DefaultConfig; any non-zero configuration is used
	// exactly as given (a partially filled config fails validation loudly
	// rather than being silently replaced).
	BCBPT core.Config `json:"bcbpt"`
	// Churn, when non-nil, enables join/leave dynamics during the
	// measurement phase.
	Churn *churn.Model `json:"churn,omitempty"`
	// MeasuringConnections, if > 0, forces the measuring node to have
	// exactly this many connections (used by the variance sweep). The
	// p2p MaxPeers cap is raised accordingly.
	MeasuringConnections int `json:"measuring_connections,omitempty"`
	// LossProb injects message loss (see p2p.Config.LossProb).
	LossProb float64 `json:"loss_prob,omitempty"`
}

// Built is a constructed, bootstrapped network ready for measurement.
type Built struct {
	Net      *p2p.Network
	Protocol topology.Protocol
	Seed     *topology.DNSSeed
	// BCBPT is non-nil when Spec.Protocol was ProtoBCBPT.
	BCBPT *core.BCBPT
	// Measurer is the measuring node m of Fig. 2.
	Measurer *measure.MeasuringNode
	// ChurnDriver is non-nil when churn was enabled.
	ChurnDriver *churn.Driver
}

// bcbptConfig is the BCBPT configuration a build of the spec runs: the
// spec's own, or core.DefaultConfig for the zero value.
func (s Spec) bcbptConfig() core.Config {
	if s.BCBPT == (core.Config{}) {
		return core.DefaultConfig()
	}
	return s.BCBPT
}

// validate runs every cheap spec check up front, before Build spends any
// work — and crucially before its first ctx checkpoint. The campaign
// engine's fail-fast path promises a scheduling-independent error for a
// bad spec: that only holds if a doomed unit reaches its real validation
// error rather than aborting at a ctx poll once a sibling's failure has
// cancelled the sweep, so nothing ctx-dependent may precede these checks.
func (s Spec) validate() error {
	if s.Nodes < 3 {
		return errors.New("experiment: need at least 3 nodes")
	}
	switch s.Protocol {
	case ProtoBitcoin, "", ProtoLBC:
	case ProtoBCBPT:
		if cfg := s.BCBPT; cfg != (core.Config{}) {
			if err := cfg.Validate(); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("experiment: unknown protocol %q", s.Protocol)
	}
	return nil
}

// placementShardSize is how many nodes one placement shard covers. Each
// shard draws from its own random stream derived via sim.DeriveSeed from
// (spec seed, shard index). The shards are walked in order on one
// goroutine; the streams stay per shard because every network, golden CSV
// and digest was generated from them, and one stream would move every
// node.
const placementShardSize = 512

// shardedPlacements samples the bootstrap population's locations, shard
// by shard. ctx is polled between shards.
func shardedPlacements(ctx context.Context, placer *geo.Placer, seed int64, n int) ([]geo.Location, error) {
	locs := make([]geo.Location, n)
	for s := 0; s*placementShardSize < n; s++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiment: placement: %w", err)
		}
		r := rand.New(rand.NewSource(sim.DeriveSeed(seed, fmt.Sprintf("placement/shard/%d", s))))
		for i := s * placementShardSize; i < min((s+1)*placementShardSize, n); i++ {
			locs[i] = placer.Place(r)
		}
	}
	return locs, nil
}

// Build constructs and bootstraps a network per spec. On return the
// overlay is wired and virtual time has advanced past bootstrap.
//
// The build runs on the calling goroutine. ctx cancels it cooperatively
// at every expensive phase — placement, the baselines' wiring, and the
// virtual-time BCBPT bootstrap run, where every join ranks its DNS
// candidates — returning promptly with an error wrapping ctx.Err(). On
// any error the partially built network is closed before returning, so a
// failed build leaves no scheduled work and nothing pinning node state
// alive.
func Build(ctx context.Context, spec Spec) (*Built, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	pcfg := p2p.DefaultConfig()
	pcfg.Seed = spec.Seed
	pcfg.LossProb = spec.LossProb
	if spec.MeasuringConnections > pcfg.MaxPeers {
		pcfg.MaxPeers = spec.MeasuringConnections + 8
	}
	net, err := p2p.NewNetwork(pcfg)
	if err != nil {
		return nil, err
	}
	net.Reserve(spec.Nodes)
	b := &Built{Net: net, Seed: topology.NewDNSSeed()}
	b.Seed.Reserve(spec.Nodes)
	if err := b.build(ctx, spec); err != nil {
		b.Close()
		return nil, err
	}
	return b, nil
}

// build runs the construction phases against an already-allocated
// network. Split out of Build so every error path funnels through the
// single Close in Build — each early return here used to abandon a
// half-bootstrapped network with its event queue still loaded.
func (b *Built) build(ctx context.Context, spec Spec) error {
	net := b.Net
	seed := b.Seed
	placer := geo.DefaultPlacer()
	locs, err := shardedPlacements(ctx, placer, spec.Seed, spec.Nodes)
	if err != nil {
		return err
	}
	ids := make([]p2p.NodeID, spec.Nodes)
	for i := range ids {
		ids[i] = net.AddNode(locs[i]).ID()
	}

	switch spec.Protocol {
	case ProtoBitcoin, "":
		b.Protocol = topology.NewRandom(net, seed, 0)
		if err := b.Protocol.Bootstrap(ctx, ids); err != nil {
			return err
		}
	case ProtoLBC:
		b.Protocol = topology.NewLBC(net, seed, topology.LBCConfig{})
		if err := b.Protocol.Bootstrap(ctx, ids); err != nil {
			return err
		}
	case ProtoBCBPT:
		proto, err := core.New(net, seed, spec.bcbptConfig())
		if err != nil {
			return err
		}
		b.BCBPT = proto
		b.Protocol = proto
		if err := proto.Bootstrap(ctx, ids); err != nil {
			return err
		}
		if err := net.RunUntil(ctx, proto.BootstrapDeadline(len(ids))); err != nil {
			return err
		}
		if proto.NumClustered() != len(ids) {
			return fmt.Errorf("experiment: bootstrap clustered %d of %d nodes",
				proto.NumClustered(), len(ids))
		}
	default:
		return fmt.Errorf("experiment: unknown protocol %q", spec.Protocol)
	}
	net.OnDisconnect = b.Protocol.OnDisconnect

	// Pick the measuring node: the best-connected node, so Δt samples
	// cover many connections (Fig. 2 wants m's connections 1..n).
	mID := bestConnected(net)
	if spec.MeasuringConnections > 0 {
		if err := forceDegree(net, b, mID, spec.MeasuringConnections); err != nil {
			return err
		}
	}
	measurer, err := measure.NewMeasuringNode(net, mID)
	if err != nil {
		return err
	}
	b.Measurer = measurer

	if spec.Churn != nil {
		drv, err := churn.NewDriver(*spec.Churn, net.Scheduler(), net.Streams().Stream("churn"))
		if err != nil {
			return err
		}
		// Churn arrivals keep their own serial placement stream: they are
		// placed one at a time inside the single-threaded event loop.
		r := net.Streams().Stream("placement")
		drv.OnLeave = func(id uint64) {
			nid := p2p.NodeID(id)
			if nid == mID {
				return // the measuring node must survive the campaign
			}
			b.Protocol.OnLeave(nid)
			net.RemoveNode(nid)
		}
		drv.OnArrive = func() (uint64, bool) {
			node := net.AddNode(placer.Place(r))
			b.Protocol.OnJoin(node.ID())
			return uint64(node.ID()), true
		}
		for _, id := range net.NodeIDs() {
			if id != mID {
				drv.ScheduleSession(uint64(id))
			}
		}
		drv.Start()
		b.ChurnDriver = drv
	}
	return nil
}

// Close releases a built (or part-built) network: churn stops scheduling
// sessions and the network drops its pending event queue and hooks. Build
// calls it on every error path; callers that are done measuring may call
// it too. Idempotent.
func (b *Built) Close() {
	if b == nil {
		return
	}
	if b.ChurnDriver != nil {
		b.ChurnDriver.Stop()
	}
	if b.Net != nil {
		b.Net.Close()
	}
}

// bestConnected returns the live node with the most peers (ties to the
// lowest ID for determinism).
func bestConnected(net *p2p.Network) p2p.NodeID {
	var best p2p.NodeID
	bestN := -1
	for _, id := range net.NodeIDs() {
		node, ok := net.Node(id)
		if !ok {
			continue
		}
		if n := node.NumPeers(); n > bestN {
			best, bestN = id, n
		}
	}
	return best
}

// forceDegree adjusts the measuring node's connection count to exactly k,
// adding protocol-appropriate extra links or dropping excess ones. The
// protocol's refill hook is suspended for the duration — this is
// measurement instrumentation, not protocol behaviour.
func forceDegree(net *p2p.Network, b *Built, id p2p.NodeID, k int) error {
	node, ok := net.Node(id)
	if !ok {
		return errors.New("experiment: measuring node vanished")
	}
	prevHook := net.OnDisconnect
	net.OnDisconnect = nil
	defer func() { net.OnDisconnect = prevHook }()

	// Drop excess (shedding the highest IDs first, deterministically).
	for node.NumPeers() > k {
		peers := node.Peers()
		net.Disconnect(id, peers[len(peers)-1])
	}
	if node.NumPeers() == k {
		return nil
	}
	// Add connections, bypassing outbound caps: the paper's Fig. 2
	// instrument observes n connections regardless of client policy.
	// Under BCBPT, m's connections are "proximity based" — the k
	// latency-nearest nodes, as the protocol's own measurement would
	// have selected. Under the baselines, m's extra connections are
	// uniformly random, matching vanilla neighbour selection.
	if b.BCBPT != nil {
		type cand struct {
			id  p2p.NodeID
			rtt time.Duration
		}
		var cands []cand
		for _, other := range net.NodeIDs() {
			if other == id {
				continue
			}
			if rtt, ok := net.BaseRTT(id, other); ok {
				cands = append(cands, cand{id: other, rtt: rtt})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].rtt != cands[j].rtt {
				return cands[i].rtt < cands[j].rtt
			}
			return cands[i].id < cands[j].id
		})
		for _, c := range cands {
			if node.NumPeers() >= k {
				break
			}
			_ = net.ConnectUnbounded(id, c.id)
		}
	} else {
		all := net.NodeIDs()
		r := net.Streams().Stream("force-degree")
		attempts := 0
		for node.NumPeers() < k && attempts < 200*k {
			attempts++
			target := all[r.Intn(len(all))]
			if target == id {
				continue
			}
			_ = net.ConnectUnbounded(id, target)
		}
	}
	if node.NumPeers() != k {
		return fmt.Errorf("experiment: could not force degree %d (got %d)", k, node.NumPeers())
	}
	return nil
}

// defaultChurn returns a churn model whose arrival rate balances the
// expected departure rate for a network of n nodes, so the population
// stays roughly stable across the measurement window (the paper keeps the
// simulated size matched to the measured real-network size).
func defaultChurn(n int) churn.Model {
	m := churn.Default()
	// Weibull(scale, k=0.6) has mean scale*Gamma(1+1/0.6) ≈ 1.50*scale.
	meanSession := 1.5 * float64(m.SessionScale)
	departRate := float64(n) / meanSession // departures per ns
	if departRate > 0 {
		m.MeanArrival = time.Duration(1 / departRate)
	}
	return m
}

// txFactory builds distinct dummy transactions for measurement runs: the
// coinbases spend nothing, so no node rejects one as a conflict, and only
// their IDs matter, which must be unique so runs are independent.
func txFactory(seed int64) func(i int) *chain.Tx {
	key, err := chain.GenerateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(fmt.Sprintf("experiment: keygen: %v", err)) // P-256 keygen from a live reader cannot fail
	}
	return func(i int) *chain.Tx {
		return chain.Coinbase(uint64(i)+1, chain.Amount(seed%1000+1), key.Address())
	}
}

// CampaignContext runs the standard measurement campaign against a built
// network and returns the pooled Δt distribution. The campaign stops
// between injections once ctx is done, returning the partial result
// together with an error wrapping ctx.Err().
func (b *Built) CampaignContext(ctx context.Context, runs int, deadline time.Duration) (measure.CampaignResult, error) {
	return b.Measurer.RunContext(ctx, measure.Campaign{
		Runs:     runs,
		Deadline: deadline,
		MakeTx:   txFactory(1000),
	})
}
