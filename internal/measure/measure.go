package measure

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/chain"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/sim"
)

// MeasuringNode implements the experiment of Fig. 2: a node m with
// proximity-based connections that "creates a valid transaction Tx and
// sends it to one node of its connected nodes, and then tracks the
// transaction in order to record the time by which each node of its
// connections announces the transaction".
//
// Δt(m,n) = Tn − Tm (eq. 5), where Tm is the injection time and Tn the
// time connection n first has the transaction.
type MeasuringNode struct {
	net  *p2p.Network
	node *p2p.Node

	// watchGen and watchID form MeasureOnce's per-run wait set as a flat
	// array keyed by dense node slot: slot s is watched this run iff
	// watchGen[s] == watchRun and watchID[s] still names the node that
	// occupied the slot when the run started (slots recycle under churn).
	// Starting a run is a generation bump plus one write per connection —
	// no map to clear or rehash across thousands of injections.
	watchGen []uint32
	watchID  []p2p.NodeID
	watchRun uint32
	// deltaAt records, per consumed slot, the first-seen time the hook
	// observed. The hook writes a flat Time cell instead of a map entry,
	// and the result map is assembled after the run.
	deltaAt []sim.Time

	// Trace, when non-nil, records one KindInject event per measurement
	// run (the injected transaction's hash prefix and run index, stamped
	// at the injection's simulation time). Point it at the driving
	// goroutine's shard — obs shard 0 by convention — alongside
	// Network.EnableTrace; nil keeps measurement byte-for-byte free of
	// observability work.
	Trace *obs.Shard

	// runIndex counts MeasureOnce calls for the inject event's P3.
	runIndex uint64
}

// NewMeasuringNode wraps an existing, already-wired node as the measuring
// node m.
func NewMeasuringNode(net *p2p.Network, id p2p.NodeID) (*MeasuringNode, error) {
	node, ok := net.Node(id)
	if !ok {
		return nil, fmt.Errorf("measure: unknown node %d", id)
	}
	return &MeasuringNode{net: net, node: node}, nil
}

// firstKeyTag keys an injection's first connection apart from sends and links.
const firstKeyTag uint64 = 0x696e6a6563744b31 // "injectK1"

// ID returns the measuring node's ID.
func (m *MeasuringNode) ID() p2p.NodeID { return m.node.ID() }

// RunResult is one measurement run: per-connection Δt values.
type RunResult struct {
	// TxID identifies the injected transaction.
	TxID chain.Hash
	// InjectedAt is Tm.
	InjectedAt sim.Time
	// Deltas holds Δt(m,n) per connected node n that received the
	// transaction within the deadline.
	Deltas map[p2p.NodeID]time.Duration
	// Missing lists connections that never announced within the deadline
	// ("errors such as loss of connection ... are expected", §V.B).
	Missing []p2p.NodeID
}

// All returns the Δt values in ascending connection-ID order.
func (r RunResult) All() []time.Duration {
	out := make([]time.Duration, 0, len(r.Deltas))
	for _, id := range sortedIDs(r.Deltas) {
		out = append(out, r.Deltas[id])
	}
	return out
}

// sortedIDs returns m's keys in ascending order.
func sortedIDs(m map[p2p.NodeID]time.Duration) []p2p.NodeID {
	ids := make([]p2p.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// ErrNoConnections means the measuring node has no peers to measure.
var ErrNoConnections = errors.New("measure: measuring node has no connections")

// MeasureOnce injects one transaction to a single randomly chosen
// connection (per Fig. 2: "the transaction is propagated from node m to
// one connected node only") and runs the network until every connection
// has received it or deadline virtual time has passed. ctx cancels the
// run mid-flood: the partial run is discarded and the error wraps
// ctx.Err().
// The connection is chosen by a key of (seed, m, transaction), as the
// flood's sends are keyed by the transaction: no stream carries a draw
// from one injection into the next.
func (m *MeasuringNode) MeasureOnce(ctx context.Context, tx *chain.Tx, deadline time.Duration) (RunResult, error) {
	peers := m.node.Peers()
	if len(peers) == 0 {
		return RunResult{}, ErrNoConnections
	}
	txID := tx.ID()
	start := m.net.Now()
	res := RunResult{TxID: txID, InjectedAt: start, Deltas: make(map[p2p.NodeID]time.Duration)}

	m.watchRun++
	if m.watchRun == 0 {
		// Generation wrap: stale stamps could alias, so hard-reset once.
		clear(m.watchGen)
		m.watchRun = 1
	}
	if sc := m.net.SlotCap(); len(m.watchGen) < sc {
		m.watchGen = append(m.watchGen, make([]uint32, sc-len(m.watchGen))...)
		m.watchID = append(m.watchID, make([]p2p.NodeID, sc-len(m.watchID))...)
		m.deltaAt = append(m.deltaAt, make([]sim.Time, sc-len(m.deltaAt))...)
	}
	var remaining int32
	for _, p := range peers {
		slot, ok := m.net.SlotOf(p)
		if !ok {
			continue
		}
		if m.watchGen[slot] != m.watchRun {
			m.watchGen[slot] = m.watchRun
			m.watchID[slot] = p
			remaining++
		}
	}

	prevHook := m.net.OnTxFirstSeen
	m.net.OnTxFirstSeen = func(node *p2p.Node, h chain.Hash, at sim.Time) {
		if prevHook != nil {
			prevHook(node, h, at)
		}
		if h != txID {
			return
		}
		slot := node.Slot()
		if slot >= len(m.watchGen) || m.watchGen[slot] != m.watchRun || m.watchID[slot] != node.ID() {
			return
		}
		// Consume the slot: first sight per connection per run, dup-proof
		// without a map lookup.
		m.watchGen[slot] = m.watchRun - 1
		m.deltaAt[slot] = at
		remaining--
		if remaining == 0 {
			m.net.StopRun()
		}
	}
	defer func() { m.net.OnTxFirstSeen = prevHook }()

	// Inject: hand the tx to ONE connection, not to m's relay logic —
	// m itself does not broadcast (Fig. 2). The submission runs directly at
	// the current simulation time.
	key := sim.MixKey3(uint64(m.net.Config().Seed)^firstKeyTag, uint64(m.node.ID()), binary.LittleEndian.Uint64(txID[:8]))
	first := peers[key%uint64(len(peers))]
	firstNode, ok := m.net.Node(first)
	if !ok {
		return RunResult{}, fmt.Errorf("measure: connection %d vanished", first)
	}
	if m.Trace != nil {
		m.Trace.Record(obs.Event{At: start, Kind: obs.KindInject,
			P1: uint64(first), P2: binary.LittleEndian.Uint64(txID[:8]), P3: m.runIndex})
	}
	m.runIndex++
	// A transaction the first connection refuses never enters the network:
	// that is an error, not a run in which every connection missed it.
	if err := firstNode.SubmitTx(tx); err != nil {
		return RunResult{}, fmt.Errorf("measure: injection %d at node %d: %w", m.runIndex-1, first, err)
	}

	err := m.net.RunUntil(ctx, start+sim.Time(deadline))
	if err != nil && !errors.Is(err, sim.ErrStopped) {
		return RunResult{}, err
	}
	// Drain any still-pending events up to the deadline if we stopped
	// early, so the clock reaches the deadline and churn runs its course;
	// the next run's ResetInventory ends whatever is still on its way.
	if errors.Is(err, sim.ErrStopped) {
		if err := m.net.RunUntil(ctx, start+sim.Time(deadline)); err != nil && !errors.Is(err, sim.ErrStopped) {
			return RunResult{}, err
		}
	}
	// Assemble the result from the flat slot cells. A watched slot still
	// stamped with this run's generation was never consumed: that
	// connection missed the deadline.
	for _, p := range peers {
		slot, ok := m.net.SlotOf(p)
		if ok && slot < len(m.watchGen) && m.watchGen[slot] == m.watchRun-1 && m.watchID[slot] == p {
			res.Deltas[p] = time.Duration(m.deltaAt[slot] - start)
			continue
		}
		if res.Missing == nil {
			res.Missing = make([]p2p.NodeID, 0, 4)
		}
		res.Missing = append(res.Missing, p)
	}
	return res, nil
}

// Campaign runs the full §V.B methodology: `runs` independent injections
// (the paper averages ~1000), resetting inventory before each run, and
// pools all Δt samples into a Distribution. A reset ends the run before it
// (p2p.Network.ResetInventory), so churn-free, injection i's result depends
// on the built network and MakeTx(i) alone, in any order.
type Campaign struct {
	// Runs is the number of transaction injections.
	Runs int
	// Deadline bounds each run in virtual time.
	Deadline time.Duration
	// MakeTx supplies the transaction for run i. Transactions must have
	// distinct IDs across runs.
	MakeTx func(i int) *chain.Tx
}

// CampaignResult aggregates a campaign.
type CampaignResult struct {
	// Dist pools every Δt(m,n) sample.
	Dist Distribution
	// Lost counts connection-runs that missed the deadline.
	Lost int
	// Fingerprint identifies the campaign spec this result was measured
	// under (a stable hash stamped by the campaign engine). Zero means
	// unstamped. MergeCampaignResults refuses to blend shards carrying
	// different non-zero fingerprints — the guard that keeps a distributed
	// sweep from silently pooling two different experiments.
	Fingerprint uint64
}

// RunContext executes the campaign, checking ctx between injections and
// inside each injection's event loop. On cancellation it returns the
// partial result accumulated from the runs that completed, together with
// an error wrapping ctx.Err(): runs already measured stay valid, and the
// caller decides whether a partial distribution is usable. A run cut off
// mid-flood contributes no samples (a half-measured run would bias the
// distribution towards its fastest connections).
func (m *MeasuringNode) RunContext(ctx context.Context, c Campaign) (CampaignResult, error) {
	if c.Runs <= 0 {
		return CampaignResult{}, errors.New("measure: campaign needs Runs > 0")
	}
	if c.MakeTx == nil {
		return CampaignResult{}, errors.New("measure: campaign needs MakeTx")
	}
	var out CampaignResult
	var samples []time.Duration
	for i := 0; i < c.Runs; i++ {
		if err := ctx.Err(); err != nil {
			out.Dist = NewDistribution(samples)
			return out, fmt.Errorf("measure: campaign stopped after %d of %d runs: %w", i, c.Runs, err)
		}
		m.net.ResetInventory()
		res, err := m.MeasureOnce(ctx, c.MakeTx(i), c.Deadline)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				out.Dist = NewDistribution(samples)
				return out, fmt.Errorf("measure: campaign stopped during run %d of %d: %w", i+1, c.Runs, err)
			}
			return CampaignResult{}, fmt.Errorf("measure: run %d: %w", i, err)
		}
		out.Lost += len(res.Missing)
		samples = append(samples, res.All()...)
	}
	out.Dist = NewDistribution(samples)
	return out, nil
}

// MergeCampaignResults combines shard results from independent campaign
// replications into one pooled result. The merge is deterministic: given
// the same shards in the same order it produces an identical result, and
// the pooled Distribution depends only on the multiset of samples — so
// shards computed by any number of workers, merged in replication order,
// yield a bit-identical aggregate.
//
// Shards carrying different non-zero Fingerprints are different
// experiments; merging them would silently blend incomparable samples, so
// the merge fails instead. Unstamped shards (fingerprint zero) merge with
// anything; the output carries the common non-zero fingerprint, if any.
func MergeCampaignResults(shards ...CampaignResult) (CampaignResult, error) {
	var out CampaignResult
	dists := make([]Distribution, len(shards))
	for i, s := range shards {
		if s.Fingerprint != 0 {
			if out.Fingerprint == 0 {
				out.Fingerprint = s.Fingerprint
			} else if s.Fingerprint != out.Fingerprint {
				return CampaignResult{}, fmt.Errorf(
					"measure: shard %d has spec fingerprint %016x, previous shards %016x: refusing to merge different experiments",
					i, s.Fingerprint, out.Fingerprint)
			}
		}
		out.Lost += s.Lost
		dists[i] = s.Dist
	}
	out.Dist = MergeDistributions(dists...)
	return out, nil
}
