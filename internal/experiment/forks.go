package experiment

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/p2p"
	"repro/internal/sim"
)

// The fork-rate experiment connects the paper's propagation-delay result
// to its consensus consequence. The paper (§I) warns that slow
// propagation lets "two blocks be created simultaneously, each one as a
// possible addition to the same sub-chain" — a blockchain fork, the
// precondition for double spending. Decker & Wattenhofer (the paper's
// ref [9]) measured that the fork probability is governed by the ratio of
// block propagation delay to block interval.
//
// Here, block discoveries arrive as a Poisson process split uniformly
// across miner nodes. A discovery is a FORK when the winning miner has
// not yet received the previous block — it extends stale state. Faster
// relay (BCBPT) must therefore yield a lower fork rate at the same block
// interval.

// ForkSpec parameterises the mining race.
type ForkSpec struct {
	// Nodes, Seed, Protocol, BCBPT: network build parameters.
	Nodes    int
	Seed     int64
	Protocol ProtocolKind
	BCBPT    core.Config
	// Miners is how many nodes mine (spread uniformly at random).
	Miners int
	// Blocks is how many block discoveries to simulate.
	Blocks int
	// BlockInterval is the mean time between discoveries. Small
	// intervals (seconds, not Bitcoin's 10 minutes) stress propagation
	// so fork rates are measurable in few blocks.
	BlockInterval time.Duration
	// BlockTxs pads each block with this many transactions, scaling its
	// wire size and verification cost.
	BlockTxs int
}

// ForkResult reports the race outcome for one protocol.
type ForkResult struct {
	Protocol string
	Blocks   int
	Forks    int
	// ForkRate is Forks/Blocks.
	ForkRate float64
	// Coverage90 is the distribution of per-block times to reach 90% of
	// nodes.
	Coverage90 measure.Distribution
}

// String renders the result.
func (r ForkResult) String() string {
	return fmt.Sprintf("%-10s blocks=%d forks=%d rate=%.3f cover90{p50=%v p90=%v}",
		r.Protocol, r.Blocks, r.Forks, r.ForkRate,
		r.Coverage90.Median().Round(time.Millisecond),
		r.Coverage90.Percentile(90).Round(time.Millisecond))
}

// ForkRace runs the mining race under one protocol. ctx cancels the
// network build; the race itself runs to completion once built.
func ForkRace(ctx context.Context, spec ForkSpec) (ForkResult, error) {
	if spec.Miners < 2 {
		return ForkResult{}, errors.New("experiment: need at least 2 miners")
	}
	if spec.Blocks < 1 {
		return ForkResult{}, errors.New("experiment: need at least 1 block")
	}
	if spec.BlockInterval <= 0 {
		spec.BlockInterval = 10 * time.Second
	}
	built, err := Build(ctx, Spec{
		Nodes:    spec.Nodes,
		Seed:     spec.Seed,
		Protocol: spec.Protocol,
		BCBPT:    spec.BCBPT,
	})
	if err != nil {
		return ForkResult{}, err
	}
	net := built.Net

	// Pick miners deterministically.
	ids := net.NodeIDs()
	r := rand.New(rand.NewSource(spec.Seed + 999))
	perm := r.Perm(len(ids))
	miners := make([]p2p.NodeID, 0, spec.Miners)
	for _, i := range perm[:spec.Miners] {
		miners = append(miners, ids[i])
	}
	sort.Slice(miners, func(i, j int) bool { return miners[i] < miners[j] })

	key, err := chain.GenerateKey(rand.New(rand.NewSource(spec.Seed + 998)))
	if err != nil {
		return ForkResult{}, err
	}

	// Track per-block arrival times for coverage statistics.
	type blockTrack struct {
		foundAt  sim.Time
		arrivals []sim.Time
	}
	tracks := make(map[chain.Hash]*blockTrack)
	var mined []chain.Hash // tracks keys in mined order, for deterministic iteration
	net.OnBlockFirstSeen = func(_ *p2p.Node, h chain.Hash, at sim.Time) {
		if t, ok := tracks[h]; ok {
			t.arrivals = append(t.arrivals, at)
		}
	}

	res := ForkResult{Protocol: string(spec.Protocol)}
	var lastBlock chain.Hash
	height := uint64(0)
	mineR := net.Streams().Stream("mining")

	var scheduleFind func()
	found := 0
	scheduleFind = func() {
		gap := time.Duration(sim.Exponential(mineR, float64(spec.BlockInterval)))
		net.Scheduler().After(gap, func() {
			if found >= spec.Blocks {
				return
			}
			found++
			miner := miners[mineR.Intn(len(miners))]
			node, ok := net.Node(miner)
			if !ok {
				scheduleFind()
				return
			}
			// Fork test: the winner extends stale state if it has not
			// yet received the previous block.
			if !lastBlock.IsZero() {
				if _, seen := node.FirstSeen(lastBlock); !seen {
					res.Forks++
				}
			}
			height++
			blk := makeBlock(height, spec.BlockTxs, key.Address())
			h := blk.Header.Hash()
			tracks[h] = &blockTrack{foundAt: net.Now()}
			mined = append(mined, h)
			lastBlock = h
			if err := node.SubmitBlock(blk); err == nil {
				// Submission counts as the miner's own first-seen; record
				// it for coverage (OnBlockFirstSeen fired inside Submit).
				_ = h
			}
			res.Blocks++
			scheduleFind()
		})
	}
	scheduleFind()

	// Run long enough for all finds plus final propagation.
	deadline := time.Duration(spec.Blocks+2)*spec.BlockInterval + 2*time.Minute
	if err := net.RunUntil(context.Background(), net.Now()+sim.Time(deadline)); err != nil {
		return ForkResult{}, err
	}

	// Coverage: per block, time until 90% of nodes had it.
	var cover []time.Duration
	total := net.NumNodes()
	for _, h := range mined {
		t := tracks[h]
		if len(t.arrivals) < total*9/10 {
			continue // block never reached 90% (churn or cut): skip
		}
		arr := append([]sim.Time(nil), t.arrivals...)
		sort.Slice(arr, func(i, j int) bool { return arr[i] < arr[j] })
		idx := total*9/10 - 1
		if idx >= len(arr) {
			idx = len(arr) - 1
		}
		cover = append(cover, time.Duration(arr[idx]-t.foundAt))
	}
	res.Coverage90 = measure.NewDistribution(cover)
	if res.Blocks > 0 {
		res.ForkRate = float64(res.Forks) / float64(res.Blocks)
	}
	return res, nil
}

// makeBlock builds a structurally valid block (zero PoW target) carrying
// txCount padding transactions.
func makeBlock(height uint64, txCount int, to chain.Address) *chain.Block {
	txs := make([]*chain.Tx, 0, txCount+1)
	txs = append(txs, chain.Coinbase(height<<20, 50_000, to))
	for i := 0; i < txCount; i++ {
		txs = append(txs, chain.Coinbase(height<<20|uint64(i+1), chain.Amount(i+1), to))
	}
	return &chain.Block{
		Header: chain.BlockHeader{
			Version:    1,
			MerkleRoot: chain.MerkleRoot(txs),
			TimeUnix:   height,
			TargetBits: 0, // structural validity without hashing work
		},
		Txs: txs,
	}
}
