package experiment

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/p2p"
	"repro/internal/sim"
)

// The double-spend experiment quantifies the paper's motivation (§I, §III):
// "this issue can be avoided if transactions are propagated quickly enough
// through the network ... reducing the probability of performing a
// successful double spending attack" (paper's ref [4]).
//
// Setup: the attacker owns an unspent output and crafts two conflicting
// transactions — txV paying the victim (a zero-confirmation merchant) and
// txA paying itself. txV is handed to the victim's node; txA is injected
// at the topologically farthest node, offset seconds later. Every node
// keeps whichever transaction arrived first and rejects the other, which
// spends the same output (p2p's first-spend rule). When the race
// settles, the attacker has "won" a node if that node holds txA; the
// attack succeeds overall if the majority of the network (the miners)
// holds txA while the victim still sees txV.
//
// Faster propagation shrinks the window: the attacker's share should fall
// off more steeply with offset under BCBPT than under vanilla Bitcoin.

// DoubleSpendSpec parameterises the race.
type DoubleSpendSpec struct {
	// Nodes, Seed: network build parameters.
	Nodes int
	Seed  int64
	// Protocol selects neighbour selection.
	Protocol ProtocolKind
	// BCBPT configures BCBPT when selected.
	BCBPT core.Config
	// Offsets are the head starts given to the victim transaction.
	Offsets []time.Duration
	// Trials per offset (a distinct output each).
	Trials int
	// Deadline bounds each race in virtual time.
	Deadline time.Duration
}

// DoubleSpendPoint is the outcome at one offset.
type DoubleSpendPoint struct {
	Offset time.Duration
	// AttackerShare is the mean fraction of nodes holding txA when the
	// race settles.
	AttackerShare float64
	// Success is the fraction of trials where the majority held txA
	// while the victim node held txV (the merchant is deceived).
	Success float64
}

// DoubleSpendResult is the sweep outcome for one protocol.
type DoubleSpendResult struct {
	Protocol string
	Points   []DoubleSpendPoint
}

// String renders the sweep as a table.
func (r DoubleSpendResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %15s %10s\n", "protocol", "offset", "attackerShare", "success")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10s %12v %15.3f %10.2f\n", r.Protocol, p.Offset, p.AttackerShare, p.Success)
	}
	return b.String()
}

// DoubleSpend runs the race sweep for one protocol. ctx cancels the
// network build; the race itself runs to completion once built.
func DoubleSpend(ctx context.Context, spec DoubleSpendSpec) (DoubleSpendResult, error) {
	if spec.Trials <= 0 {
		spec.Trials = 5
	}
	if len(spec.Offsets) == 0 {
		spec.Offsets = []time.Duration{0, 100 * time.Millisecond, 300 * time.Millisecond, time.Second}
	}
	if spec.Deadline <= 0 {
		spec.Deadline = 2 * time.Minute
	}

	attacker, victim, err := raceKeys(spec.Seed)
	if err != nil {
		return DoubleSpendResult{}, err
	}

	built, err := Build(ctx, Spec{
		Nodes:    spec.Nodes,
		Seed:     spec.Seed,
		Protocol: spec.Protocol,
		BCBPT:    spec.BCBPT,
	})
	if err != nil {
		return DoubleSpendResult{}, err
	}
	net := built.Net
	victimID := built.Measurer.ID()
	attackerID := farthestFrom(net, victimID)

	res := DoubleSpendResult{Protocol: string(spec.Protocol)}
	idx := 0
	for _, offset := range spec.Offsets {
		var shareSum, successSum float64
		for trial := 0; trial < spec.Trials; trial++ {
			idx++
			op := chain.Outpoint{TxID: chain.Coinbase(uint64(idx), 100_000, attacker.Address()).ID()}
			share, deceived, err := raceOnce(net, victimID, attackerID, attacker, victim, op, offset, spec.Deadline)
			if err != nil {
				return DoubleSpendResult{}, fmt.Errorf("experiment: race offset %v trial %d: %w", offset, trial, err)
			}
			shareSum += share
			if deceived {
				successSum++
			}
		}
		res.Points = append(res.Points, DoubleSpendPoint{
			Offset:        offset,
			AttackerShare: shareSum / float64(spec.Trials),
			Success:       successSum / float64(spec.Trials),
		})
	}
	return res, nil
}

// raceKeys derives the attacker's and the victim's keys from the race
// seed. Each (offset, trial) then races over an output of its own.
func raceKeys(seed int64) (attacker, victim *chain.KeyPair, err error) {
	if attacker, err = chain.GenerateKey(rand.New(rand.NewSource(seed + 5000))); err != nil {
		return nil, nil, err
	}
	if victim, err = chain.GenerateKey(rand.New(rand.NewSource(seed + 5001))); err != nil {
		return nil, nil, err
	}
	return attacker, victim, nil
}

// conflictingSpends builds the race's two spends of op: txV pays the
// victim's address, txA the attacker's own. No node verifies a signature,
// so each input carries a zero 64-byte Sig beside the attacker's public
// key: the size of a signed spend, and so its transmission time and
// verification cost, with an ID that is the same on every run.
func conflictingSpends(attacker, victim *chain.KeyPair, op chain.Outpoint) (txV, txA *chain.Tx) {
	spend := func(to chain.Address) *chain.Tx {
		return &chain.Tx{
			Version: 1,
			Inputs:  []chain.TxIn{{PrevOut: op, Sig: make([]byte, 64), PubKey: attacker.PubKey()}},
			Outputs: []chain.TxOut{{Value: 99_000, To: to}},
		}
	}
	return spend(victim.Address()), spend(attacker.Address())
}

// raceOnce runs one double-spend race and reports the attacker's node
// share and whether the victim was deceived.
func raceOnce(net *p2p.Network, victimID, attackerID p2p.NodeID,
	attacker, victim *chain.KeyPair, op chain.Outpoint,
	offset, deadline time.Duration) (share float64, deceived bool, err error) {

	net.ResetInventory()

	txV, txA := conflictingSpends(attacker, victim, op)

	vNode, ok := net.Node(victimID)
	if !ok {
		return 0, false, errors.New("victim node gone")
	}
	aNode, ok := net.Node(attackerID)
	if !ok {
		return 0, false, errors.New("attacker node gone")
	}
	start := net.Now()
	net.Scheduler().After(0, func() { _ = vNode.SubmitTx(txV) })
	net.Scheduler().After(offset, func() { _ = aNode.SubmitTx(txA) })
	if err := net.RunUntil(context.Background(), start+sim.Time(deadline)); err != nil {
		return 0, false, err
	}

	var holdA, holdV int
	for _, id := range net.NodeIDs() {
		node, ok := net.Node(id)
		if !ok {
			continue
		}
		_, hasA := node.FirstSeen(txA.ID())
		_, hasV := node.FirstSeen(txV.ID())
		switch {
		case hasA && !hasV:
			holdA++
		case hasV && !hasA:
			holdV++
		case hasA && hasV:
			// FirstSeen tracks acceptance, and a node that accepted one
			// spend rejects the other, so this cannot happen; were it to,
			// it would count as attacker reach.
			holdA++
		}
	}
	total := holdA + holdV
	if total == 0 {
		return 0, false, errors.New("race produced no holders")
	}
	share = float64(holdA) / float64(total)
	_, victimSawV := vNode.FirstSeen(txV.ID())
	deceived = victimSawV && holdA > holdV
	return share, deceived, nil
}

// farthestFrom returns the live node with the largest base RTT from ref.
func farthestFrom(net *p2p.Network, ref p2p.NodeID) p2p.NodeID {
	ids := net.NodeIDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var best p2p.NodeID
	var bestRTT time.Duration = -1
	for _, id := range ids {
		if id == ref {
			continue
		}
		rtt, ok := net.BaseRTT(ref, id)
		if !ok {
			continue
		}
		if rtt > bestRTT {
			best, bestRTT = id, rtt
		}
	}
	return best
}
