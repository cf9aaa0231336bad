package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/topology"
)

type digest = [sha256.Size]byte

// A workload is one of the benchmark's input sets. All are closed loops
// driven by one goroutine: op i+1 starts when op i has returned.
type workload interface {
	// setUp does the one-time preparation that no pass repeats.
	setUp(ctx context.Context) error
	// ops is the number of timed ops in a pass.
	ops() int
	// prepare does a pass's untimed preparation.
	prepare(ctx context.Context, rec *recorder) (pass, error)
}

// A pass runs a workload's ops once. Op i does bit-identical work in
// every pass, which its digest lets the harness check.
type pass interface {
	op(ctx context.Context, i int, rec *recorder) (digest, error)
	// counts returns the pass's counters, read after the last op while
	// everything the pass built is still referenced.
	counts() map[string]float64
	close()
}

// layered workloads have layer metrics that only the traced run takes,
// after the traced pass has put its spans into rec.
type layered interface {
	layers(ctx context.Context, name string, rec *recorder, base baseline) (map[string]float64, error)
}

// baseline is what the untraced passes of a workload measured.
type baseline struct {
	wallNS    int64 // sum of the fastest time of each op
	medianNS  int64 // median pass
	fastestNS int64 // fastest pass
}

// size scales a workload: node count, injections (or campaign runs) per
// pass, and replications.
type size struct{ nodes, ops, reps int }

// The node counts are the issue's: 2000 is ROADMAP's north-star figure3
// run, 5000 the paper's network, 3000 where the quadratic BCBPT build
// already dominates. Injections are a quarter of the issue's 100 so that
// a pass takes one to three seconds and a run of BENCHMARK.json's
// run_seconds fits many: each op needs only one undisturbed pass.
var fullSizes = map[string]size{
	"fig3_sweep":   {nodes: 2000, ops: 25, reps: 1},
	"relay_flood":  {nodes: 5000, ops: 25},
	"bcbpt_build":  {nodes: 3000, ops: 1},
	"churn_relay":  {nodes: 2000, ops: 25},
	"fleet_replay": {nodes: 500, ops: 50, reps: 4},
}

var smokeSizes = map[string]size{
	"fig3_sweep":   {nodes: 200, ops: 5, reps: 1},
	"relay_flood":  {nodes: 300, ops: 5},
	"bcbpt_build":  {nodes: 250, ops: 1},
	"churn_relay":  {nodes: 200, ops: 5},
	"fleet_replay": {nodes: 200, ops: 5, reps: 2},
}

// workloadNames is the order workloads run and report in.
var workloadNames = []string{"fig3_sweep", "relay_flood", "bcbpt_build", "churn_relay", "fleet_replay"}

// minWarmNodes keeps the warm-up network large enough for every protocol
// to cluster and for the measuring node to have connections.
const minWarmNodes = 100

// tenth is the warm-up scale.
func (s size) tenth() size {
	t := size{nodes: s.nodes / 10, ops: s.ops / 10, reps: s.reps}
	if t.nodes < minWarmNodes {
		t.nodes = minWarmNodes
	}
	if t.ops < 2 {
		t.ops = min(2, s.ops)
	}
	return t
}

func newWorkload(name string, seed int64, sz size, outDir string) (workload, error) {
	switch name {
	case "fig3_sweep":
		return &fig3Sweep{opts: experiment.Options{
			Nodes: sz.nodes, Runs: sz.ops, Seed: seed, Replications: sz.reps, BuildWorkers: 1,
		}}, nil
	case "relay_flood", "churn_relay":
		churn := name == "churn_relay"
		c, err := figure3Campaign(experiment.Options{Nodes: sz.nodes, Seed: seed, ChurnOn: churn}, "bitcoin")
		if err != nil {
			return nil, err
		}
		return &relay{spec: c.Spec, injections: sz.ops, churn: churn}, nil
	case "bcbpt_build":
		c, err := figure3Campaign(experiment.Options{Nodes: sz.nodes, Seed: seed}, "bcbpt")
		if err != nil {
			return nil, err
		}
		return &bcbptBuild{spec: c.Spec}, nil
	case "fleet_replay":
		return &fleetReplay{
			campaigns: experiment.Figure3Campaigns(experiment.Options{
				Nodes: sz.nodes, Runs: sz.ops, Replications: sz.reps, Seed: seed, BuildWorkers: 1,
			}),
			outDir: outDir,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// figure3Campaign returns the Fig. 3 campaign of one protocol, which is
// how the harness gets the engine's own Spec (BCBPT at dt = 25 ms, the
// default churn model) without rebuilding it from unexported parts.
func figure3Campaign(o experiment.Options, proto string) (experiment.CampaignSpec, error) {
	o.BuildWorkers = 1
	for _, c := range experiment.Figure3Campaigns(o) {
		if string(c.Spec.Protocol) == proto {
			return c, nil
		}
	}
	return experiment.CampaignSpec{}, fmt.Errorf("no %q campaign in Figure3Campaigns", proto)
}

// seriesSuffix names the Fig. 3 series, in campaign order, in metric names.
var seriesSuffix = []string{"bitcoin", "lbc", "bcbpt"}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// dtCounts reports a series' Δt quartiles in simulated milliseconds.
func dtCounts(c map[string]float64, series string, d measure.Distribution) {
	c["measure.dt_p50_ms."+series] = ms(d.Percentile(50))
	c["measure.dt_p90_ms."+series] = ms(d.Percentile(90))
}

// ---- fig3_sweep ----

type fig3Sweep struct {
	opts    experiment.Options
	wantCSV []byte // the Workers:1 figure, which any worker count must reproduce
}

// minOrderedNodes is the smallest network on which BCBPT's clusters are
// large enough for its median Δt to lie below Bitcoin's whatever the seed.
const minOrderedNodes = 1000

// sweepWorkers is the pool the timed sweep runs on: the BCBPT unit on one
// lane, the Bitcoin and LBC units on the other.
const sweepWorkers = 2

func (w *fig3Sweep) figure(ctx context.Context, workers int, rec *recorder) (experiment.FigureResult, []byte, error) {
	o := w.opts
	o.Workers = workers
	sp := rec.begin("experiment.figure3")
	fig, err := experiment.Figure3Ctx(ctx, o)
	rec.end(sp)
	if err != nil {
		return fig, nil, err
	}
	var buf bytes.Buffer
	sp = rec.begin("measure.csv")
	err = fig.WriteCSV(&buf)
	rec.end(sp)
	return fig, buf.Bytes(), err
}

func (w *fig3Sweep) setUp(ctx context.Context) error {
	_, csv, err := w.figure(ctx, 1, nil)
	w.wantCSV = csv
	return err
}

func (w *fig3Sweep) ops() int { return 1 }

func (w *fig3Sweep) prepare(context.Context, *recorder) (pass, error) {
	return &fig3Pass{w: w}, nil
}

type fig3Pass struct {
	w   *fig3Sweep
	fig experiment.FigureResult
}

func (p *fig3Pass) op(ctx context.Context, _ int, rec *recorder) (digest, error) {
	fig, csv, err := p.w.figure(ctx, sweepWorkers, rec)
	if err != nil {
		return digest{}, err
	}
	p.fig = fig
	if !bytes.Equal(csv, p.w.wantCSV) {
		return digest{}, errors.New("figure CSV differs from the Workers:1 CSV")
	}
	if len(fig.Series) != len(seriesSuffix) {
		return digest{}, fmt.Errorf("figure has %d series, want %d", len(fig.Series), len(seriesSuffix))
	}
	// The paper's headline, and the part of it that holds for every seed:
	// LBC's median depends on which country cluster the measuring node
	// lands in (67 to 309 ms over 25 seeds at 2000 nodes, against 47 to 60
	// for BCBPT and 262 to 431 for Bitcoin), and a benchmark op may not
	// fail on the luck of a seed. measure.dt_p50_ms.lbc reports where it
	// fell. Below minOrderedNodes not even the headline holds for every
	// seed, so the warm-up and the smoke run are not held to it.
	bitcoin, bcbpt := fig.Series[0].Dist.Median(), fig.Series[2].Dist.Median()
	if p.w.opts.Nodes >= minOrderedNodes && bcbpt >= bitcoin {
		return digest{}, fmt.Errorf("median Δt of BCBPT (%v) not below Bitcoin's (%v)", bcbpt, bitcoin)
	}
	return sha256.Sum256(csv), nil
}

func (p *fig3Pass) counts() map[string]float64 {
	c := map[string]float64{}
	for i, s := range p.fig.Series {
		c["measure.samples"] += float64(s.Dist.N())
		c["measure.lost"] += float64(s.Lost)
		dtCounts(c, seriesSuffix[i], s.Dist)
	}
	return c
}

func (p *fig3Pass) close() {}

// layers runs the sweep's units one at a time with a clock injected, which
// is the only way to see a unit's build and run time from outside, and
// sets their sum against the parallel sweep.
func (w *fig3Sweep) layers(ctx context.Context, name string, rec *recorder, base baseline) (map[string]float64, error) {
	m := map[string]float64{}
	clock := func() int64 { return time.Now().UnixNano() }
	var serialNS int64
	rec.at(name, -1)
	for i, c := range experiment.Figure3Campaigns(w.opts) {
		sp := rec.begin("experiment.unit." + seriesSuffix[i])
		_, seen, err := experiment.RunUnitObserved(ctx, c, 0, clock)
		rec.child("experiment.build", 0, time.Duration(seen.BuildNanos))
		rec.child("experiment.run", time.Duration(seen.BuildNanos), time.Duration(seen.RunNanos))
		rec.end(sp)
		if err != nil {
			return m, err
		}
		m["experiment.build_s."+seriesSuffix[i]] = seconds(seen.BuildNanos)
		m["experiment.run_s."+seriesSuffix[i]] = seconds(seen.RunNanos)
		m["p2p.msgs"] += float64(seen.Stats.TotalMessages())
		m["p2p.bytes"] += float64(seen.Stats.TotalBytes())
		m["p2p.dropped"] += float64(seen.Stats.Dropped)
		serialNS += seen.BuildNanos + seen.RunNanos
	}
	m["experiment.parallel_eff"] = float64(serialNS) / (sweepWorkers * float64(base.wallNS))
	return m, nil
}

// ---- relay_flood and churn_relay ----

// injectionDeadline bounds one injection in simulated time, as the
// engine's campaigns do.
const injectionDeadline = 2 * time.Minute

type relay struct {
	spec       experiment.Spec
	injections int
	churn      bool
	txs        []*chain.Tx
	// tracer, when set, is attached to the next pass's network: the
	// obs.trace_overhead pass.
	tracer *obs.Tracer
}

func (w *relay) setUp(context.Context) error {
	key, err := chain.GenerateKey(rand.New(rand.NewSource(w.spec.Seed)))
	if err != nil {
		return err
	}
	w.txs = make([]*chain.Tx, w.injections)
	for i := range w.txs {
		w.txs[i] = chain.Coinbase(uint64(i)+1, 1, key.Address())
	}
	return nil
}

func (w *relay) ops() int { return w.injections }

func (w *relay) prepare(ctx context.Context, rec *recorder) (pass, error) {
	sp := rec.begin("experiment.build")
	b, err := experiment.Build(ctx, w.spec)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	if w.tracer != nil {
		b.Net.EnableTrace(w.tracer)
		b.Measurer.Trace = w.tracer.Shard(0)
	}
	return &relayPass{w: w, b: b, events0: b.Net.Scheduler().Executed(), stats0: b.Net.Stats()}, nil
}

type relayPass struct {
	w       *relay
	b       *experiment.Built
	events0 uint64
	stats0  p2p.Stats
	deltas  []float64 // Δt samples, simulated ms
	lost    int
}

func (p *relayPass) op(ctx context.Context, i int, rec *recorder) (digest, error) {
	sp := rec.begin("p2p.reset_inventory")
	p.b.Net.ResetInventory()
	rec.end(sp)
	sp = rec.begin("measure.measure_once")
	r, err := p.b.Measurer.MeasureOnce(ctx, p.w.txs[i], injectionDeadline)
	rec.end(sp)
	if err != nil {
		return digest{}, err
	}
	if !p.w.churn && len(r.Missing) > 0 {
		return digest{}, fmt.Errorf("flood missed %d of the measuring node's connections", len(r.Missing))
	}
	p.lost += len(r.Missing)
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for _, d := range r.All() {
		p.deltas = append(p.deltas, ms(d))
		put(uint64(d))
	}
	put(uint64(len(r.Missing)))
	put(p.b.Net.Scheduler().Executed())
	put(p.b.Net.Stats().TotalMessages())
	var d digest
	h.Sum(d[:0])
	return d, nil
}

func (p *relayPass) counts() map[string]float64 {
	st := p.b.Net.Stats().Sub(p.stats0)
	sorted := sortedCopy(p.deltas)
	c := map[string]float64{
		"sim.events":                float64(p.b.Net.Scheduler().Executed() - p.events0),
		"p2p.msgs":                  float64(st.TotalMessages()),
		"p2p.bytes":                 float64(st.TotalBytes()),
		"p2p.dropped":               float64(st.Dropped),
		"p2p.node_bytes":            float64(p.b.Net.NodeFootprintBytes()) / float64(p.b.Net.NumNodes()),
		"measure.samples":           float64(len(p.deltas)),
		"measure.lost":              float64(p.lost),
		"measure.dt_p50_ms.bitcoin": quantile(sorted, 0.5),
		"measure.dt_p90_ms.bitcoin": quantile(sorted, 0.9),
	}
	if p.b.ChurnDriver != nil {
		leaves, arrivals := p.b.ChurnDriver.Stats()
		c["churn.leaves"], c["churn.arrivals"] = float64(leaves), float64(arrivals)
	}
	if t := p.w.tracer; t != nil {
		c["obs.events_recorded"], c["obs.dropped"] = float64(t.Len()), float64(t.Dropped())
	}
	return c
}

func (p *relayPass) close() { p.b.Close() }

// layers takes one more pass with the simulator's own event tracer on,
// and for the churn-free network times Build's phases in the harness's
// copy of it.
func (w *relay) layers(ctx context.Context, name string, rec *recorder, base baseline) (map[string]float64, error) {
	m := map[string]float64{}
	w.tracer = obs.NewTracer(0, 1)
	res, err := measurePass(ctx, name, w, nil)
	w.tracer = nil
	if err != nil {
		return m, fmt.Errorf("pass with obs tracer: %w", err)
	}
	m["obs.trace_overhead_frac"] = float64(res.total())/float64(base.medianNS) - 1
	m["obs.events_recorded"] = res.counts["obs.events_recorded"]
	m["obs.dropped"] = res.counts["obs.dropped"]
	if w.churn {
		return m, nil
	}
	rec.at(name, -1)
	whole, err := decomposedBuild(ctx, rec, w.spec)
	if err != nil {
		return m, err
	}
	m["topology.bootstrap_s"] = rec.total(name, "topology.bootstrap").Seconds()
	m["bench.decomp_gap_frac"] = float64(whole)/float64(rec.total(name, "experiment.build")) - 1
	return m, nil
}

// ---- bcbpt_build ----

type bcbptBuild struct{ spec experiment.Spec }

func (w *bcbptBuild) setUp(context.Context) error { return nil }

func (w *bcbptBuild) ops() int { return 1 }

func (w *bcbptBuild) prepare(context.Context, *recorder) (pass, error) {
	return &buildPass{w: w}, nil
}

type buildPass struct {
	w *bcbptBuild
	b *experiment.Built
}

func (p *buildPass) op(ctx context.Context, _ int, rec *recorder) (digest, error) {
	sp := rec.begin("experiment.build")
	b, err := experiment.Build(ctx, p.w.spec)
	rec.end(sp)
	if err != nil {
		return digest{}, err
	}
	p.b = b
	if got := b.BCBPT.NumClustered(); got != p.w.spec.Nodes {
		return digest{}, fmt.Errorf("clustered %d of %d nodes", got, p.w.spec.Nodes)
	}
	st, cs := b.Net.Stats(), b.BCBPT.Stats()
	return sha256.Sum256([]byte(fmt.Sprint(b.Net.Scheduler().Executed(), st.TotalMessages(), st.TotalBytes(), cs))), nil
}

func (p *buildPass) counts() map[string]float64 {
	if p.b == nil {
		return nil
	}
	st, cs := p.b.Net.Stats(), p.b.BCBPT.Stats()
	pings, _ := st.PingTraffic()
	events := float64(p.b.Net.Scheduler().Executed())
	return map[string]float64{
		"sim.events":            events,
		"p2p.msgs":              float64(st.TotalMessages()),
		"p2p.bytes":             float64(st.TotalBytes()),
		"p2p.dropped":           float64(st.Dropped),
		"p2p.node_bytes":        float64(p.b.Net.NodeFootprintBytes()) / float64(p.b.Net.NumNodes()),
		"core.join_events":      events,
		"core.probes":           float64(cs.Probes),
		"core.ping_msgs":        float64(pings),
		"core.clusters":         float64(cs.Founded),
		"core.join_accept_frac": float64(cs.Joins) / float64(cs.Joins+cs.Rejects),
		"core.clustered_frac":   float64(p.b.BCBPT.NumClustered()) / float64(p.w.spec.Nodes),
	}
}

func (p *buildPass) close() { p.b.Close() }

func (w *bcbptBuild) layers(ctx context.Context, name string, rec *recorder, _ baseline) (map[string]float64, error) {
	rec.at(name, -1)
	whole, err := decomposedBuild(ctx, rec, w.spec)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"core.rank_s":           rec.total(name, "core.rank").Seconds(),
		"core.join_run_s":       rec.total(name, "core.join_run").Seconds(),
		"bench.decomp_gap_frac": float64(whole)/float64(rec.total(name, "experiment.build")) - 1,
	}, nil
}

// decomposedBuild is the harness's copy of the public calls
// experiment.Build makes, so that the layers nested inside Build get spans
// of their own. It places every node from one random source where Build
// derives a source per shard, so its network matches Build's in size and
// protocol, not node for node; bench.decomp_gap_frac shows how far the
// copy's cost has drifted from the real Build. It returns its wall time.
func decomposedBuild(ctx context.Context, rec *recorder, spec experiment.Spec) (time.Duration, error) {
	start := time.Now()
	root := rec.begin("bench.decomposed_build")
	defer rec.end(root)

	sp := rec.begin("geo.place")
	placer := geo.DefaultPlacer()
	r := rand.New(rand.NewSource(spec.Seed))
	locs := make([]geo.Location, spec.Nodes)
	for i := range locs {
		locs[i] = placer.Place(r)
	}
	rec.end(sp)

	sp = rec.begin("p2p.add_nodes")
	cfg := p2p.DefaultConfig()
	cfg.Seed = spec.Seed
	net, err := p2p.NewNetwork(cfg)
	if err != nil {
		rec.end(sp)
		return 0, err
	}
	defer net.Close()
	net.Reserve(spec.Nodes)
	ids := make([]p2p.NodeID, spec.Nodes)
	for i := range ids {
		ids[i] = net.AddNode(locs[i]).ID()
	}
	rec.end(sp)

	dns := topology.NewDNSSeed()
	if string(spec.Protocol) == "bcbpt" {
		// Build ranks candidates on Spec.BuildWorkers goroutines, which the
		// harness pins to 1. The calls the harness may make have no such
		// knob, and core sizes its pool from GOMAXPROCS when it is made.
		procs := runtime.GOMAXPROCS(1)
		sp = rec.begin("core.new")
		proto, err := core.New(net, dns, spec.BCBPT)
		rec.end(sp)
		if err == nil {
			sp = rec.begin("core.rank")
			err = proto.Bootstrap(ctx, ids)
			rec.end(sp)
		}
		runtime.GOMAXPROCS(procs)
		if err != nil {
			return 0, err
		}
		sp = rec.begin("core.join_run")
		err = net.RunUntil(ctx, proto.BootstrapDeadline(len(ids)))
		rec.end(sp)
		if err != nil {
			return 0, err
		}
		if got := proto.NumClustered(); got != len(ids) {
			return 0, fmt.Errorf("decomposed build clustered %d of %d nodes", got, len(ids))
		}
		net.OnDisconnect = proto.OnDisconnect
	} else {
		sp = rec.begin("topology.bootstrap")
		proto := topology.NewRandom(net, dns, 0)
		err := proto.Bootstrap(ctx, ids)
		rec.end(sp)
		if err != nil {
			return 0, err
		}
		net.OnDisconnect = proto.OnDisconnect
	}

	sp = rec.begin("measure.attach")
	var best p2p.NodeID
	bestPeers := -1
	for _, id := range net.NodeIDs() {
		if node, ok := net.Node(id); ok && node.NumPeers() > bestPeers {
			best, bestPeers = id, node.NumPeers()
		}
	}
	_, err = measure.NewMeasuringNode(net, best)
	rec.end(sp)
	return time.Since(start), err
}

// ---- fleet_replay ----

// csvPoints is the CDF resolution every figure frontend of the repository
// exports at.
const csvPoints = 101

type fleetReplay struct {
	campaigns []experiment.CampaignSpec
	outDir    string
	shards    [][][]byte // [campaign][replication] wire form
	wantCSV   []byte     // the locally merged figure
}

func figureCSV(names []string, dists []measure.Distribution) ([]byte, error) {
	var buf bytes.Buffer
	err := measure.WriteCDFCSV(&buf, names, dists, csvPoints)
	return buf.Bytes(), err
}

func (w *fleetReplay) setUp(ctx context.Context) error {
	w.shards = make([][][]byte, len(w.campaigns))
	names := make([]string, len(w.campaigns))
	dists := make([]measure.Distribution, len(w.campaigns))
	for ci, c := range w.campaigns {
		results := make([]measure.CampaignResult, c.Replications)
		for rep := range results {
			r, err := experiment.RunUnit(ctx, c, rep)
			if err != nil {
				return err
			}
			enc, err := measure.EncodeCampaignResult(r)
			if err != nil {
				return err
			}
			results[rep] = r
			w.shards[ci] = append(w.shards[ci], enc)
		}
		merged, err := measure.MergeCampaignResults(results...)
		if err != nil {
			return err
		}
		names[ci], dists[ci] = c.Name, merged.Dist
	}
	var err error
	w.wantCSV, err = figureCSV(names, dists)
	return err
}

func (w *fleetReplay) units() int {
	n := 0
	for _, c := range w.campaigns {
		n += c.Replications
	}
	return n
}

// ops is one lease-and-commit per unit, then the merge.
func (w *fleetReplay) ops() int { return w.units() + 1 }

func (w *fleetReplay) prepare(_ context.Context, rec *recorder) (pass, error) {
	sp := rec.begin("fleet.start")
	defer rec.end(sp)
	dir, err := os.MkdirTemp(w.outDir, "spool-")
	if err != nil {
		return nil, err
	}
	coord, err := fleet.NewCoordinator(w.campaigns, fleet.CoordinatorConfig{SpoolDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := httptest.NewServer(coord)
	return &fleetPass{w: w, dir: dir, coord: coord, srv: srv, client: fleet.NewClient(srv.URL, srv.Client())}, nil
}

type fleetPass struct {
	w        *fleetReplay
	dir      string
	coord    *fleet.Coordinator
	srv      *httptest.Server
	client   *fleet.Client
	commits  int
	rejected int
	outcomes []experiment.CampaignOutcome
}

func (p *fleetPass) op(ctx context.Context, i int, rec *recorder) (digest, error) {
	if i == p.w.units() {
		return p.merge(rec)
	}
	sp := rec.begin("fleet.lease")
	lr, err := p.client.Lease(ctx, "bench")
	rec.end(sp)
	if err != nil {
		return digest{}, err
	}
	l := lr.Lease
	if lr.Status != fleet.LeaseGranted || l == nil {
		return digest{}, fmt.Errorf("lease %d: status %q", i, lr.Status)
	}
	if l.Campaign >= len(p.w.shards) || l.Replication >= len(p.w.shards[l.Campaign]) {
		return digest{}, fmt.Errorf("lease %d names unknown unit (%d, %d)", i, l.Campaign, l.Replication)
	}
	sp = rec.begin("fleet.commit")
	cr, err := p.client.Commit(ctx, fleet.CommitRequest{
		Worker: "bench", LeaseID: l.ID, Campaign: l.Campaign, Replication: l.Replication,
		Result: p.w.shards[l.Campaign][l.Replication],
	})
	rec.end(sp)
	if err != nil {
		return digest{}, err
	}
	if !cr.Accepted {
		p.rejected++
		return digest{}, fmt.Errorf("commit of unit (%d, %d) rejected: %s", l.Campaign, l.Replication, cr.Reason)
	}
	p.commits++
	return sha256.Sum256([]byte(fmt.Sprint(l.Campaign, l.Replication, l.Seed))), nil
}

func (p *fleetPass) merge(rec *recorder) (digest, error) {
	sp := rec.begin("fleet.outcomes")
	outs, err := p.coord.Outcomes()
	rec.end(sp)
	if err != nil {
		return digest{}, err
	}
	p.outcomes = outs
	names := make([]string, len(outs))
	dists := make([]measure.Distribution, len(outs))
	for i, o := range outs {
		names[i], dists[i] = o.Name, o.Result.Dist
	}
	sp = rec.begin("measure.csv")
	csv, err := figureCSV(names, dists)
	rec.end(sp)
	if err != nil {
		return digest{}, err
	}
	if !bytes.Equal(csv, p.w.wantCSV) {
		return digest{}, errors.New("fleet figure CSV differs from the locally merged CSV")
	}
	return sha256.Sum256(csv), nil
}

func (p *fleetPass) counts() map[string]float64 {
	c := map[string]float64{
		"sim.events":     0,
		"fleet.commits":  float64(p.commits),
		"fleet.rejected": float64(p.rejected),
	}
	for _, campaign := range p.w.shards {
		for _, s := range campaign {
			c["measure.shard_kb"] += float64(len(s)) / 1024
		}
	}
	for i, o := range p.outcomes {
		c["measure.samples"] += float64(o.Result.Dist.N())
		c["measure.lost"] += float64(o.Result.Lost)
		if i < len(seriesSuffix) {
			dtCounts(c, seriesSuffix[i], o.Result.Dist)
		}
	}
	return c
}

func (p *fleetPass) close() {
	p.srv.Close()
	os.RemoveAll(p.dir)
}

// layers times the codec on the stored shards, outside HTTP and spool,
// and reads the fleet calls' own times from the traced pass.
func (w *fleetReplay) layers(_ context.Context, name string, rec *recorder, _ baseline) (map[string]float64, error) {
	rec.at(name, -1)
	results := make([][]measure.CampaignResult, len(w.shards))
	err := rec.in("measure.decode", func() error {
		for ci, campaign := range w.shards {
			for _, s := range campaign {
				r, err := measure.DecodeCampaignResult(s)
				if err != nil {
					return err
				}
				results[ci] = append(results[ci], r)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = rec.in("measure.merge", func() error {
		for _, rs := range results {
			if _, err := measure.MergeCampaignResults(rs...); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = rec.in("measure.encode", func() error {
		for _, rs := range results {
			for _, r := range rs {
				if _, err := measure.EncodeCampaignResult(r); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p50 := func(span string) float64 { return median(durationsNS(rec.durations(name, span))) }
	return map[string]float64{
		"measure.decode_ms": ms(rec.total(name, "measure.decode")),
		"measure.merge_ms":  ms(rec.total(name, "measure.merge")),
		"measure.encode_ms": ms(rec.total(name, "measure.encode")),
		"measure.csv_ms":    ms(rec.total(name, "measure.csv")),
		"fleet.lease_us":    p50("fleet.lease") / 1e3,
		"fleet.commit_ms":   p50("fleet.commit") / 1e6,
		"fleet.outcomes_ms": ms(rec.total(name, "fleet.outcomes")),
	}, nil
}

// injectQuantiles reports the median and 90th percentile of the fastest
// time of each injection, in host microseconds.
func injectQuantiles(fastest []int64) (p50, p90 float64) {
	us := make([]float64, len(fastest))
	for i, ns := range fastest {
		us[i] = float64(ns) / 1e3
	}
	sort.Float64s(us)
	return quantile(us, 0.5), quantile(us, 0.9)
}
