package experiment

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/obs"
)

// Options tune experiment scale. Zero values take paper-faithful defaults
// scaled down to laptop size (use cmd/bcbpt-sim flags for full scale).
type Options struct {
	// Nodes is the network size (default 1000; paper ~5000).
	Nodes int
	// Runs is the number of measurement injections per replication
	// (default 200; paper ~1000).
	Runs int
	// Seed roots all randomness (default 1).
	Seed int64
	// Deadline bounds each measurement run (default 2 minutes virtual).
	Deadline time.Duration
	// ChurnOn enables join/leave dynamics during measurement, as in the
	// paper's simulator.
	ChurnOn bool
	// Workers bounds campaign-engine concurrency (default GOMAXPROCS).
	Workers int
	// BuildWorkers bounds the sharding concurrency inside each network
	// build (see Spec.BuildWorkers; <= 0 means GOMAXPROCS). Results are
	// identical for any value.
	BuildWorkers int
	// Replications fans each campaign over this many independently
	// seeded networks (default 1); samples pool across replications.
	Replications int
	// Trace, when non-empty, exports a sim-time event trace of a sweep's
	// first campaign (replication 0) as Chrome trace_event JSON at this
	// path (see CampaignSpec.Trace).
	// The sweeps — the figures and the variance grid — honour it; Overhead
	// does not. Purely observational: output is byte-identical with it on
	// or off.
	Trace string
	// Metrics and Clock configure the campaign engine's telemetry (see
	// Runner.Metrics and Runner.Clock). Both optional and observational.
	Metrics *obs.Registry
	Clock   func() int64
}

// RegisterFlags binds the flags that set a sweep's scale to o's fields,
// with the same defaults withDefaults fills in: -nodes, -runs, -seed,
// -replications, -deadline and -build-workers. bcbpt-sim and bcbpt-fleet
// both register them here, so the two frontends define identical sweeps.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&o.Nodes, "nodes", 1000, "network size (paper: ~5000)")
	fs.IntVar(&o.Runs, "runs", 200, "measurement injections per replication (paper: ~1000)")
	fs.Int64Var(&o.Seed, "seed", 1, "root random seed")
	fs.IntVar(&o.Replications, "replications", 1, "independently seeded networks per series (samples pool)")
	fs.DurationVar(&o.Deadline, "deadline", 2*time.Minute, "virtual-time deadline per run")
	fs.IntVar(&o.BuildWorkers, "build-workers", 0, "worker pool size inside each network build (0 = GOMAXPROCS); any value builds an identical network")
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 1000
	}
	if o.Runs == 0 {
		o.Runs = 200
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Deadline == 0 {
		o.Deadline = 2 * time.Minute
	}
	if o.Replications == 0 {
		o.Replications = 1
	}
	return o
}

// runner returns the campaign engine configured by the options.
func (o Options) runner() *Runner {
	r := NewRunner(o.Workers)
	r.Metrics = o.Metrics
	r.Clock = o.Clock
	return r
}

// sweep runs the campaigns on that engine, the first of them traced when
// o.Trace is set: one canonical trace per sweep, the first campaign's
// replication 0 — tracing every series would race for the file.
func (o Options) sweep(ctx context.Context, campaigns []CampaignSpec) ([]CampaignOutcome, error) {
	if o.Trace != "" && len(campaigns) > 0 {
		campaigns[0].Trace = o.Trace
	}
	return o.runner().Sweep(ctx, campaigns)
}

// campaign assembles a CampaignSpec for one series under the shared
// options.
func (o Options) campaign(name string, spec Spec) CampaignSpec {
	return CampaignSpec{
		Name:         name,
		Spec:         spec,
		Replications: o.Replications,
		Runs:         o.Runs,
		Deadline:     o.Deadline,
	}
}

// FigureCSVPoints is the canonical CDF resolution of exported figure
// CSVs. Every frontend (bcbpt-sim, bcbpt-fleet) writes through
// FigureResult.WriteCSV, so outputs of the same sweep diff byte for byte
// — the contract the fleet CI smoke asserts.
const FigureCSVPoints = 101

// WriteCSV writes the figure's CDF series in the canonical export
// encoding (see measure.WriteCDFCSV).
func (f FigureResult) WriteCSV(w io.Writer) error {
	names := make([]string, len(f.Series))
	dists := make([]measure.Distribution, len(f.Series))
	for i, s := range f.Series {
		names[i] = s.Name
		dists[i] = s.Dist
	}
	return measure.WriteCDFCSV(w, names, dists, FigureCSVPoints)
}

// WriteCSVFile creates path and writes WriteCSV's bytes to it, returning
// the first error of creating, writing, flushing or closing the file — a
// full disk may only say so at close — so a caller announces the file only
// once it has landed.
func (f FigureResult) WriteCSVFile(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.WriteCSV(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// Series is one named Δt distribution (a curve of Fig. 3/4).
type Series struct {
	Name string
	Dist measure.Distribution
	// Lost counts connection-runs that missed the deadline.
	Lost int
}

// FigureResult aggregates the series of one figure.
type FigureResult struct {
	Title  string
	Series []Series
}

// String renders the figure as a quantile table plus summary lines.
func (f FigureResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", f.Title)
	names := make([]string, len(f.Series))
	dists := make([]measure.Distribution, len(f.Series))
	for i, s := range f.Series {
		names[i] = s.Name
		dists[i] = s.Dist
	}
	b.WriteString(measure.ASCIICDF(names, dists, 11))
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-14s %s (lost %d)\n", s.Name, s.Dist, s.Lost)
	}
	return b.String()
}

// buildSpec assembles a Spec for one protocol under the shared options.
func buildSpec(o Options, proto ProtocolKind, bcbpt core.Config) Spec {
	spec := Spec{
		Nodes:        o.Nodes,
		Seed:         o.Seed,
		Protocol:     proto,
		BCBPT:        bcbpt,
		BuildWorkers: o.BuildWorkers,
	}
	if o.ChurnOn {
		m := defaultChurn(o.Nodes)
		spec.Churn = &m
	}
	return spec
}

// sweepFigure runs the campaigns through the engine and assembles the
// outcomes, in spec order, into a figure. A cancelled sweep returns the
// partial figure together with the ErrPartialResult-wrapping error, so
// callers can render what completed.
func sweepFigure(ctx context.Context, o Options, title string, campaigns []CampaignSpec) (FigureResult, error) {
	outcomes, err := o.sweep(ctx, campaigns)
	if err != nil && !errors.Is(err, ErrPartialResult) {
		return FigureResult{}, err
	}
	out := FigureResult{Title: title}
	for _, oc := range outcomes {
		if oc.Replications == 0 {
			// Cancelled before any replication finished: an all-zero
			// series would masquerade as measured data.
			continue
		}
		out.Series = append(out.Series, Series{Name: oc.Name, Dist: oc.Result.Dist, Lost: oc.Result.Lost})
	}
	return out, err
}

// Figure3Campaigns returns the campaign list behind Fig. 3 — the three
// protocol series under the shared options. Exported so sweep frontends
// other than Figure3Ctx (the fleet coordinator, a saved sweep file) run
// exactly the same experiment definition.
func Figure3Campaigns(o Options) []CampaignSpec {
	o = o.withDefaults()
	bcbptCfg := core.DefaultConfig()
	bcbptCfg.Threshold = 25 * time.Millisecond

	var campaigns []CampaignSpec
	for _, p := range []struct {
		name  string
		kind  ProtocolKind
		bcbpt core.Config
	}{
		{"bitcoin", ProtoBitcoin, core.Config{}},
		{"lbc", ProtoLBC, core.Config{}},
		{"bcbpt-25ms", ProtoBCBPT, bcbptCfg},
	} {
		campaigns = append(campaigns, o.campaign(p.name, buildSpec(o, p.kind, p.bcbpt)))
	}
	return campaigns
}

// Figure3Title is the figure heading shared by every Fig. 3 frontend.
const Figure3Title = "Fig. 3 — Δt(m,n) distribution: Bitcoin vs LBC vs BCBPT (dt=25ms)"

// Figure3Ctx regenerates Fig. 3: the Δt(m,n) distribution of the simulated
// Bitcoin protocol vs LBC vs BCBPT at dt = 25ms. The expected shape (the
// paper's headline result): BCBPT's distribution sits left of LBC's,
// which sits left of Bitcoin's. The three series (and their replications)
// are scheduled on the campaign engine as one work queue.
func Figure3Ctx(ctx context.Context, o Options) (FigureResult, error) {
	o = o.withDefaults()
	return sweepFigure(ctx, o, Figure3Title, Figure3Campaigns(o))
}

// Figure4Ctx regenerates Fig. 4: BCBPT Δt distributions at the paper's
// thresholds, 30, 50 and 100 ms. Expected shape: smaller dt → tighter
// distribution ("less distance threshold performs less variance of
// delays", §V.C).
func Figure4Ctx(ctx context.Context, o Options) (FigureResult, error) {
	return ThresholdSweepCtx(ctx, o, Figure4Thresholds())
}

// ThresholdSweepCampaigns returns the campaign list of a threshold sweep:
// one BCBPT series per dt under the shared options. Exported for the same
// reason as Figure3Campaigns.
func ThresholdSweepCampaigns(o Options, thresholds []time.Duration) []CampaignSpec {
	o = o.withDefaults()
	var campaigns []CampaignSpec
	for _, dt := range thresholds {
		cfg := core.DefaultConfig()
		cfg.Threshold = dt
		campaigns = append(campaigns, o.campaign(fmt.Sprintf("bcbpt-%v", dt), buildSpec(o, ProtoBCBPT, cfg)))
	}
	return campaigns
}

// Figure4Thresholds is the paper's canonical Fig. 4 threshold set.
func Figure4Thresholds() []time.Duration {
	return []time.Duration{30 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond}
}

// Figure4Title is the figure heading shared by every Fig. 4 frontend.
const Figure4Title = "Fig. 4 — BCBPT Δt(m,n) distribution by threshold dt"

// ThresholdSweepCtx generalises Fig. 4 to any threshold set, scheduled as
// one engine work queue.
func ThresholdSweepCtx(ctx context.Context, o Options, thresholds []time.Duration) (FigureResult, error) {
	o = o.withDefaults()
	return sweepFigure(ctx, o, Figure4Title, ThresholdSweepCampaigns(o, thresholds))
}

// VariancePoint is one (connections, spread) sample of the §V.C claim.
type VariancePoint struct {
	Protocol    string
	Connections int
	Std         time.Duration
	// IQR is the robust spread beside Std: p75 − p25, which one outlying
	// sample does not move.
	IQR  time.Duration
	Mean time.Duration
}

// VarianceResult is the connection-count sweep.
type VarianceResult struct {
	Points []VariancePoint
}

// String renders the sweep as a table.
func (v VarianceResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== §V.C — Δt spread vs measuring-node connections ==\n")
	fmt.Fprintf(&b, "%-12s %12s %14s %14s %14s\n", "protocol", "connections", "std(Δt)", "iqr(Δt)", "mean(Δt)")
	pts := append([]VariancePoint(nil), v.Points...)
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Protocol != pts[j].Protocol {
			return pts[i].Protocol < pts[j].Protocol
		}
		return pts[i].Connections < pts[j].Connections
	})
	for _, p := range pts {
		fmt.Fprintf(&b, "%-12s %12d %14v %14v %14v\n",
			p.Protocol, p.Connections, p.Std.Round(time.Microsecond), p.IQR.Round(time.Microsecond), p.Mean.Round(time.Microsecond))
	}
	return b.String()
}

// VarianceCampaigns returns the campaign list of the connection-count
// sweep: one campaign per protocol × measuring-node connection count
// (default 8 to 64). Exported for the same reason as Figure3Campaigns.
func VarianceCampaigns(o Options, connections []int) []CampaignSpec {
	o = o.withDefaults()
	if len(connections) == 0 {
		connections = []int{8, 16, 24, 32, 48, 64}
	}
	var campaigns []CampaignSpec
	for _, proto := range []ProtocolKind{ProtoBitcoin, ProtoBCBPT} {
		for _, k := range connections {
			spec := buildSpec(o, proto, core.DefaultConfig())
			spec.MeasuringConnections = k
			campaigns = append(campaigns, o.campaign(fmt.Sprintf("%s/%d", proto, k), spec))
		}
	}
	return campaigns
}

// VarianceVsConnectionsCtx reproduces the §V.C observation: "the Bitcoin
// protocol performs variances of delays that grow linearly with the
// number of connected nodes, whereas BCBPT maintains lower variances of
// delays regardless of the number of connected nodes." The full protocol ×
// connection-count grid is scheduled as one engine work queue.
func VarianceVsConnectionsCtx(ctx context.Context, o Options, connections []int) (VarianceResult, error) {
	o = o.withDefaults()
	campaigns := VarianceCampaigns(o, connections)
	outcomes, err := o.sweep(ctx, campaigns)
	if err != nil && !errors.Is(err, ErrPartialResult) {
		return VarianceResult{}, fmt.Errorf("experiment: variance sweep: %w", err)
	}
	var out VarianceResult
	for i, oc := range outcomes {
		if oc.Replications == 0 {
			continue // cancelled before this grid point produced data
		}
		spec := campaigns[i].Spec
		out.Points = append(out.Points, VariancePoint{
			Protocol:    string(spec.Protocol),
			Connections: spec.MeasuringConnections,
			Std:         oc.Result.Dist.Std(),
			IQR:         oc.Result.Dist.IQR(),
			Mean:        oc.Result.Dist.Mean(),
		})
	}
	return out, err
}

// OverheadResult quantifies the measurement overhead of §IV.A.
type OverheadResult struct {
	Protocol          string
	Nodes             int
	BootstrapMsgs     uint64
	BootstrapBytes    uint64
	PingMsgs          uint64
	PingBytes         uint64
	PingMsgsPerNode   float64
	CampaignMsgs      uint64
	CampaignTxTraffic uint64
}

// String renders the overhead comparison.
func (o OverheadResult) String() string {
	return fmt.Sprintf("%-10s nodes=%d bootstrap=%d msgs (%d B), ping=%d msgs (%d B, %.1f/node), campaign=%d msgs",
		o.Protocol, o.Nodes, o.BootstrapMsgs, o.BootstrapBytes, o.PingMsgs, o.PingBytes,
		o.PingMsgsPerNode, o.CampaignMsgs)
}

// OverheadCtx measures the extra traffic BCBPT's ping measurement adds
// relative to the random baseline — the cost the paper defers to future
// work ("this overhead will be evaluated in our future work", §IV.A).
// The two protocol builds run concurrently on the engine's pool. Each unit
// needs its own network handle for before/after traffic stats, so it runs
// on the engine's unit pool (runUnits, in index order) rather than through
// the campaign sweep. On cancellation it returns the units that completed
// together with an error wrapping ErrPartialResult and ctx.Err(), matching
// Sweep.
func OverheadCtx(ctx context.Context, o Options) ([]OverheadResult, error) {
	o = o.withDefaults()
	protos := []ProtocolKind{ProtoBitcoin, ProtoBCBPT}
	slots := make([]OverheadResult, len(protos))
	completed, unitErr := o.runner().runUnits(ctx, []int{0, 1}, func(ctx context.Context, i int) error {
		proto := protos[i]
		spec := buildSpec(o, proto, core.DefaultConfig())
		b, err := Build(ctx, spec)
		if err != nil {
			return err
		}
		boot := b.Net.Stats()
		pingMsgs, pingBytes := boot.PingTraffic()
		res := OverheadResult{
			Protocol:        string(proto),
			Nodes:           o.Nodes,
			BootstrapMsgs:   boot.TotalMessages(),
			BootstrapBytes:  boot.TotalBytes(),
			PingMsgs:        pingMsgs,
			PingBytes:       pingBytes,
			PingMsgsPerNode: float64(pingMsgs) / float64(o.Nodes),
		}
		if _, err := b.CampaignContext(ctx, o.Runs, o.Deadline); err != nil {
			return err
		}
		delta := b.Net.Stats().Sub(boot)
		res.CampaignMsgs = delta.TotalMessages()
		res.CampaignTxTraffic = delta.TotalBytes()
		slots[i] = res
		return nil
	})
	var out []OverheadResult
	for i, done := range completed {
		if done {
			out = append(out, slots[i])
		}
	}
	if unitErr != nil {
		return out, unitErr
	}
	return out, partialError(ctx, len(out) == len(protos))
}
