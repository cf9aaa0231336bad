// Command bcbpt-sim runs the paper's simulation experiments and prints
// the regenerated figures.
//
// Usage:
//
//	bcbpt-sim -experiment figure3 -nodes 5000 -runs 1000
//	bcbpt-sim -experiment figure4
//	bcbpt-sim -experiment variance-connections
//	bcbpt-sim -experiment overhead
//	bcbpt-sim -experiment eclipse -adversaries 32
//	bcbpt-sim -experiment partition
//	bcbpt-sim -experiment crawl
//
// The defaults are laptop-scale (1000 nodes, 200 runs); pass -nodes 5000
// -runs 1000 for the paper's full configuration.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/p2p"
	"repro/internal/topology"
)

func main() {
	var o experiment.Options
	o.RegisterFlags(flag.CommandLine)
	flag.BoolVar(&o.ChurnOn, "churn", false, "enable join/leave churn during measurement")
	flag.IntVar(&o.Workers, "workers", runtime.GOMAXPROCS(0), "campaign-engine worker pool size")
	flag.StringVar(&o.Trace, "trace", "", "export a sim-time event trace of the first campaign (replication 0) as Chrome trace_event JSON to this file; open in Perfetto (ui.perfetto.dev)")
	var (
		exp         = flag.String("experiment", "figure3", "experiment: "+experimentNames())
		threshold   = flag.Duration("dt", 25*time.Millisecond, "BCBPT latency threshold")
		adversaries = flag.Int("adversaries", 16, "eclipse adversary budget (swept at 1/4, 1/2, 1 and 2 times this)")
		csvPath     = flag.String("csv", "", "write figure CDF data to this CSV file, and what ran to <file>.manifest.json")
		timeout     = flag.Duration("timeout", 0, "wall-clock budget for the whole experiment (0 = none)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file (diagnose hot-path regressions from a release binary)")
		memProfile  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	nameReaders(flag.CommandLine)
	flag.Parse()
	err := o.CheckFlags()
	if err == nil {
		var set []string
		flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
		err = checkFlags(*exp, set)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcbpt-sim: %v\n", err)
		os.Exit(1)
	}
	// The engine may not read the wall clock itself; with one injected it
	// times every unit's build and run (printPhaseSplit).
	o.Totals = new(experiment.SweepTotals)
	o.Clock = func() int64 { return time.Now().UnixNano() }

	// Profiles flush explicitly before every exit path: main leaves via
	// os.Exit, which would skip deferred writers.
	flushProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcbpt-sim: %v\n", err)
		os.Exit(1)
	}

	// Ctrl-C / SIGTERM cancels the engine cooperatively: completed
	// replications are still merged and reported as partial results, and
	// network builds in progress stop at their next context poll. Once
	// the first signal has cancelled ctx, stop() restores default signal
	// handling so a second Ctrl-C force-kills — the phases that still do
	// not consult ctx (attack settling, doublespend/forks measurement)
	// must stay killable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sigCtx := ctx // the signal ctx only — a -timeout expiry must not uninstall the handler
	go func() {
		<-sigCtx.Done()
		stop()
	}()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	runErr := run(ctx, *exp, o, *threshold, *adversaries, *csvPath)
	flushProfiles()
	if runErr != nil {
		if errors.Is(runErr, experiment.ErrPartialResult) {
			fmt.Fprintf(os.Stderr, "bcbpt-sim: interrupted, results above are partial (%v)\n", runErr)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "bcbpt-sim: %v\n", runErr)
		os.Exit(1)
	}
}

// startProfiles starts a CPU profile and/or arms a heap-profile write,
// returning a flush function to call before exit. Both paths are for
// diagnosing hot-path regressions from a release binary without a test
// harness: -cpuprofile for dispatch throughput, -memprofile for
// allocation regressions (the steady-state event kernel and flood path
// are designed to allocate nothing).
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Fprintf(os.Stderr, "(CPU profile written to %s)\n", cpuPath)
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bcbpt-sim: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // profile live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "bcbpt-sim: memprofile: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "(heap profile written to %s)\n", memPath)
		}
	}, nil
}

func run(ctx context.Context, exp string, o experiment.Options, dt time.Duration, adversaries int, csvPath string) error {
	start := time.Now()
	campaigns := engineCampaigns(exp, o)
	defer func() {
		fmt.Printf("\n(wall time %v)\n", time.Since(start).Round(time.Millisecond))
		printPhaseSplit(newRunManifest(exp, o, campaigns))
		printTraceLoss(o.Totals.All())
	}()

	switch exp {
	case "figure3", "figure4":
		figure := experiment.Figure3Ctx
		if exp == "figure4" {
			figure = experiment.Figure4Ctx
		}
		fig, err := figure(ctx, o)
		if err := printFigure(fig, err, csvPath, newRunManifest(exp, o, campaigns)); err != nil {
			return err
		}
	case "variance-connections":
		res, err := experiment.VarianceVsConnectionsCtx(ctx, o, nil)
		if len(res.Points) > 0 {
			fmt.Println(res)
		}
		if err != nil {
			return err
		}
	case "overhead":
		results, err := experiment.OverheadCtx(ctx, o)
		if len(results) > 0 {
			fmt.Println("== §IV.A — measurement overhead ==")
			for _, r := range results {
				fmt.Println(r)
			}
		}
		if err != nil {
			return err
		}
	case "eclipse":
		return runEclipse(ctx, o, dt, adversaries)
	case "partition":
		return runPartition(ctx, o, dt)
	case "crawl":
		return runCrawl(ctx, o)
	case "doublespend":
		return runDoubleSpend(ctx, o, dt)
	case "forks":
		return runForks(ctx, o, dt)
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// engineCampaigns returns the campaign list an experiment sweeps through
// the campaign engine — built by the same constructor the experiment runs
// — or nil for an experiment that does not.
func engineCampaigns(exp string, o experiment.Options) []experiment.CampaignSpec {
	switch exp {
	case "figure3":
		return experiment.Figure3Campaigns(o)
	case "figure4":
		return experiment.ThresholdSweepCampaigns(o, experiment.Figure4Thresholds())
	case "variance-connections":
		return experiment.VarianceCampaigns(o, nil)
	}
	return nil
}

// experiments lists every experiment with the flags it reads among those
// that change a run's result and that not every experiment reads
// (gatedFlags). Every experiment reads -nodes and -seed; -workers, -timeout
// and the profile flags change no result.
var experiments = []struct {
	name  string
	reads []string
}{
	{"figure3", []string{"runs", "replications", "deadline", "churn", "csv", "trace"}},
	{"figure4", []string{"runs", "replications", "deadline", "churn", "csv", "trace"}},
	{"variance-connections", []string{"runs", "replications", "deadline", "churn", "trace"}},
	{"overhead", []string{"runs", "deadline", "churn"}},
	{"eclipse", []string{"dt", "adversaries"}},
	{"partition", nil},
	{"crawl", nil},
	{"doublespend", []string{"deadline", "dt"}},
	{"forks", []string{"dt"}},
}

// gatedFlags are the flags checkFlags refuses where the experiment does not
// read them.
var gatedFlags = []string{"runs", "replications", "deadline", "churn", "dt", "adversaries", "csv", "trace"}

// experimentNames lists the experiments for -experiment's help text.
func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, "|")
}

// readers returns the experiments that read the named flag.
func readers(flagName string) []string {
	var names []string
	for _, e := range experiments {
		if slices.Contains(e.reads, flagName) {
			names = append(names, e.name)
		}
	}
	return names
}

// nameReaders appends to each gated flag's help text the experiments that
// read it.
func nameReaders(fs *flag.FlagSet) {
	for _, name := range gatedFlags {
		f := fs.Lookup(name)
		f.Usage += " (read by " + strings.Join(readers(name), ", ") + ")"
	}
}

// checkFlags refuses an unknown experiment, and any gated flag among the
// flags set on the command line that the experiment does not read: a run
// that dropped it would print what the run without it prints.
func checkFlags(exp string, set []string) error {
	for _, e := range experiments {
		if e.name != exp {
			continue
		}
		for _, name := range set {
			if slices.Contains(gatedFlags, name) && !slices.Contains(e.reads, name) {
				return fmt.Errorf("-%s: experiment %q does not read it (read by %s)", name, exp, strings.Join(readers(name), ", "))
			}
		}
		return nil
	}
	return fmt.Errorf("unknown experiment %q (%s)", exp, experimentNames())
}

// runManifest is what a figure's CSV is written with (<csv>.manifest.json):
// the engine's deterministic account of the run (experiment.Manifest) plus
// what only this binary knows — the worker counts it resolved and the Go
// version and VCS revision it was built from.
type runManifest struct {
	experiment.Manifest
	Workers   int    `json:"workers"`
	GoVersion string `json:"go_version"`
	Revision  string `json:"vcs_revision"`
	Modified  bool   `json:"vcs_modified"`
}

// newRunManifest assembles the manifest of a finished (or interrupted) run
// of exp: experiment.NewManifest's part, then this binary's.
func newRunManifest(exp string, o experiment.Options, campaigns []experiment.CampaignSpec) runManifest {
	m := runManifest{
		Manifest:  experiment.NewManifest(exp, o, campaigns),
		Workers:   o.Workers,
		GoVersion: runtime.Version(),
	}
	if m.Workers <= 0 {
		m.Workers = runtime.GOMAXPROCS(0)
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value == "true"
			}
		}
	}
	return m
}

// printPhaseSplit prints, series by series in the order the engine handed
// their units out, where the wall time of the units went — network build
// against measurement run, summed over each series' units — and how many
// scheduler events they dispatched against the estimate they were ordered
// by, under the names bench/ reports the same by, so a user's run and a
// benchmark row compare directly (events far below the message count: the
// redundant INVs travelled as tickets; a -trace replication runs every
// message as an event). With several workers the units overlap and the sums
// exceed the wall time above. Experiments that do not go through the
// campaign engine print nothing.
func printPhaseSplit(m runManifest) {
	byDispatch := slices.Clone(m.Campaigns)
	slices.SortStableFunc(byDispatch, func(a, b experiment.CampaignManifest) int {
		return cmp.Compare(a.Dispatch[0], b.Dispatch[0])
	})
	for _, c := range byDispatch {
		if c.Timed == 0 {
			continue // no unit of it ran
		}
		fmt.Printf("(wall time of %d unit(s): experiment.build_s.%s %.3f s, experiment.run_s.%s %.3f s, sim.events.%s %d, est.events.%s %d)\n",
			c.Timed, c.Name, c.BuildSeconds, c.Name, c.RunSeconds, c.Name, c.Events, c.Name, c.ExpectedEvents)
	}
}

// printTraceLoss says what a -trace run lost: the ring keeps the newest
// events and counts the ones it overwrote, which the export alone says only
// in its JSON.
func printTraceLoss(t experiment.UnitTotals) {
	if t.TraceDropped > 0 {
		fmt.Fprintf(os.Stderr, "trace: kept %d of %d events (ring overwrote %d)\n",
			t.TraceKept, uint64(t.TraceKept)+t.TraceDropped, t.TraceDropped)
	}
}

// printFigure renders a figure (partial figures included — an interrupted
// sweep still reports the replications that completed) and propagates the
// sweep error so main can flag partial output. A CSV is written with the
// run's manifest beside it.
func printFigure(fig experiment.FigureResult, sweepErr error, csvPath string, m runManifest) error {
	if len(fig.Series) > 0 {
		fmt.Println(fig)
		if csvPath != "" {
			if err := fig.WriteCSVFile(csvPath); err != nil {
				// Join rather than mask: a failed CSV write must not hide
				// that the figure above is partial (exit-code-2 signal).
				return errors.Join(err, sweepErr)
			}
			fmt.Printf("(CDF data written to %s)\n", csvPath)
			path := csvPath + ".manifest.json"
			if err := writeManifest(path, m); err != nil {
				return errors.Join(err, sweepErr)
			}
			fmt.Printf("(manifest written to %s)\n", path)
		}
	}
	return sweepErr
}

// writeManifest writes m as indented JSON at path.
func writeManifest(path string, m runManifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runDoubleSpend races conflicting transactions under each protocol.
func runDoubleSpend(ctx context.Context, o experiment.Options, dt time.Duration) error {
	fmt.Println("== extension — double-spend race (the paper's motivating attack) ==")
	offsets := []time.Duration{0, 50 * time.Millisecond, 150 * time.Millisecond, 500 * time.Millisecond, time.Second}
	for _, proto := range []experiment.ProtocolKind{experiment.ProtoBitcoin, experiment.ProtoBCBPT} {
		cfg := core.DefaultConfig()
		cfg.Threshold = dt
		res, err := experiment.DoubleSpend(ctx, experiment.DoubleSpendSpec{
			Nodes:    o.Nodes,
			Seed:     o.Seed,
			Protocol: proto,
			BCBPT:    cfg,
			Offsets:  offsets,
			Trials:   5,
			Deadline: o.Deadline,
		})
		if err != nil {
			return err
		}
		fmt.Println(res)
	}
	return nil
}

// runForks races miners under each protocol and reports fork rates.
func runForks(ctx context.Context, o experiment.Options, dt time.Duration) error {
	fmt.Println("== extension — fork rate vs protocol (ref [9] metric) ==")
	for _, proto := range []experiment.ProtocolKind{experiment.ProtoBitcoin, experiment.ProtoLBC, experiment.ProtoBCBPT} {
		cfg := core.DefaultConfig()
		cfg.Threshold = dt
		res, err := experiment.ForkRace(ctx, experiment.ForkSpec{
			Nodes:         o.Nodes,
			Seed:          o.Seed,
			Protocol:      proto,
			BCBPT:         cfg,
			Miners:        o.Nodes / 20,
			Blocks:        150,
			BlockInterval: time.Second,
			BlockTxs:      100,
		})
		if err != nil {
			return err
		}
		fmt.Println(res)
	}
	return nil
}

// buildBCBPT constructs a BCBPT network for the attack experiments; ctx
// cancels a build in progress.
func buildBCBPT(ctx context.Context, o experiment.Options, dt time.Duration) (*experiment.Built, error) {
	cfg := core.DefaultConfig()
	cfg.Threshold = dt
	return experiment.Build(ctx, experiment.Spec{
		Nodes:    o.Nodes,
		Seed:     o.Seed,
		Protocol: experiment.ProtoBCBPT,
		BCBPT:    cfg,
	})
}

func runEclipse(ctx context.Context, o experiment.Options, dt time.Duration, adversaries int) error {
	fmt.Printf("== §V.C — eclipse exposure (dt=%v) ==\n", dt)
	var rows []attack.SweepResult
	for _, budget := range []int{adversaries / 4, adversaries / 2, adversaries, adversaries * 2} {
		if budget < 1 {
			continue
		}
		const trials = 3
		row := attack.SweepResult{Adversaries: budget, Trials: trials}
		for trial := 0; trial < trials; trial++ {
			b, err := buildBCBPT(ctx, experiment.Options{
				Nodes: o.Nodes, Seed: o.Seed + int64(trial), Runs: o.Runs, Deadline: o.Deadline,
			}, dt)
			if err != nil {
				return err
			}
			victim := b.Measurer.ID()
			res, err := attack.Eclipse(b.Net, b.BCBPT, victim, attack.EclipseSpec{
				Adversaries:  budget,
				JitterMeters: 5_000,
				SettleTime:   5 * time.Minute,
			})
			if err != nil {
				return err
			}
			row.MeanBadFrac += res.Fraction() / trials
			if res.Eclipsed {
				row.Eclipses++
			}
		}
		rows = append(rows, row)
	}
	fmt.Println(attack.SweepTable(rows))
	return nil
}

func runPartition(ctx context.Context, o experiment.Options, dt time.Duration) error {
	fmt.Printf("== §V.C — partition exposure by threshold ==\n")
	fmt.Printf("%10s %10s %10s %10s %10s\n", "dt", "clusters", "minCut", "meanCut", "isolated")
	for _, th := range []time.Duration{15 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond} {
		b, err := buildBCBPT(ctx, o, th)
		if err != nil {
			return err
		}
		res, err := attack.Partition(b.Net, b.BCBPT)
		if err != nil {
			return err
		}
		fmt.Printf("%10v %10d %10d %10.1f %10d\n", th, res.Clusters, res.MinCut, res.MeanCut, res.Isolated)
	}
	return nil
}

func runCrawl(ctx context.Context, o experiment.Options) error {
	if o.Nodes < 3 {
		return fmt.Errorf("-nodes %d: need at least 3 nodes", o.Nodes)
	}
	fmt.Println("== crawler — ping/pong RTT census (methodology of refs [5],[12]) ==")
	pcfg := p2p.DefaultConfig()
	pcfg.Seed = o.Seed
	net, err := p2p.NewNetwork(pcfg)
	if err != nil {
		return err
	}
	placer := geo.DefaultPlacer()
	r := net.Streams().Stream("placement")
	ids := make([]p2p.NodeID, o.Nodes)
	for i := range ids {
		ids[i] = net.AddNode(placer.Place(r)).ID()
	}
	proto := topology.NewRandom(net, topology.NewDNSSeed(), 0)
	if err := proto.Bootstrap(ctx, ids); err != nil {
		return err
	}
	crawler, err := measure.NewCrawler(net, ids[0])
	if err != nil {
		return err
	}
	pingsPer := 4
	res, err := crawler.Crawl(pingsPer, 50*time.Millisecond, 10*time.Minute)
	if err != nil {
		return err
	}
	fmt.Printf("reachable nodes: %d\n", res.Reachable)
	fmt.Printf("ping/pong observations: %d\n", res.RTTs.N())
	fmt.Printf("RTT distribution: %s\n", res.RTTs)
	fmt.Println(measure.ASCIICDF([]string{"rtt"}, []measure.Distribution{res.RTTs}, 11))
	return nil
}
