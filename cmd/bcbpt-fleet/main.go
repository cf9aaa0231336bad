// Command bcbpt-fleet distributes campaign sweeps across machines.
//
// Usage:
//
//	# One coordinator (token-locked, shards spooled to disk)...
//	BCBPT_FLEET_TOKEN=s3cret bcbpt-fleet serve -listen :9777 -spool-dir /var/tmp/fleet \
//	    -experiment figure3 -nodes 5000 -runs 1000 -replications 16
//
//	# ...any number of workers, anywhere (they heartbeat their leases,
//	# so -lease-ttl never has to cover a slow unit's wall time):
//	BCBPT_FLEET_TOKEN=s3cret bcbpt-fleet work -coordinator http://coordinator:9777
//
//	# Custom scenarios beyond the presets: a JSON campaign file.
//	bcbpt-fleet serve -sweep sweep.json
//
//	# Single-machine demo/smoke: coordinator plus N in-process workers.
//	bcbpt-fleet run -experiment figure3 -fleet-workers 2
//
// The merged figure is bit-identical to a single-process
// `bcbpt-sim -experiment figure3` with the same sweep flags, regardless
// of worker count, failures, or commit order — see internal/fleet.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // -debug-addr serves the default mux's profiles
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/fleet"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch os.Args[1] {
	case "serve":
		err = cmdServe(ctx, os.Args[2:])
	case "work":
		err = cmdWork(ctx, os.Args[2:])
	case "run":
		err = cmdRun(ctx, os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "bcbpt-fleet: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcbpt-fleet: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `bcbpt-fleet — distribute campaign sweeps across machines

Subcommands:
  serve   host a sweep's work queue and print the merged figure
  work    pull and execute units from a coordinator
  run     coordinator + N in-process workers on one machine

Run "bcbpt-fleet <subcommand> -h" for flags.
`)
}

// sweepFlags are the experiment-definition flags shared by serve and run;
// they mirror bcbpt-sim so the two frontends define identical sweeps. A
// -sweep file overrides the preset flags entirely.
type sweepFlags struct {
	experiment   *string
	sweepFile    *string
	nodes        *int
	runs         *int
	seed         *int64
	replications *int
	deadline     *time.Duration
	buildWorkers *int
}

func addSweepFlags(fs *flag.FlagSet) *sweepFlags {
	return &sweepFlags{
		experiment:   fs.String("experiment", "figure3", "sweep to distribute: figure3|figure4"),
		sweepFile:    fs.String("sweep", "", "custom sweep definition (JSON campaign file; overrides -experiment and the preset flags)"),
		nodes:        fs.Int("nodes", 1000, "network size (paper: ~5000)"),
		runs:         fs.Int("runs", 200, "measurement injections per replication (paper: ~1000)"),
		seed:         fs.Int64("seed", 1, "root random seed"),
		replications: fs.Int("replications", 1, "independently seeded networks per series"),
		deadline:     fs.Duration("deadline", 2*time.Minute, "virtual-time deadline per run"),
		buildWorkers: fs.Int("build-workers", 0, "sharding inside each build (0 = GOMAXPROCS; any value is bit-identical)"),
	}
}

func (s *sweepFlags) options() experiment.Options {
	return experiment.Options{
		Nodes:        *s.nodes,
		Runs:         *s.runs,
		Seed:         *s.seed,
		Deadline:     *s.deadline,
		Replications: *s.replications,
		BuildWorkers: *s.buildWorkers,
	}
}

// campaigns resolves the flag set into the sweep definition and figure
// title — the same campaign builders bcbpt-sim's figures run on, which is
// what makes `bcbpt-fleet run` output diffable against `bcbpt-sim`. A
// -sweep JSON file (validated loudly: schema, shippability, buildable
// specs) replaces the presets and opens the fleet to arbitrary
// scenarios.
func (s *sweepFlags) campaigns() ([]experiment.CampaignSpec, string, error) {
	if *s.sweepFile != "" {
		sf, err := experiment.LoadSweepFile(*s.sweepFile)
		if err != nil {
			return nil, "", err
		}
		title := sf.Title
		if title == "" {
			title = fmt.Sprintf("Custom sweep — %s", filepath.Base(*s.sweepFile))
		}
		return sf.Campaigns, title, nil
	}
	o := s.options()
	switch *s.experiment {
	case "figure3":
		return experiment.Figure3Campaigns(o), experiment.Figure3Title, nil
	case "figure4":
		return experiment.ThresholdSweepCampaigns(o, experiment.Figure4Thresholds()), experiment.Figure4Title, nil
	default:
		return nil, "", fmt.Errorf("unknown experiment %q (want figure3 or figure4)", *s.experiment)
	}
}

// addTokenFlag declares -token; resolveToken applies the env-var
// fallback after parsing. Flags show up in `ps` output on shared
// machines, so BCBPT_FLEET_TOKEN is the preferred channel and the flag
// an explicit override — and the env value must never be the flag's
// *default*, or `-h` (and the usage dump ExitOnError prints on any
// mistyped flag) would echo the secret in cleartext.
func addTokenFlag(fs *flag.FlagSet) *string {
	return fs.String("token", "",
		`shared bearer token for the mutating endpoints (default $BCBPT_FLEET_TOKEN; -token "" forces an open coordinator)`)
}

// resolveToken returns the parsed -token value; only when the flag was
// not given at all does BCBPT_FLEET_TOKEN apply. An *explicit* -token ""
// must win over the env var, or an operator with the token exported in
// their profile could never run an open coordinator.
func resolveToken(fs *flag.FlagSet, flagValue string) string {
	explicit := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "token" {
			explicit = true
		}
	})
	if explicit {
		return flagValue
	}
	return os.Getenv("BCBPT_FLEET_TOKEN")
}

func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	sf := addSweepFlags(fs)
	listen := fs.String("listen", ":9777", "coordinator listen address")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "heartbeat window: a silent worker's unit reassigns after this (workers renew at TTL/3, so slow units are safe)")
	token := addTokenFlag(fs)
	spoolDir := fs.String("spool-dir", "", "spool committed shards to this directory instead of coordinator memory")
	csvPath := fs.String("csv", "", "write the merged figure's CDF data to this CSV file")
	linger := fs.Duration("linger", 10*time.Second, "keep serving this long after completion so workers observe \"done\" and exit cleanly")
	debugAddr := addDebugFlag(fs)
	fs.Parse(args)

	campaigns, title, err := sf.campaigns()
	if err != nil {
		return err
	}
	if err := startDebug(*debugAddr); err != nil {
		return err
	}
	coord, err := fleet.NewCoordinator(campaigns, fleet.CoordinatorConfig{
		LeaseTTL: *leaseTTL,
		Token:    resolveToken(fs, *token),
		SpoolDir: *spoolDir,
	})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("coordinator listening on %s (%d units; point workers at it with `bcbpt-fleet work -coordinator http://<host>%s`)\n",
		l.Addr(), coord.Status().Units, *listen)
	srv, serveErr := serveCoordinator(coord, l)
	defer srv.Close()
	err = waitAndReport(ctx, coord, serveErr, title, *csvPath)
	if ctx.Err() == nil && *linger > 0 {
		// Idle workers poll about once a second; answering them "done"
		// for a little longer beats letting them discover a vanished
		// coordinator through connection-refused retries.
		t := time.NewTimer(*linger)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
	return err
}

func cmdWork(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("work", flag.ExitOnError)
	coordinator := fs.String("coordinator", "", "coordinator base URL (required), e.g. http://10.0.0.5:9777")
	name := fs.String("name", defaultWorkerName(), "worker name in coordinator diagnostics")
	parallelism := fs.Int("parallelism", 0, "units run concurrently (0 = GOMAXPROCS)")
	token := addTokenFlag(fs)
	debugAddr := addDebugFlag(fs)
	fs.Parse(args)
	if *coordinator == "" {
		return errors.New("work: -coordinator is required")
	}
	if err := startDebug(*debugAddr); err != nil {
		return err
	}
	w := &fleet.Worker{CoordinatorURL: *coordinator, Name: *name, Parallelism: *parallelism, Token: resolveToken(fs, *token)}
	fmt.Printf("worker %s pulling from %s\n", *name, *coordinator)
	return w.Run(ctx)
}

func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	sf := addSweepFlags(fs)
	fleetWorkers := fs.Int("fleet-workers", 2, "in-process workers to spawn")
	parallelism := fs.Int("parallelism", 0, "units run concurrently per worker (0 = GOMAXPROCS)")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "heartbeat window: a silent worker's unit reassigns after this (workers renew at TTL/3)")
	token := addTokenFlag(fs)
	spoolDir := fs.String("spool-dir", "", "spool committed shards to this directory instead of coordinator memory")
	induceFailure := fs.Bool("induce-failure", false, "lease one unit to a worker that dies without committing, forcing an expiry reassignment")
	csvPath := fs.String("csv", "", "write the merged figure's CDF data to this CSV file")
	debugAddr := addDebugFlag(fs)
	fs.Parse(args)

	campaigns, title, err := sf.campaigns()
	if err != nil {
		return err
	}
	if *fleetWorkers < 1 {
		return errors.New("run: need at least one worker")
	}
	if err := startDebug(*debugAddr); err != nil {
		return err
	}
	tok := resolveToken(fs, *token)
	coord, err := fleet.NewCoordinator(campaigns, fleet.CoordinatorConfig{
		LeaseTTL: *leaseTTL,
		Token:    tok,
		SpoolDir: *spoolDir,
	})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	url := "http://" + l.Addr().String()
	srv, serveErr := serveCoordinator(coord, l)
	defer srv.Close()

	if *induceFailure {
		// A worker that takes a unit to its grave: lease and walk away.
		// The unit comes back after -lease-ttl expires (the dead worker
		// sends no heartbeats) and the sweep still merges bit-identical —
		// the failover path, exercised end to end (the reassignment count
		// is printed with the figure).
		saboteur := fleet.NewClient(url, nil)
		saboteur.Token = tok
		resp, err := saboteur.Lease(ctx, "induced-failure")
		if err != nil {
			return fmt.Errorf("induce-failure lease: %w", err)
		}
		if resp.Status != fleet.LeaseGranted {
			return fmt.Errorf("induce-failure lease not granted: %s", resp.Status)
		}
		fmt.Printf("induced failure: campaign %d replication %d leased and abandoned (reassigns after %v)\n",
			resp.Lease.Campaign, resp.Lease.Replication, *leaseTTL)
	}

	// If every worker dies with units still pending (persistent commit
	// rejections, an unreachable port), nothing will ever complete the
	// sweep — cancel the wait instead of hanging, and report the workers'
	// errors. Workers that exit cleanly only do so once the coordinator
	// has signalled done, so the cancel can never race a healthy finish.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	workerErrs := make([]error, *fleetWorkers)
	var wg sync.WaitGroup
	for i := 0; i < *fleetWorkers; i++ {
		w := &fleet.Worker{
			CoordinatorURL: url,
			Name:           fmt.Sprintf("local-%d", i),
			Parallelism:    *parallelism,
			Token:          tok,
		}
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			workerErrs[slot] = w.Run(runCtx)
		}(i)
	}
	go func() {
		wg.Wait()
		select {
		case <-coord.Done():
		default:
			cancelRun()
		}
	}()
	fmt.Printf("coordinator on %s, %d in-process workers, %d units\n", url, *fleetWorkers, coord.Status().Units)

	err = waitAndReport(runCtx, coord, serveErr, title, *csvPath)
	wg.Wait()
	if werr := errors.Join(workerErrs...); werr != nil && ctx.Err() == nil {
		if err != nil {
			return fmt.Errorf("workers failed: %w (coordinator: %v)", werr, err)
		}
		err = werr
	}
	return err
}

// addDebugFlag declares -debug-addr on a subcommand's flag set.
func addDebugFlag(fs *flag.FlagSet) *string {
	return fs.String("debug-addr", "",
		"serve net/http/pprof (and expvar) on this address, e.g. localhost:6060; empty disables")
}

// startDebug serves the default mux — where net/http/pprof registers —
// on addr. Diagnostics only, kept off the coordinator's own listener so
// profiling endpoints are never exposed on the fleet port.
func startDebug(addr string) error {
	if addr == "" {
		return nil
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("debug-addr: %w", err)
	}
	fmt.Fprintf(os.Stderr, "(debug server on http://%s/debug/pprof/)\n", l.Addr())
	go http.Serve(l, nil) //nolint — diagnostics listener lives for the process
	return nil
}

// serveCoordinator serves the coordinator's HTTP endpoints on l.
func serveCoordinator(coord *fleet.Coordinator, l net.Listener) (*http.Server, <-chan error) {
	srv := &http.Server{Handler: coord}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	return srv, serveErr
}

// progressInterval paces the coordinator's progress log lines.
const progressInterval = 15 * time.Second

// logProgress prints one queue-progress line. Expired (leases past their
// deadline nobody has reclaimed) and Reassigned (survived worker
// failures) get their own numbers: a stalled queue shows up as Expired
// climbing while Done stands still, which a lumped "leased" count hides.
// Throughput and ETA (sliding-window, see StatusResponse) appear once
// the coordinator has seen enough commits to extrapolate, and a second
// line breaks progress down per campaign.
func logProgress(s fleet.StatusResponse) {
	var b strings.Builder
	fmt.Fprintf(&b, "progress: %d/%d units done, %d leased, %d expired, %d pending, %d reassigned, %d renewals",
		s.Done, s.Units, s.Leased, s.Expired, s.Pending, s.Reassigned, s.Renewed)
	if s.CommitsPerMinute > 0 {
		fmt.Fprintf(&b, ", %.1f commits/min", s.CommitsPerMinute)
	}
	if s.EtaMillis > 0 {
		fmt.Fprintf(&b, ", ETA %v", (time.Duration(s.EtaMillis) * time.Millisecond).Round(time.Second))
	}
	fmt.Println(b.String())
	if len(s.Campaigns) > 0 {
		b.Reset()
		b.WriteString("  campaigns:")
		for _, cs := range s.Campaigns {
			fmt.Fprintf(&b, " %s %d/%d", cs.Name, cs.Done, cs.Units)
		}
		fmt.Println(b.String())
	}
}

// waitAndReport blocks until the sweep completes (or ctx cancels, or the
// HTTP server dies — a dead server means no worker can ever finish the
// sweep, so waiting on would hang forever), then prints the merged
// figure and optional CSV. While waiting it logs queue progress every
// progressInterval.
func waitAndReport(ctx context.Context, coord *fleet.Coordinator, serveErr <-chan error, title, csvPath string) error {
	start := time.Now()
	waitDone := make(chan error, 1)
	go func() { waitDone <- coord.Wait(ctx) }()
	progress := time.NewTicker(progressInterval)
	defer progress.Stop()
	var waitErr error
wait:
	for {
		select {
		case waitErr = <-waitDone:
			break wait
		case <-progress.C:
			logProgress(coord.Status())
		case err := <-serveErr:
			return fmt.Errorf("coordinator server: %w", err)
		}
	}
	if errors.Is(waitErr, context.Canceled) || errors.Is(waitErr, context.DeadlineExceeded) {
		status := coord.Status()
		return fmt.Errorf("interrupted with %d/%d units committed: %w", status.Done, status.Units, waitErr)
	}

	outcomes, err := coord.Outcomes()
	if err != nil {
		return err
	}
	fig := experiment.FigureResult{Title: title}
	for _, oc := range outcomes {
		fig.Series = append(fig.Series, experiment.Series{Name: oc.Name, Dist: oc.Result.Dist, Lost: oc.Result.Lost})
	}
	fmt.Println(fig)
	status := coord.Status()
	summary := fmt.Sprintf("(%d units, %d lease reassignments, %d lease renewals, wall time %v",
		status.Units, status.Reassigned, status.Renewed, time.Since(start).Round(time.Millisecond))
	if status.CommitsPerMinute > 0 {
		summary += fmt.Sprintf(", %.1f commits/min over the last window", status.CommitsPerMinute)
	}
	fmt.Println(summary + ")")
	if csvPath != "" {
		if err := fig.WriteCSVFile(csvPath); err != nil {
			return err
		}
		fmt.Printf("(CDF data written to %s)\n", csvPath)
	}
	return waitErr
}

func defaultWorkerName() string {
	host, err := os.Hostname()
	if err != nil {
		return fmt.Sprintf("worker-%d", os.Getpid())
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}
