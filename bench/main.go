// Command bench is the repository's benchmark: five workloads over the
// BCBPT simulator, end-to-end host time and memory for each, and layer
// metrics taken from outside by timing calls into each module's public
// functions. BENCHMARK.json at the repository root is its contract and
// README.md in this directory explains every number.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

type config struct {
	workloads []string
	seed      int64
	rule      passRule
	trace     bool
	smoke     bool
	outDir    string
}

// setUpRuns is how often a workload is set up in one run; setup_s is the
// median.
const setUpRuns = 3

func main() {
	var (
		names     = flag.String("workload", strings.Join(workloadNames, ","), "workloads to run, comma-separated")
		seed      = flag.Int64("seed", 1, "seed every input is generated from")
		secs      = flag.Int("seconds", 18, "time the passes of one workload take; 0 runs until its two fastest passes agree within 3 %")
		trace     = flag.Int("trace", 1, "1 adds the traced pass and the probes and prints the per-layer metrics; 0 prints the end-to-end metrics")
		smoke     = flag.Bool("smoke", false, "run every workload at test scale (200-300 nodes, 5 injections, 2 passes)")
		minPasses = flag.Int("min-passes", 3, "fewest passes of a workload")
		maxPasses = flag.Int("max-passes", 0, "most passes of a workload; 0 leaves it to -seconds")
		outDir    = flag.String("out", "bench/out", "directory for report.json, trace.json and the fleet spool")
		compare   = flag.Bool("compare", false, "compare two reports (files, or directories searched for report.json) given as arguments, and exit")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two reports: bench -compare a b"))
		}
		worse, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	cfg := config{
		workloads: strings.Split(*names, ","),
		seed:      *seed,
		rule:      passRule{min: *minPasses, max: *maxPasses, budget: time.Duration(*secs) * time.Second},
		trace:     *trace != 0,
		smoke:     *smoke,
		outDir:    *outDir,
	}
	if cfg.smoke {
		cfg.rule = passRule{min: 2, max: 2}
	}
	for _, name := range cfg.workloads {
		if _, ok := fullSizes[name]; !ok {
			fatal(fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", ")))
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	rep, err := runBenchmark(ctx, cfg)
	stop()
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout, os.Stderr, cfg.trace)
	for _, w := range rep.Workloads {
		if w.Completed {
			return
		}
	}
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// run is the harness's state for one workload.
type run struct {
	name   string
	w      workload
	setUps []time.Duration
	passes []passResult
	// spent is the wall time the passes have taken, preparation included.
	spent             time.Duration
	attempted, failed int
	// err is what stopped the workload early, if anything did.
	err       error
	tracedNS  int64
	layerVals map[string]float64
}

// passResult is what one pass measured.
type passResult struct {
	prep     time.Duration
	opNS     []int64
	digests  []digest
	alloc    uint64 // bytes allocated over the timed ops
	liveHeap uint64 // bytes live after a forced GC with the pass's state referenced
	cpu      time.Duration
	counts   map[string]float64
}

func (p passResult) total() int64 {
	var sum int64
	for _, ns := range p.opNS {
		sum += ns
	}
	return sum
}

// measurePass prepares one pass of w and times its ops one by one. On an
// error it returns what it measured up to there.
func measurePass(ctx context.Context, name string, w workload, rec *recorder) (passResult, error) {
	var res passResult
	rec.at(name, -1)
	start := time.Now()
	p, err := w.prepare(ctx, rec)
	if err != nil {
		return res, fmt.Errorf("prepare: %w", err)
	}
	defer p.close()
	res.prep = time.Since(start)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu, _ := rusage()
	for i := 0; i < w.ops(); i++ {
		rec.at(name, i)
		sp := rec.begin("bench.op")
		t := time.Now()
		d, err := p.op(ctx, i, rec)
		ns := time.Since(t)
		rec.end(sp)
		if err != nil {
			return res, fmt.Errorf("op %d: %w", i, err)
		}
		res.opNS = append(res.opNS, int64(ns))
		res.digests = append(res.digests, d)
	}
	cpuEnd, _ := rusage()
	res.cpu = cpuEnd - cpu
	runtime.ReadMemStats(&after)
	res.alloc = after.TotalAlloc - before.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&after)
	res.liveHeap = after.HeapAlloc
	res.counts = p.counts()
	return res, nil
}

// rusage returns the process's user and system time so far and its
// high-water resident set (Linux reports KiB) in MB.
func rusage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) * 1024 / 1e6
}

// setUp makes the workload setUpRuns times over, each time with a
// discarded warm-up at a tenth of the scale before it, and keeps the last.
func (r *run) setUp(ctx context.Context, cfg config, sz size) error {
	for i := 0; i < setUpRuns; i++ {
		start := time.Now()
		warm, err := newWorkload(r.name, cfg.seed, sz.tenth(), cfg.outDir)
		if err != nil {
			return err
		}
		if err := warm.setUp(ctx); err != nil {
			return fmt.Errorf("warm-up set-up: %w", err)
		}
		if _, err := measurePass(ctx, r.name, warm, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if r.w, err = newWorkload(r.name, cfg.seed, sz, cfg.outDir); err != nil {
			return err
		}
		if err := r.w.setUp(ctx); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setUps = append(r.setUps, time.Since(start))
	}
	return nil
}

// pass takes one more pass and checks it against pass 0.
func (r *run) pass(ctx context.Context, rec *recorder) (passResult, error) {
	start := time.Now()
	res, err := measurePass(ctx, r.name, r.w, rec)
	r.spent += time.Since(start)
	r.attempted += r.w.ops()
	r.failed += r.w.ops() - len(res.opNS)
	if err == nil && len(r.passes) > 0 {
		for i, d := range res.digests {
			if d != r.passes[0].digests[i] {
				r.failed++
				err = errors.Join(err, fmt.Errorf("op %d: digest differs from pass 0", i))
			}
		}
	}
	return res, err
}

func (r *run) totals() []int64 {
	t := make([]int64, len(r.passes))
	for i, p := range r.passes {
		t[i] = p.total()
	}
	return t
}

func (r *run) opTimes() [][]int64 {
	t := make([][]int64, len(r.passes))
	for i, p := range r.passes {
		t[i] = p.opNS
	}
	return t
}

// baseline summarises the untraced passes taken so far.
func (r *run) baseline() baseline {
	totals := r.totals()
	if len(totals) == 0 {
		return baseline{}
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	return baseline{wallNS: sumOfFastest(r.opTimes()), medianNS: totals[len(totals)/2], fastestNS: totals[0]}
}

// fail records what stopped the workload; the run goes on with the others.
func (r *run) fail(err error) {
	r.err = err
	fmt.Fprintf(os.Stderr, "bench: %s: %v\n", r.name, err)
}

func runBenchmark(ctx context.Context, cfg config) (*report, error) {
	started := time.Now()
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	sizes := fullSizes
	if cfg.smoke {
		sizes = smokeSizes
	}
	runs := make([]*run, len(cfg.workloads))
	var active []*run
	for i, name := range cfg.workloads {
		r := &run{name: name}
		runs[i] = r
		if err := r.setUp(ctx, cfg, sizes[name]); err != nil {
			r.attempted, r.failed = 1, 1 // no op ran, and attempted may not be 0
			r.fail(err)
			continue
		}
		active = append(active, r)
	}

	// Passes are interleaved across workloads, so that a noisy spell on
	// the host hits one pass of each and not every pass of one.
	for len(active) > 0 {
		var next []*run
		for _, r := range active {
			runtime.GC()
			res, err := r.pass(ctx, nil)
			if err != nil {
				r.fail(err)
				continue
			}
			r.passes = append(r.passes, res)
			if !cfg.rule.done(r.totals(), r.spent) {
				next = append(next, r)
			}
		}
		active = next
	}

	var rec *recorder
	var probes map[string]float64
	if cfg.trace {
		rec = newRecorder()
		for _, r := range runs {
			if len(r.passes) == 0 {
				continue
			}
			runtime.GC()
			res, err := r.pass(ctx, rec)
			if err != nil {
				r.fail(fmt.Errorf("traced pass: %w", err))
				continue
			}
			r.tracedNS = res.total()
			if l, ok := r.w.(layered); ok {
				r.layerVals, err = l.layers(ctx, r.name, rec, r.baseline())
				if err != nil {
					r.fail(fmt.Errorf("layer metrics: %w", err))
				}
			}
		}
		var err error
		if probes, err = runProbes(rec, cfg.seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench: probes:", err)
		}
		if err := writeTrace(filepath.Join(cfg.outDir, "trace.json"), rec.spans); err != nil {
			return nil, err
		}
		writeSelfTimeTable(os.Stderr, rec.spans)
	}

	rep := &report{Host: describeHost(), Seed: cfg.seed, Smoke: cfg.smoke, Traced: cfg.trace}
	total := time.Since(started).Seconds()
	for _, r := range runs {
		rep.Workloads = append(rep.Workloads, r.result(probes, total))
	}
	return rep, rep.write(filepath.Join(cfg.outDir, "report.json"))
}

func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// value is one reported number. Spread is how far the runs or passes
// behind it lay apart, as a share of the value.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}

// workloadResult is a workload's part of report.json.
type workloadResult struct {
	Name      string `json:"name"`
	Completed bool   `json:"completed"`
	Error     string `json:"error,omitempty"`
	Passes    int    `json:"passes"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// EndToEnd and PerLayer are keyed by metric name.
	EndToEnd map[string]value `json:"end_to_end"`
	PerLayer map[string]value `json:"per_layer,omitempty"`
	// PassWallS and PassCPUS are every pass's wall and CPU time over its
	// timed ops, in the order taken: how the host behaved during the run.
	PassWallS []float64 `json:"pass_wall_s"`
	PassCPUS  []float64 `json:"pass_cpu_s"`
	// Digests are the per-op output digests of pass 0, in hex.
	Digests []string `json:"digests"`
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func (r *run) result(probes map[string]float64, totalS float64) workloadResult {
	res := workloadResult{
		Name: r.name, Completed: r.err == nil && len(r.passes) > 0,
		Passes: len(r.passes), Attempted: r.attempted, Failed: r.failed,
		EndToEnd: map[string]value{}, PerLayer: map[string]value{},
	}
	if r.err != nil {
		res.Error = r.err.Error()
	}
	var allocs, lives, preps []float64
	fastest := 0
	for i, p := range r.passes {
		res.PassWallS = append(res.PassWallS, seconds(p.total()))
		res.PassCPUS = append(res.PassCPUS, p.cpu.Seconds())
		allocs = append(allocs, float64(p.alloc)/1e6)
		lives = append(lives, float64(p.liveHeap)/1e6)
		preps = append(preps, float64(p.prep))
		if p.total() < r.passes[fastest].total() {
			fastest = i
		}
	}
	base := r.baseline()
	noise := float64(base.medianNS)/float64(base.fastestNS) - 1
	rangeFrac := func(v []float64) float64 {
		s := sortedCopy(v)
		if len(s) == 0 {
			return 0
		}
		return (s[len(s)-1] - s[0]) / median(s)
	}
	e2e := map[string]value{
		"wall_s":       {Value: seconds(base.wallNS), Spread: noise},
		"alloc_mb":     {Value: median(allocs), Spread: rangeFrac(allocs)},
		"live_heap_mb": {Value: median(lives), Spread: rangeFrac(lives)},
		"setup_s":      {Value: (median(durationsNS(r.setUps)) + median(preps)) / 1e9, Spread: iqrFrac(durationsNS(r.setUps))},
	}
	for _, m := range endToEnd {
		res.EndToEnd[m.Name] = value{Value: finite(e2e[m.Name].Value), Unit: m.Unit, Spread: finite(e2e[m.Name].Spread)}
	}

	// Counts of the last pass, then what only the traced run measures,
	// then what follows from both.
	layer := map[string]float64{}
	if len(r.passes) > 0 {
		for k, v := range r.passes[len(r.passes)-1].counts {
			layer[k] = v
		}
		layer["bench.cpu_s"] = r.passes[fastest].cpu.Seconds()
		for _, d := range r.passes[0].digests {
			res.Digests = append(res.Digests, fmt.Sprintf("%x", d))
		}
	}
	for k, v := range probes {
		layer[k] = v
	}
	for k, v := range r.layerVals {
		layer[k] = v
	}
	layer["sim.events_per_s"] = layer["sim.events"] / seconds(base.wallNS)
	layer["p2p.ns_per_msg"] = float64(base.wallNS) / layer["p2p.msgs"]
	if _, ok := r.w.(*relay); ok {
		layer["measure.inject_p50_us"], layer["measure.inject_p90_us"] = injectQuantiles(fastestPerOp(r.opTimes()))
	}
	layer["bench.passes"] = float64(len(r.passes))
	layer["bench.noise_frac"] = noise
	layer["bench.wall_median_s"] = seconds(base.medianNS)
	_, layer["bench.peak_rss_mb"] = rusage()
	layer["bench.total_s"] = totalS
	if r.tracedNS > 0 {
		// One pass against the median pass: against wall_s, the fastest of
		// many, any single pass looks slow.
		layer["bench.span_overhead_frac"] = float64(r.tracedNS)/float64(base.medianNS) - 1
	}
	// A ratio whose base is 0 (no passes, no messages) reads 0.
	for _, m := range perLayer {
		res.PerLayer[m.Name] = value{Value: finite(layer[m.Name]), Unit: m.Unit}
	}
	return res
}

// host names the machine a report was taken on.
type host struct {
	CPUs       int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"vcs_revision"`
}

func describeHost() host {
	h := host{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Revision: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
	}
	return h
}

// report is report.json: everything one invocation measured.
type report struct {
	Host      host             `json:"host"`
	Seed      int64            `json:"seed"`
	Smoke     bool             `json:"smoke"`
	Traced    bool             `json:"traced"`
	Workloads []workloadResult `json:"workloads"`
}

func (rep *report) write(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultLine is the line BENCHMARK.json's contract asks for: the last
// line of standard output, one JSON object per workload run.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// print writes a table of every metric to human and one result line per
// workload to out: the per-layer metrics of a traced run, the end-to-end
// metrics otherwise.
func (rep *report) print(out, human io.Writer, traced bool) {
	for _, w := range rep.Workloads {
		fmt.Fprintf(human, "\n== %s: %d passes, %d of %d ops failed ==\n", w.Name, w.Passes, w.Failed, w.Attempted)
		for _, m := range endToEnd {
			v := w.EndToEnd[m.Name]
			fmt.Fprintf(human, "%-28s %16.6g %-6s (spread %.3f, may worsen by %.0f %%)\n", m.Name, v.Value, v.Unit, v.Spread, m.Bound*100)
		}
		if traced {
			for _, m := range perLayer {
				v := w.PerLayer[m.Name]
				fmt.Fprintf(human, "%-28s %16.6g %s\n", m.Name, v.Value, v.Unit)
			}
		}
	}
	for _, w := range rep.Workloads {
		metrics := w.EndToEnd
		if traced {
			metrics = w.PerLayer
		}
		line := resultLine{Correct: w.Completed && w.Failed == 0, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]value{}}
		for name, v := range metrics {
			line.Metrics[name] = value{Value: v.Value, Unit: v.Unit}
		}
		data, err := json.Marshal(line)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(out, "%s\n", data)
	}
}
