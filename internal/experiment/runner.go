// The campaign engine: the paper's evaluation is built from repeated
// measuring-node campaigns over independently seeded networks — work that
// is embarrassingly parallel. Runner fans those replications out across a
// bounded worker pool while keeping results bit-identical regardless of
// worker count or completion order:
//
//   - every unit of work (one replication of one campaign) is
//     self-contained: it builds its own network from a seed derived with
//     sim.DeriveSeed, so no randomness is shared across goroutines;
//   - results land in pre-indexed slots and merge in replication order,
//     so scheduling never influences the aggregate — which is what leaves
//     the engine free to hand units out longest first (DispatchOrder), so
//     that a sweep's long unit does not start last;
//   - cancellation is cooperative: workers stop picking up units and
//     campaigns stop between injections, returning partial results with
//     an error wrapping ErrPartialResult and ctx.Err().
package experiment

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/sim"
)

// ErrPartialResult marks a sweep that was cancelled mid-flight: the
// returned outcomes carry only the replications that completed.
var ErrPartialResult = errors.New("experiment: partial campaign results")

// CampaignSpec describes one campaign of a sweep: a network Spec measured
// over Replications independently seeded builds of Runs injections each,
// pooled into a single result. It serializes with encoding/json (see
// Spec).
type CampaignSpec struct {
	// Name labels the campaign in outcomes (series name in figures).
	Name string `json:"name"`
	// Spec is the network build; Spec.Seed roots replication 0 and seeds
	// the derivation chain for the rest.
	Spec Spec `json:"spec"`
	// Replications is the number of independently seeded networks
	// (default 1). Samples pool across replications.
	Replications int `json:"replications,omitempty"`
	// Runs is the number of measurement injections per replication
	// (default 200, as Options).
	Runs int `json:"runs,omitempty"`
	// Deadline bounds each injection in virtual time (default 2 minutes).
	Deadline time.Duration `json:"deadline,omitempty"`
	// Trace, when non-empty, exports a sim-time event trace of this
	// campaign's replication 0 — one canonical trace per campaign, not
	// one per replication racing for the same file — as Chrome
	// trace_event JSON at this path. Tracing is purely observational (the
	// golden-CSV tests pin byte-identical results with it on), so like Name
	// it is excluded from Fingerprint.
	Trace string `json:"trace,omitempty"`
}

// WithDefaults returns the spec with the engine's defaults filled in —
// the canonical form a sweep outside the Runner (the fleet coordinator)
// normalises to before expanding units, so it agrees with RunUnit on
// replication counts and fingerprints.
func (c CampaignSpec) WithDefaults() CampaignSpec { return c.withDefaults() }

func (c CampaignSpec) withDefaults() CampaignSpec {
	if c.Replications <= 0 {
		c.Replications = 1
	}
	if c.Runs <= 0 {
		c.Runs = 200
	}
	if c.Deadline <= 0 {
		c.Deadline = 2 * time.Minute
	}
	return c
}

// ReplicationSeed returns the root seed of replication i. Replication 0
// keeps the spec's own seed, so a single-replication campaign reproduces
// the serial Build+Campaign path exactly; later replications derive
// FNV-hashed seeds that are stable functions of (base seed, index).
func (c CampaignSpec) ReplicationSeed(i int) int64 {
	if i == 0 {
		return c.Spec.Seed
	}
	return sim.DeriveSeed(c.Spec.Seed, fmt.Sprintf("replication/%d", i))
}

// Fingerprint returns a stable hash identifying the experiment this
// campaign defines: an FNV-64a of the canonical JSON of the defaulted
// spec, with the fields that cannot influence results excluded — Name (a
// display label) and Trace (an observational export path).
//
// The campaign engine stamps every shard result with this fingerprint and
// measure.MergeCampaignResults refuses to blend shards whose fingerprints
// differ, so results from different experiments — a different seed, node
// count, threshold, anything — can never silently pool. Never zero.
func (c CampaignSpec) Fingerprint() uint64 {
	c = c.withDefaults()
	c.Name = ""
	c.Trace = ""
	data, err := json.Marshal(c)
	if err != nil {
		// Every serializable field is plain data; Marshal cannot fail.
		panic(fmt.Sprintf("experiment: fingerprint marshal: %v", err))
	}
	h := fnv.New64a()
	h.Write(data)
	v := h.Sum64()
	if v == 0 {
		v = 1 // zero means "unstamped"
	}
	return v
}

// expectedEvents estimates how many events one unit of the campaign
// dispatches, the cost DispatchOrder ranks units by. Every injection costs
// each node four — its first INV landing, the GETDATA it sends landing, the
// TX landing, the verification ending — and a BCBPT build three per probe a
// joiner sends (the probe falling due, the ping landing, the pong landing),
// Candidates × ProbeCount of them per node. Churn-free it is within 10 % of
// the measured count from 300 to 5000 nodes; under churn it leaves out the
// arrivals' joins and misses by up to 60 %, but not by enough to change
// which unit is longest.
func (c CampaignSpec) expectedEvents() uint64 {
	c = c.withDefaults()
	nodes := uint64(max(c.Spec.Nodes, 0))
	events := 4 * nodes * uint64(c.Runs)
	if c.Spec.Protocol == ProtoBCBPT {
		cfg := c.Spec.bcbptConfig()
		events += 3 * nodes * uint64(max(cfg.Candidates, 0)) * uint64(max(cfg.ProbeCount, 0))
	}
	return events
}

// DispatchOrder returns the order in which a sweep of the campaigns hands
// out its units: each unit is addressed by its index in the flat,
// campaign-major list (replication r of campaign c sits after every
// replication of campaigns 0..c-1), and units go out by descending expected
// events, ties in sweep order. Three figure units on two workers then pack
// as longest-first does — the BCBPT unit starts at once instead of after
// LBC. It is a pure function of the campaigns; Runner.Sweep and the fleet
// coordinator's lease grants both take their order from it, and since
// results land in per-unit slots, no order changes a merged result.
func DispatchOrder(campaigns []CampaignSpec) []int {
	var cost []uint64 // per unit
	for _, c := range campaigns {
		c = c.withDefaults()
		events := c.expectedEvents()
		for range c.Replications {
			cost = append(cost, events)
		}
	}
	order := make([]int, len(cost))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cost[b], cost[a]) })
	return order
}

// CampaignOutcome is one campaign's merged result.
type CampaignOutcome struct {
	// Name echoes CampaignSpec.Name.
	Name string
	// Result pools every completed replication, merged in replication
	// order.
	Result measure.CampaignResult
	// Replications counts the replications that completed (equals the
	// spec's Replications unless the sweep was cancelled).
	Replications int
}

// Runner executes campaign sweeps on a bounded worker pool.
type Runner struct {
	// Workers bounds concurrency; <= 0 means GOMAXPROCS.
	Workers int
	// Totals, when non-nil, sums each unit's observation under its
	// campaign's name as the sweep runs (see SweepTotals).
	Totals *SweepTotals
	// Clock supplies wall-clock nanoseconds for unit timings. It is
	// injected because experiment is a deterministic package (bcbpt-lint
	// detrand bans time.Now here); non-deterministic frontends pass e.g.
	// a time.Now().UnixNano wrapper. nil leaves timings zero.
	Clock func() int64
}

// NewRunner returns a Runner with the given worker bound (<= 0 for
// GOMAXPROCS).
func NewRunner(workers int) *Runner { return &Runner{Workers: workers} }

func (r *Runner) workerCount() int {
	if r == nil || r.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Workers
}

// unitRef addresses one replication of one campaign in a sweep.
type unitRef struct {
	campaign    int
	replication int
}

// UnitObservation is the non-result telemetry of one unit run: wall
// timings (zero unless a clock was supplied) and the unit network's
// cumulative traffic and event counters, snapshotted before the network
// closes.
type UnitObservation struct {
	// BuildNanos is the wall time of the network build; RunNanos the
	// wall time of the measurement campaign.
	BuildNanos int64
	RunNanos   int64
	// Stats is the unit's total p2p traffic (bootstrap + measurement).
	Stats p2p.Stats
	// Events is how many events the unit's scheduler dispatched (bootstrap
	// + measurement). Beside Stats it shows which way the INVs travelled:
	// far fewer events than messages when the redundant ones left as
	// tickets, one per message in a traced unit, which keeps them all.
	Events uint64
	// TraceKept and TraceDropped are what the unit's exported trace holds
	// and what its ring overwrote before the export; both zero for a unit
	// that exported none.
	TraceKept    int
	TraceDropped uint64
}

// RunUnit executes one self-contained unit of a sweep — replication rep
// of campaign cs — and returns its shard result, stamped with the
// campaign's fingerprint. This is the execution path of every unit
// Runner.Sweep runs, and of a unit leased from the fleet coordinator: a
// unit derives every bit of randomness from its replication seed, so
// running it twice — or on two different machines — produces
// bit-identical results, which is what makes the coordinator's lease
// reassignment idempotent.
func RunUnit(ctx context.Context, cs CampaignSpec, rep int) (measure.CampaignResult, error) {
	res, _, err := RunUnitObserved(ctx, cs, rep, nil)
	return res, err
}

// RunUnitObserved is RunUnit plus telemetry: wall timings via the
// injected clock (nil leaves them zero — experiment itself may not read
// the wall clock), the unit's traffic counters, and — when the campaign
// names a Trace path and rep is 0 — a sim-time event trace exported as
// trace_event JSON at cs.Trace. The observation is returned even on error
// so callers can count the wall time a failed unit burned.
func RunUnitObserved(ctx context.Context, cs CampaignSpec, rep int, clock func() int64) (measure.CampaignResult, UnitObservation, error) {
	var uo UnitObservation
	cs = cs.withDefaults()
	if rep < 0 || rep >= cs.Replications {
		return measure.CampaignResult{}, uo, fmt.Errorf("experiment: replication %d outside [0, %d)", rep, cs.Replications)
	}
	spec := cs.Spec
	spec.Seed = cs.ReplicationSeed(rep)
	var t0 int64
	if clock != nil {
		t0 = clock()
	}
	b, err := Build(ctx, spec)
	if clock != nil {
		uo.BuildNanos = clock() - t0
	}
	if err != nil {
		return measure.CampaignResult{}, uo, fmt.Errorf("experiment: build %s replication %d: %w", cs.Name, rep, err)
	}
	defer b.Close()
	var tracer *obs.Tracer
	if cs.Trace != "" && rep == 0 {
		tracer = obs.NewTracer(obs.DefaultShardEvents, 1)
		b.Net.EnableTrace(tracer)
		b.Measurer.Trace = tracer.Shard(0)
	}
	if clock != nil {
		t0 = clock()
	}
	res, err := b.CampaignContext(ctx, cs.Runs, cs.Deadline)
	if clock != nil {
		uo.RunNanos = clock() - t0
	}
	uo.Stats, uo.Events = b.Net.Stats(), b.Net.Scheduler().Executed()
	if err != nil {
		return measure.CampaignResult{}, uo, fmt.Errorf("experiment: campaign %s replication %d: %w", cs.Name, rep, err)
	}
	if tracer != nil {
		if err := exportTrace(tracer, cs.Trace); err != nil {
			return measure.CampaignResult{}, uo, fmt.Errorf("experiment: campaign %s: %w", cs.Name, err)
		}
		uo.TraceKept, uo.TraceDropped = tracer.Len(), tracer.Dropped()
	}
	res.Fingerprint = cs.Fingerprint()
	return res, uo, nil
}

// exportTrace writes the tracer's merged stream as trace_event JSON at
// path.
func exportTrace(tr *obs.Tracer, path string) error {
	jf, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	if err := tr.WriteTraceJSON(jf); err != nil {
		jf.Close()
		return fmt.Errorf("trace export %s: %w", path, err)
	}
	if err := jf.Close(); err != nil {
		return fmt.Errorf("trace export %s: %w", path, err)
	}
	return nil
}

// UnitTotals sums the observations of a campaign's units: how many ran and
// how many of those a clock timed, the events they dispatched, their build
// and run wall, and what their exported traces kept and their rings
// overwrote first.
type UnitTotals struct {
	Units, Timed         int
	Events               uint64
	BuildNanos, RunNanos int64
	TraceKept            int
	TraceDropped         uint64
}

func (t *UnitTotals) add(uo UnitObservation, timed bool) {
	t.Units++
	t.Events += uo.Events
	t.TraceKept += uo.TraceKept
	t.TraceDropped += uo.TraceDropped
	if timed {
		t.Timed++
		t.BuildNanos += uo.BuildNanos
		t.RunNanos += uo.RunNanos
	}
}

// SweepTotals collects the UnitTotals of a sweep's units by campaign name,
// as the units finish; campaigns sharing a name share one total. It is
// safe for concurrent use and its zero value is ready. Purely
// observational: the merged campaign results are bit-identical with or
// without one.
type SweepTotals struct {
	mu     sync.Mutex
	series map[string]UnitTotals
	all    UnitTotals
}

// add folds one unit of the named campaign in; a nil receiver drops it.
func (s *SweepTotals) add(series string, uo UnitObservation, timed bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.series == nil {
		s.series = make(map[string]UnitTotals)
	}
	t := s.series[series]
	t.add(uo, timed)
	s.series[series] = t
	s.all.add(uo, timed)
}

// Campaign returns the totals of the units of the campaigns named name.
func (s *SweepTotals) Campaign(name string) UnitTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.series[name]
}

// All returns the totals over every unit.
func (s *SweepTotals) All() UnitTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.all
}

// isCancellation reports whether err is a context cancellation rather
// than a real unit failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runUnits executes the units 0..len(order)-1 on the pool, handing them
// out in the given order (a permutation), with fail-fast semantics: the
// first real (non-cancellation) failure cancels the remaining units so a
// bad spec does not burn the rest of the sweep's wall-clock. It reports
// which units completed, by unit index, and the real failure earliest in
// dispatch order among the units that ran (nil if none).
//
// Every dispatched unit runs fn even if fail-fast cancellation has
// already fired — fn's own ctx polling keeps that cheap (a cancelled
// build aborts at its first phase) and it is what makes the reported
// failure stable across worker counts: units are handed out in order,
// so every unit ahead of the failing one has been dispatched and gets to
// record its own real error (a spec that fails validation fails
// identically however the pool is scheduled) rather than a scheduling-
// dependent "cancelled before start". Without this, two replications of
// one bad spec could race to be the reported failure.
func (r *Runner) runUnits(ctx context.Context, order []int, fn func(ctx context.Context, i int) error) ([]bool, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	n := len(order)
	completed := make([]bool, n)
	errs := make([]error, n) // by dispatch position
	// ParallelFor's error is runCtx's: the fail-fast cancel is read back
	// from errs below, and the caller's own cancellation by partialError.
	_ = sim.ParallelFor(runCtx, n, r.workerCount(), func(pos int) {
		i := order[pos]
		if err := fn(runCtx, i); err != nil {
			errs[pos] = err
			if !isCancellation(err) {
				cancel()
			}
			return
		}
		completed[i] = true
	})
	for pos, err := range errs {
		if err != nil && !isCancellation(err) {
			return completed, fmt.Errorf("unit %d/%d: %w", order[pos]+1, n, err)
		}
	}
	return completed, nil
}

// partialError wraps ctx.Err() in ErrPartialResult when work is missing;
// a cancellation that fired after the last unit finished is not partial.
func partialError(ctx context.Context, allDone bool) error {
	if err := ctx.Err(); err != nil && !allDone {
		return fmt.Errorf("%w: %w", ErrPartialResult, err)
	}
	return nil
}

// Sweep schedules every replication of every campaign as one flat work
// queue — N specs × M replications saturate the pool with no per-spec
// barriers — hands the units out longest first (DispatchOrder), and
// merges each campaign's shards in replication order.
//
// Determinism: for a fixed set of specs the returned outcomes are
// bit-identical for any worker count, because every unit derives all of
// its randomness from its own replication seed and merging ignores
// dispatch and completion order.
//
// On cancellation Sweep returns the outcomes merged from the completed
// replications plus an error wrapping ErrPartialResult and ctx.Err(). A
// real unit failure cancels the remaining units (fail fast) and returns
// the failure earliest in dispatch order alongside the outcomes completed
// so far.
func (r *Runner) Sweep(ctx context.Context, campaigns []CampaignSpec) ([]CampaignOutcome, error) {
	specs := make([]CampaignSpec, len(campaigns))
	var units []unitRef
	for ci := range campaigns {
		specs[ci] = campaigns[ci].withDefaults()
		for rep := 0; rep < specs[ci].Replications; rep++ {
			units = append(units, unitRef{campaign: ci, replication: rep})
		}
	}

	results := make([]measure.CampaignResult, len(units))
	completed, unitErr := r.runUnits(ctx, DispatchOrder(specs), func(ctx context.Context, i int) error {
		u := units[i]
		res, uo, err := RunUnitObserved(ctx, specs[u.campaign], u.replication, r.Clock)
		r.Totals.add(specs[u.campaign].Name, uo, r.Clock != nil)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})

	out := make([]CampaignOutcome, len(campaigns))
	allDone := true
	base := 0
	for ci := range specs {
		shards := make([]measure.CampaignResult, 0, specs[ci].Replications)
		for rep := 0; rep < specs[ci].Replications; rep++ {
			if completed[base+rep] {
				shards = append(shards, results[base+rep])
			} else {
				allDone = false
			}
		}
		base += specs[ci].Replications
		merged, err := measure.MergeCampaignResults(shards...)
		if err != nil {
			// Unreachable from this path — every shard of a campaign is
			// stamped with the same fingerprint — but a corrupted shard
			// must fail loudly, not pool.
			return nil, fmt.Errorf("experiment: merge campaign %s: %w", specs[ci].Name, err)
		}
		out[ci] = CampaignOutcome{
			Name:         specs[ci].Name,
			Result:       merged,
			Replications: len(shards),
		}
	}
	if unitErr != nil {
		return out, unitErr
	}
	// Partiality is a fact about the slots, not the context: a timeout
	// that fires after the last unit finished delivered complete results.
	return out, partialError(ctx, allDone)
}
