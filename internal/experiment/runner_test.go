package experiment

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/wire"
)

// engineOpts keeps engine tests quick: small networks, few runs, several
// replications so the work queue actually fans out.
func engineOpts() Options {
	return Options{Nodes: 40, Runs: 4, Seed: 21, Deadline: 30 * time.Second, Replications: 3}
}

// sameCampaignResult asserts bitwise-equal merged results.
func sameCampaignResult(t *testing.T, label string, a, b measure.CampaignResult) {
	t.Helper()
	if !a.Dist.Equal(b.Dist) {
		t.Errorf("%s: distributions differ: %v vs %v", label, a.Dist, b.Dist)
	}
	if a.Lost != b.Lost {
		t.Errorf("%s: lost %d vs %d", label, a.Lost, b.Lost)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Errorf("%s: fingerprint %016x vs %016x", label, a.Fingerprint, b.Fingerprint)
	}
}

// TestEngineDeterministicAcrossWorkerCounts is the engine's core
// guarantee: same seed ⇒ identical merged results at 1, 4 and 16 workers.
func TestEngineDeterministicAcrossWorkerCounts(t *testing.T) {
	o := engineOpts()
	campaigns := []CampaignSpec{
		o.campaign("bitcoin", buildSpec(o, ProtoBitcoin, fastBCBPT(25*time.Millisecond))),
		o.campaign("bcbpt", buildSpec(o, ProtoBCBPT, fastBCBPT(25*time.Millisecond))),
	}
	var baseline []CampaignOutcome
	for _, workers := range []int{1, 4, 16} {
		out, err := NewRunner(workers).Sweep(context.Background(), campaigns)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != len(campaigns) {
			t.Fatalf("workers=%d: outcomes = %d, want %d", workers, len(out), len(campaigns))
		}
		if baseline == nil {
			baseline = out
			for _, oc := range out {
				if oc.Result.Dist.N() == 0 {
					t.Fatalf("campaign %s produced no samples", oc.Name)
				}
				if oc.Replications != o.Replications {
					t.Fatalf("campaign %s completed %d replications, want %d", oc.Name, oc.Replications, o.Replications)
				}
			}
			continue
		}
		for i := range out {
			if out[i].Name != baseline[i].Name {
				t.Errorf("workers=%d: outcome %d name %q, want %q", workers, i, out[i].Name, baseline[i].Name)
			}
			sameCampaignResult(t, fmt.Sprintf("workers=%d campaign=%s", workers, out[i].Name),
				out[i].Result, baseline[i].Result)
		}
	}
}

// TestEngineSingleReplicationMatchesSerialPath pins back-compatibility:
// one replication through the engine must reproduce the direct
// Build+CampaignContext result bit for bit (replication 0 keeps the base
// seed).
func TestEngineSingleReplicationMatchesSerialPath(t *testing.T) {
	o := engineOpts()
	o.Replications = 1
	spec := buildSpec(o, ProtoBitcoin, fastBCBPT(25*time.Millisecond))

	b, err := Build(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := b.CampaignContext(context.Background(), o.Runs, o.Deadline)
	if err != nil {
		t.Fatal(err)
	}

	cs := o.campaign("bitcoin", spec)
	out, err := NewRunner(4).Sweep(context.Background(), []CampaignSpec{cs})
	if err != nil {
		t.Fatal(err)
	}
	engine := out[0].Result
	// The direct path leaves its result unstamped; the engine stamps the
	// campaign's fingerprint and changes nothing else.
	serial.Fingerprint = cs.Fingerprint()
	sameCampaignResult(t, "serial-vs-engine", serial, engine)
}

// TestEngineReplicationSeedsAreDistinct guards the seed-derivation chain:
// replications must explore genuinely different networks.
func TestEngineReplicationSeedsAreDistinct(t *testing.T) {
	cs := CampaignSpec{Spec: Spec{Seed: 9}}
	seen := map[int64]int{}
	for i := 0; i < 100; i++ {
		s := cs.ReplicationSeed(i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("replications %d and %d share seed %d", prev, i, s)
		}
		seen[s] = i
	}
	if cs.ReplicationSeed(0) != 9 {
		t.Errorf("replication 0 seed = %d, want base seed 9", cs.ReplicationSeed(0))
	}
}

// TestEngineCancellation: a cancelled sweep must return promptly with a
// partial-result error, keeping the replications that completed.
func TestEngineCancellation(t *testing.T) {
	o := engineOpts()
	o.Replications = 8
	o.Runs = 10
	campaigns := []CampaignSpec{
		o.campaign("bitcoin", buildSpec(o, ProtoBitcoin, fastBCBPT(25*time.Millisecond))),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the sweep even starts: nothing may run
	start := time.Now()
	out, err := NewRunner(4).Sweep(ctx, campaigns)
	if err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	if !errors.Is(err, ErrPartialResult) {
		t.Errorf("error %v does not wrap ErrPartialResult", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if len(out) != 1 {
		t.Fatalf("outcomes = %d, want 1 (partial)", len(out))
	}
	if out[0].Replications != 0 || out[0].Result.Dist.N() != 0 {
		t.Errorf("pre-cancelled sweep completed work: %+v", out[0])
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancelled sweep took %v, want prompt return", elapsed)
	}
}

// TestEngineMidFlightCancellation cancels after the first completed unit
// and checks the engine stops early, keeps completed shards, and reports
// the partial-result error.
func TestEngineMidFlightCancellation(t *testing.T) {
	o := engineOpts()
	o.Replications = 12
	campaigns := []CampaignSpec{
		o.campaign("bitcoin", buildSpec(o, ProtoBitcoin, fastBCBPT(25*time.Millisecond))),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(1) // serial pool: cancellation lands between units
	var fired atomic.Bool
	// Cancel from a watcher as soon as the first unit could have finished;
	// the serial fast path checks ctx between units, so at most a couple
	// of replications complete.
	go func() {
		time.Sleep(50 * time.Millisecond)
		fired.Store(true)
		cancel()
	}()
	out, err := r.Sweep(ctx, campaigns)
	if !fired.Load() {
		t.Skip("sweep finished before cancellation fired; machine too fast for this race")
	}
	if err == nil {
		// The whole sweep legitimately finished before cancel fired.
		t.Skip("sweep completed before cancellation")
	}
	if !errors.Is(err, ErrPartialResult) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap ErrPartialResult and context.Canceled", err)
	}
	if len(out) != 1 {
		t.Fatalf("outcomes = %d, want 1", len(out))
	}
	if out[0].Replications >= o.Replications {
		t.Errorf("all %d replications completed despite cancellation", out[0].Replications)
	}
}

// TestEngineUnitFailureIsDeterministic: a failing spec must surface the
// error of its unit earliest in dispatch order regardless of worker count,
// whether it is dispatched before the good campaign (it costs more) or
// after it, and wherever it stands in the sweep.
func TestEngineUnitFailureIsDeterministic(t *testing.T) {
	good := CampaignSpec{Name: "good", Spec: Spec{Nodes: 20, Seed: 1, Protocol: ProtoBitcoin}, Replications: 2, Runs: 2, Deadline: 30 * time.Second}
	for _, runs := range []int{2, 1000} {
		bad := CampaignSpec{Name: "bad", Spec: Spec{Nodes: 2, Seed: 1, Protocol: ProtoBitcoin}, Replications: 2, Runs: runs, Deadline: time.Second}
		if first := bad.expectedEvents() > good.expectedEvents(); first != (runs > 2) {
			t.Fatalf("runs=%d: bad spec dispatched first = %v", runs, first)
		}
		for _, sweep := range [][]CampaignSpec{{good, bad}, {bad, good}} {
			var msgs []string
			for _, workers := range []int{1, 2, 4, 8} {
				_, err := NewRunner(workers).Sweep(context.Background(), sweep)
				if err == nil {
					t.Fatalf("runs=%d workers=%d: sweep with invalid spec succeeded", runs, workers)
				}
				msgs = append(msgs, err.Error())
			}
			if !strings.Contains(msgs[0], "build bad replication 0:") {
				t.Errorf("runs=%d sweep %s first: reported %q, want bad replication 0", runs, sweep[0].Name, msgs[0])
			}
			for _, msg := range msgs[1:] {
				if msg != msgs[0] {
					t.Errorf("runs=%d sweep %s first: error differs by worker count:\n  %s\n  %s", runs, sweep[0].Name, msgs[0], msg)
				}
			}
		}
	}
}

// TestDispatchOrder pins the order units are handed out in: by descending
// expected events, ties in sweep order, every unit exactly once. At the
// benchmark's 2000 × 25 the figure's BCBPT unit (its build probes) goes out
// first, then Bitcoin, then LBC — which is what lets two workers pack the
// three units as one long lane and one of the other two.
func TestDispatchOrder(t *testing.T) {
	if got, want := DispatchOrder(Figure3Campaigns(Options{Nodes: 2000, Runs: 25})), []int{2, 0, 1}; !slices.Equal(got, want) {
		t.Errorf("figure3 at 2000 × 25 dispatches units %v, want %v (bcbpt, bitcoin, lbc)", got, want)
	}

	o := Options{Runs: 10, Replications: 3}
	short := o.campaign("short", Spec{Nodes: 100, Seed: 1, Protocol: ProtoBitcoin})
	long := o.campaign("long", Spec{Nodes: 300, Seed: 1, Protocol: ProtoBitcoin})
	tied := o.campaign("tied", Spec{Nodes: 100, Seed: 2, Protocol: ProtoLBC})
	for _, tc := range []struct {
		sweep []CampaignSpec
		want  []int
	}{
		// Equal costs, and a campaign's own replications, keep sweep order.
		{[]CampaignSpec{short, tied}, []int{0, 1, 2, 3, 4, 5}},
		{[]CampaignSpec{short, long, tied}, []int{3, 4, 5, 0, 1, 2, 6, 7, 8}},
		{[]CampaignSpec{tied, short, long}, []int{6, 7, 8, 0, 1, 2, 3, 4, 5}},
	} {
		got := DispatchOrder(tc.sweep)
		if !slices.Equal(got, tc.want) {
			t.Errorf("dispatch order %v, want %v", got, tc.want)
		}
		sorted := slices.Clone(got)
		slices.Sort(sorted)
		for i, u := range sorted {
			if u != i {
				t.Fatalf("dispatch order %v does not hand out each of the %d units exactly once", got, len(got))
			}
		}
	}
}

// TestUnitCostTracksEvents holds the cost DispatchOrder ranks units by to
// what the units dispatch, on every figure's campaigns at test scale:
// churn-free the estimate is within 15 % of UnitObservation.Events; under
// churn, which it does not model (arrivals join), a unit estimated above
// another still measures above it, so the dispatch order is still the
// order of the work.
func TestUnitCostTracksEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 36 units")
	}
	for _, churn := range []bool{false, true} {
		o := Options{Nodes: 300, Runs: 20, Seed: 1, ChurnOn: churn}
		campaigns := Figure3Campaigns(o)
		campaigns = append(campaigns, ThresholdSweepCampaigns(o, Figure4Thresholds())...)
		campaigns = append(campaigns, VarianceCampaigns(o, nil)...)
		est := make([]uint64, len(campaigns))
		got := make([]uint64, len(campaigns))
		for i, c := range campaigns {
			_, uo, err := RunUnitObserved(context.Background(), c, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			est[i], got[i] = c.expectedEvents(), uo.Events
			if ratio := float64(est[i]) / float64(got[i]); !churn && (ratio < 0.85 || ratio > 1.15) {
				t.Errorf("%s: estimated %d events, dispatched %d (ratio %.3f)", c.Name, est[i], got[i], ratio)
			}
		}
		for i := range campaigns {
			for j := range campaigns {
				if est[i] > est[j] && got[i] <= got[j] {
					t.Errorf("churn=%v: %s estimated above %s (%d > %d) but dispatched %d <= %d events",
						churn, campaigns[i].Name, campaigns[j].Name, est[i], est[j], got[i], got[j])
				}
			}
		}
	}
}

// TestEachBoundsAndCompletes exercises the runner's unit pool: every unit
// of a permuted dispatch order runs and is reported completed, and no more
// than Workers of them run at once.
func TestEachBoundsAndCompletes(t *testing.T) {
	const n = 64
	order := make([]int, n)
	for pos := range order {
		order[pos] = n - 1 - pos
	}
	var ran [n]atomic.Bool
	var inFlight, peak atomic.Int32
	completed, err := NewRunner(4).runUnits(context.Background(), order, func(ctx context.Context, i int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		ran[i].Store(true)
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if !ran[i].Load() || !completed[i] {
			t.Fatalf("unit %d: ran %v, completed %v", i, ran[i].Load(), completed[i])
		}
	}
	if p := peak.Load(); p > 4 {
		t.Errorf("concurrency peaked at %d, want <= 4", p)
	}
}

// TestCampaignContextPartial checks the measure-layer half of prompt
// cancellation: a campaign stopped mid-flight keeps its completed runs.
func TestCampaignContextPartial(t *testing.T) {
	b, err := Build(context.Background(), Spec{Nodes: 30, Seed: 5, Protocol: ProtoBitcoin})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := b.CampaignContext(ctx, 10, 30*time.Second)
	if err == nil {
		t.Fatal("cancelled campaign returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if res.Dist.N() != 0 || res.Lost != 0 {
		t.Errorf("pre-cancelled campaign measured %d samples and lost %d", res.Dist.N(), res.Lost)
	}
}

// TestCampaignSpecFingerprint pins the fingerprint's contract: stable
// under defaulting and the result-neutral series name,
// sensitive to anything that changes the measured data.
func TestCampaignSpecFingerprint(t *testing.T) {
	base := CampaignSpec{Name: "a", Spec: Spec{Nodes: 40, Seed: 21, Protocol: ProtoBitcoin}}
	fp := base.Fingerprint()
	if fp == 0 {
		t.Fatal("fingerprint is zero (reserved for unstamped results)")
	}
	// Pinned at the commit before Spec lost its always-zeroed omitempty
	// dispatch-worker field, and held when its build-worker field went:
	// removing a field the fingerprint always saw as zero must leave every
	// campaign fingerprint, and so every spooled fleet shard, valid.
	if want := uint64(0xc33e1069420a8f2c); fp != want {
		t.Errorf("fingerprint %#016x, want %#016x: spooled shards stamped with the old value no longer merge", fp, want)
	}

	defaulted := base
	defaulted.Replications = 1
	defaulted.Runs = 200
	defaulted.Deadline = 2 * time.Minute
	if defaulted.Fingerprint() != fp {
		t.Error("explicit defaults changed the fingerprint")
	}
	renamed := base
	renamed.Name = "b"
	if renamed.Fingerprint() != fp {
		t.Error("series name changed the fingerprint")
	}

	for label, mutate := range map[string]func(*CampaignSpec){
		"seed":     func(c *CampaignSpec) { c.Spec.Seed = 22 },
		"nodes":    func(c *CampaignSpec) { c.Spec.Nodes = 41 },
		"protocol": func(c *CampaignSpec) { c.Spec.Protocol = ProtoLBC },
		"runs":     func(c *CampaignSpec) { c.Runs = 100 },
	} {
		m := base
		mutate(&m)
		if m.Fingerprint() == fp {
			t.Errorf("changing %s did not change the fingerprint", label)
		}
	}
}

// TestRunUnitStampsFingerprint: shards leaving the shared execution path
// must carry the spec fingerprint Sweep and the fleet merge on.
func TestRunUnitStampsFingerprint(t *testing.T) {
	cs := CampaignSpec{Name: "unit", Spec: Spec{Nodes: 20, Seed: 3, Protocol: ProtoBitcoin}, Runs: 2, Deadline: 30 * time.Second}
	res, err := RunUnit(context.Background(), cs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != cs.Fingerprint() {
		t.Errorf("shard fingerprint %x, want %x", res.Fingerprint, cs.Fingerprint())
	}
	if res.Dist.N() == 0 {
		t.Error("unit produced no samples")
	}
	if _, err := RunUnit(context.Background(), cs, 5); err == nil {
		t.Error("out-of-range replication index accepted")
	}
}

// TestUnitObservationEventsAndTraceLoss runs one unit untraced and traced.
// The result and the traffic are the same either way; the events are not —
// untraced, the INVs that can tell their receiver nothing travel as tickets,
// so the unit dispatches fewer events than it sent INVs alone, and traced,
// every message lands as an event — and the observation says which happened.
// It also says what the trace export lost: this unit overruns the ring.
func TestUnitObservationEventsAndTraceLoss(t *testing.T) {
	cs := CampaignSpec{Name: "unit", Spec: Spec{Nodes: 200, Seed: 3, Protocol: ProtoBitcoin}, Runs: 30, Deadline: 30 * time.Second}
	plainRes, plain, err := RunUnitObserved(context.Background(), cs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs.Trace = filepath.Join(t.TempDir(), "trace.json")
	tracedRes, traced, err := RunUnitObserved(context.Background(), cs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plainRes.Dist.Equal(tracedRes.Dist) || plainRes.Lost != tracedRes.Lost || plain.Stats != traced.Stats {
		t.Fatal("tracing changed the unit's result or traffic")
	}
	msgs := plain.Stats.Messages
	invs, relayed := msgs[wire.CmdInv], msgs[wire.CmdInv]+msgs[wire.CmdGetData]+msgs[wire.CmdTx]
	if plain.Events >= invs || traced.Events < relayed {
		t.Errorf("events: untraced %d, traced %d, with %d INVs of %d relay messages sent", plain.Events, traced.Events, invs, relayed)
	}
	if plain.TraceKept != 0 || plain.TraceDropped != 0 {
		t.Errorf("untraced unit reports a trace: kept %d, dropped %d", plain.TraceKept, plain.TraceDropped)
	}
	if traced.TraceKept != obs.DefaultShardEvents || traced.TraceDropped == 0 {
		t.Errorf("traced unit kept %d events and dropped %d, want a full ring of %d and a loss", traced.TraceKept, traced.TraceDropped, obs.DefaultShardEvents)
	}
	var totals SweepTotals
	totals.add("unit", plain, false)
	totals.add("unit", traced, false)
	want := UnitTotals{Units: 2, Events: plain.Events + traced.Events, TraceKept: traced.TraceKept, TraceDropped: traced.TraceDropped}
	if got := totals.Campaign("unit"); got != want {
		t.Errorf("campaign totals %+v, want %+v", got, want)
	}
	if got := totals.All(); got != want {
		t.Errorf("sweep totals %+v, want %+v", got, want)
	}
}
