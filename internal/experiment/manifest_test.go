package experiment

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestManifestReadsUnitWalls: a campaign's walls are the sums the runner
// recorded under the injected clock. On one worker, a clock that advances
// 1 ms per reading makes every build and every run last exactly 1 ms.
func TestManifestReadsUnitWalls(t *testing.T) {
	var now atomic.Int64
	o := tinyOpts()
	o.Runs, o.Replications, o.Workers, o.Totals = 2, 2, 1, new(SweepTotals)
	o.Clock = func() int64 { return now.Add(int64(time.Millisecond)) }
	if _, err := Figure3Ctx(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	for _, c := range NewManifest("figure3", o, Figure3Campaigns(o)).Campaigns {
		if c.Timed != 2 || c.BuildSeconds != 0.002 || c.RunSeconds != 0.002 {
			t.Errorf("campaign %s: %d units timed, build %g s, run %g s; want 2, 0.002, 0.002", c.Name, c.Timed, c.BuildSeconds, c.RunSeconds)
		}
	}
}

// TestManifestSameAtEveryWorkerCount pins the deterministic part of a
// run's manifest: a figure swept on one worker and on two says the same
// thing — fingerprints, replication seeds, expected and dispatched events,
// dispatch positions — and what it says is what ran.
func TestManifestSameAtEveryWorkerCount(t *testing.T) {
	var manifests []Manifest
	for _, workers := range []int{1, 2} {
		o := Options{Nodes: 120, Runs: 5, Seed: 3, Replications: 2, Workers: workers, Totals: new(SweepTotals)}
		if _, err := Figure3Ctx(context.Background(), o); err != nil {
			t.Fatal(err)
		}
		manifests = append(manifests, NewManifest("figure3", o, Figure3Campaigns(o)))
	}
	if !reflect.DeepEqual(manifests[0], manifests[1]) {
		t.Fatalf("manifest differs by worker count:\n  %+v\n  %+v", manifests[0], manifests[1])
	}
	m := manifests[0]
	if m.Experiment != "figure3" || m.Nodes != 120 || m.Runs != 5 || m.Replications != 2 || m.Seed != 3 || m.Deadline != "2m0s" || m.Churn {
		t.Errorf("resolved options: %+v", m)
	}
	campaigns := Figure3Campaigns(Options{Nodes: 120, Runs: 5, Seed: 3, Replications: 2})
	// Six units, the BCBPT campaign's two dispatched first.
	for i, want := range [][]int{{2, 3}, {4, 5}, {0, 1}} {
		c := m.Campaigns[i]
		if c.Name != campaigns[i].Name || c.Fingerprint == "" || c.Units != 2 || !reflect.DeepEqual(c.Dispatch, want) {
			t.Errorf("campaign %d: %+v, want %s dispatched at %v", i, c, campaigns[i].Name, want)
		}
		if c.ExpectedEvents != 2*campaigns[i].expectedEvents() || c.Events == 0 {
			t.Errorf("campaign %s: expected %d events, dispatched %d", c.Name, c.ExpectedEvents, c.Events)
		}
		if want := []int64{campaigns[i].ReplicationSeed(0), campaigns[i].ReplicationSeed(1)}; !reflect.DeepEqual(c.Seeds, want) || want[0] == want[1] {
			t.Errorf("campaign %s: seeds %v, want %v", c.Name, c.Seeds, want)
		}
	}
}
