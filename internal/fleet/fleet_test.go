package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/experiment"
	"repro/internal/measure"
)

// testSweep is the shared workload: three campaigns, several replications
// each so the queue actually distributes.
func testSweep() []experiment.CampaignSpec {
	spec := func(seed int64, proto experiment.ProtocolKind) experiment.Spec {
		return experiment.Spec{Nodes: 40, Seed: seed, Protocol: proto}
	}
	return []experiment.CampaignSpec{
		{Name: "bitcoin", Spec: spec(21, experiment.ProtoBitcoin), Replications: 3, Runs: 3, Deadline: 30 * time.Second},
		{Name: "lbc", Spec: spec(21, experiment.ProtoLBC), Replications: 2, Runs: 3, Deadline: 30 * time.Second},
		{Name: "bitcoin-seed22", Spec: spec(22, experiment.ProtoBitcoin), Replications: 2, Runs: 3, Deadline: 30 * time.Second},
	}
}

// serialSweep runs the same specs through the local engine — the baseline
// every fleet result must match bit for bit.
func serialSweep(t *testing.T) []experiment.CampaignOutcome {
	t.Helper()
	out, err := experiment.NewRunner(1).Sweep(context.Background(), testSweep())
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	return out
}

// sameOutcomes asserts the fleet outcomes are bit-identical to the serial
// ones: distribution state, loss counts, fingerprints.
func sameOutcomes(t *testing.T, fleet, serial []experiment.CampaignOutcome) {
	t.Helper()
	if len(fleet) != len(serial) {
		t.Fatalf("outcome count %d vs %d", len(fleet), len(serial))
	}
	for i := range serial {
		f, s := fleet[i], serial[i]
		if f.Name != s.Name || f.Replications != s.Replications {
			t.Errorf("outcome %d: (%q, %d reps) vs (%q, %d reps)", i, f.Name, f.Replications, s.Name, s.Replications)
		}
		if !f.Result.Dist.Equal(s.Result.Dist) {
			t.Errorf("campaign %s: distributions differ: %v vs %v", s.Name, f.Result.Dist, s.Result.Dist)
		}
		if f.Result.Lost != s.Result.Lost {
			t.Errorf("campaign %s: lost %d vs %d", s.Name, f.Result.Lost, s.Result.Lost)
		}
		if f.Result.Fingerprint != s.Result.Fingerprint {
			t.Errorf("campaign %s: fingerprint %x vs %x", s.Name, f.Result.Fingerprint, s.Result.Fingerprint)
		}
	}
}

// startCoordinator serves a coordinator over loopback HTTP.
func startCoordinator(t *testing.T, campaigns []experiment.CampaignSpec, cfg CoordinatorConfig) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := NewCoordinator(campaigns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c)
	t.Cleanup(ts.Close)
	return c, ts
}

// TestFleetMatchesSerialSweep is the subsystem's core guarantee: a sweep
// fanned over two workers merges bit-identical to the one-machine sweep.
func TestFleetMatchesSerialSweep(t *testing.T) {
	serial := serialSweep(t)
	c, ts := startCoordinator(t, testSweep(), CoordinatorConfig{})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	errc := make(chan error, 2)
	for i, name := range []string{"worker-a", "worker-b"} {
		w := &Worker{CoordinatorURL: ts.URL, Name: name, Parallelism: 1 + i, RetryInterval: 10 * time.Millisecond}
		go func() { errc <- w.Run(ctx) }()
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	out, err := c.Outcomes()
	if err != nil {
		t.Fatal(err)
	}
	sameOutcomes(t, out, serial)

	status, err := NewClient(ts.URL, nil).Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !status.Complete || status.Done != status.Units || status.Units != 7 {
		t.Errorf("status after completion: %+v", status)
	}
}

// TestFleetFailoverMatchesSerialSweep kills a worker mid-lease: a
// saboteur client leases a unit and goes silent, a real worker drains the
// queue, and after the lease TTL the abandoned unit is reassigned — the
// merged result must still be bit-identical to the serial sweep, and the
// dead worker's late commit must be rejected.
func TestFleetFailoverMatchesSerialSweep(t *testing.T) {
	serial := serialSweep(t)
	c, ts := startCoordinator(t, testSweep(), CoordinatorConfig{LeaseTTL: 300 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	saboteur := NewClient(ts.URL, nil)
	dead, err := saboteur.Lease(ctx, "doomed")
	if err != nil {
		t.Fatal(err)
	}
	if dead.Status != LeaseGranted {
		t.Fatalf("saboteur lease status %q, want granted", dead.Status)
	}
	// The saboteur never commits: its unit must come back after the TTL.

	w := &Worker{CoordinatorURL: ts.URL, Name: "survivor", Parallelism: 2, RetryInterval: 20 * time.Millisecond}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("surviving worker: %v", err)
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	status := c.Status()
	if status.Reassigned < 1 {
		t.Errorf("no lease was reassigned; the saboteur's unit was never recovered (%+v)", status)
	}
	out, err := c.Outcomes()
	if err != nil {
		t.Fatal(err)
	}
	sameOutcomes(t, out, serial)

	// The dead worker comes back from the grave with a bit-identical
	// shard; at-most-once commit must turn it away.
	sweep := c.Sweep()
	res, err := experiment.RunUnit(ctx, sweep.Campaigns[dead.Lease.Campaign], dead.Lease.Replication)
	if err != nil {
		t.Fatal(err)
	}
	data, err := measure.EncodeCampaignResult(res)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := saboteur.Commit(ctx, CommitRequest{
		Worker:      "doomed",
		LeaseID:     dead.Lease.ID,
		Campaign:    dead.Lease.Campaign,
		Replication: dead.Lease.Replication,
		Result:      data,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted {
		t.Error("late commit from an expired lease was accepted (double merge)")
	}
}

// TestCoordinatorRejectsForeignFingerprint: a shard measured under a
// different spec must be rejected at commit, not pooled.
func TestCoordinatorRejectsForeignFingerprint(t *testing.T) {
	_, ts := startCoordinator(t, testSweep(), CoordinatorConfig{})
	ctx := context.Background()
	client := NewClient(ts.URL, nil)
	lease, err := client.Lease(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := measure.EncodeCampaignResult(measure.CampaignResult{Fingerprint: 12345})
	if err != nil {
		t.Fatal(err)
	}
	ack, err := client.Commit(ctx, CommitRequest{
		LeaseID:     lease.Lease.ID,
		Campaign:    lease.Lease.Campaign,
		Replication: lease.Lease.Replication,
		Result:      foreign,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Not stale: resending would be rejected identically, so the worker
	// must fail loudly rather than move on.
	if ack.Accepted || ack.Stale || !strings.Contains(ack.Reason, "fingerprint") {
		t.Errorf("foreign-fingerprint commit: %+v", ack)
	}
}

// TestCommitWireRoundTrip: what Client.Commit puts in the query and the
// body is what the coordinator's parser reads back, for a shard commit
// with timings and for an error commit.
func TestCommitWireRoundTrip(t *testing.T) {
	for _, req := range []CommitRequest{
		{Worker: "w&=? 1", LeaseID: 1<<64 - 1, Campaign: 2, Replication: 7, Result: []byte{0, 1, 2, '&'},
			BuildMicros: 1_200_000, RunMicros: 3, ShipMicros: 1},
		{Worker: "w", LeaseID: 3, Error: "unit failed: 100% of runs & more"},
		{},
	} {
		query, body := req.wire()
		got, err := parseCommit(query, body)
		if err != nil {
			t.Errorf("parse %q: %v", query, err)
			continue
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("commit changed on the wire:\n got %+v\nwant %+v", got, req)
		}
	}
}

// TestWorkerRefusesVersionSkew: a worker whose binary derives different
// fingerprints than the coordinator must refuse before running anything.
func TestWorkerRefusesVersionSkew(t *testing.T) {
	c, err := NewCoordinator(testSweep(), CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// A man-in-the-middle coordinator whose sweep fingerprints are off by
	// one — standing in for a coordinator running different code.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathSweep {
			sweep := c.Sweep()
			tampered := append([]uint64(nil), sweep.Fingerprints...)
			for i := range tampered {
				tampered[i]++
			}
			json.NewEncoder(w).Encode(SweepResponse{Campaigns: sweep.Campaigns, Fingerprints: tampered})
			return
		}
		c.ServeHTTP(w, r)
	}))
	defer ts.Close()

	w := &Worker{CoordinatorURL: ts.URL, Name: "skewed", Parallelism: 1}
	err = w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "version skew") {
		t.Errorf("skewed worker ran anyway: %v", err)
	}
	if got := c.Status().Done; got != 0 {
		t.Errorf("skewed worker committed %d units", got)
	}
}

// TestFleetFailsFastOnBadSpec: a deterministically failing unit fails the
// sweep (it would fail identically on every machine) instead of cycling
// through the fleet forever.
func TestFleetFailsFastOnBadSpec(t *testing.T) {
	bad := []experiment.CampaignSpec{{
		Name: "bad",
		Spec: experiment.Spec{Nodes: 2, Seed: 1, Protocol: experiment.ProtoBitcoin},
		Runs: 2, Replications: 2, Deadline: time.Second,
	}}
	c, ts := startCoordinator(t, bad, CoordinatorConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	w := &Worker{CoordinatorURL: ts.URL, Name: "w", Parallelism: 1, RetryInterval: 10 * time.Millisecond}
	if err := w.Run(ctx); err == nil {
		t.Error("worker did not surface the unit failure")
	}
	if err := c.Wait(ctx); err == nil {
		t.Error("coordinator did not record the sweep failure")
	}
	if _, err := c.Outcomes(); err == nil {
		t.Error("outcomes of a failed sweep returned no error")
	}
}

// TestCoordinatorRejectsUnshippableSweep: specs that cannot serialize
// must be refused at construction, not discovered by a worker. A
// BaseUTXO-seeded spec would otherwise ship with a silently nil'd ledger
// and measure the wrong experiment.
func TestCoordinatorRejectsUnshippableSweep(t *testing.T) {
	if _, err := NewCoordinator(nil, CoordinatorConfig{}); err == nil {
		t.Error("empty sweep accepted")
	}
	utxoSweep := testSweep()
	utxoSweep[1].Spec.BaseUTXO = chain.NewUTXOSet()
	if _, err := NewCoordinator(utxoSweep, CoordinatorConfig{}); err == nil || !strings.Contains(err.Error(), "BaseUTXO") {
		t.Errorf("BaseUTXO-seeded sweep accepted (err = %v)", err)
	}
}
