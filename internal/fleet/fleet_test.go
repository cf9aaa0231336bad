package fleet

import (
	"bytes"
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
// every fleet result must match byte for byte.
func serialSweep(t *testing.T) []experiment.CampaignOutcome {
	t.Helper()
	out, err := experiment.NewRunner(1).Sweep(context.Background(), testSweep())
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	return out
}

// sameOutcomes asserts the fleet outcomes are the serial ones byte for
// byte: names, replication counts, and each merged result's shard
// encoding (every sample, the loss count, the fingerprint).
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
		fb, err := measure.EncodeCampaignResult(f.Result)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := measure.EncodeCampaignResult(s.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fb, sb) {
			t.Errorf("campaign %s: merged result differs from the serial sweep's: %v vs %v", s.Name, f.Result.Dist, s.Result.Dist)
		}
	}
}

// startCoordinator serves a coordinator over loopback HTTP and returns a
// client of it.
func startCoordinator(t *testing.T, campaigns []experiment.CampaignSpec, cfg CoordinatorConfig) (*Coordinator, *Client) {
	t.Helper()
	c, err := NewCoordinator(campaigns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c)
	t.Cleanup(ts.Close)
	return c, NewClient(ts.URL, ts.Client())
}

// drain leases units over HTTP until the coordinator grants no more, runs
// each through experiment.RunUnit and commits its shard, as a worker
// would. It returns the status of the first lease request not granted.
func drain(t *testing.T, client *Client, campaigns []experiment.CampaignSpec) LeaseStatus {
	t.Helper()
	ctx := context.Background()
	for {
		lr, err := client.Lease(ctx, "drain")
		if err != nil {
			t.Fatal(err)
		}
		if lr.Status != LeaseGranted {
			return lr.Status
		}
		l := lr.Lease
		cs := campaigns[l.Campaign]
		if seed := cs.ReplicationSeed(l.Replication); seed != l.Seed {
			t.Fatalf("lease %+v: coordinator seed %d, local derivation %d", l, l.Seed, seed)
		}
		res, err := experiment.RunUnit(ctx, cs, l.Replication)
		if err != nil {
			t.Fatal(err)
		}
		shard, err := measure.EncodeCampaignResult(res)
		if err != nil {
			t.Fatal(err)
		}
		ack, err := client.Commit(ctx, CommitRequest{Worker: "drain", LeaseID: l.ID, Campaign: l.Campaign, Replication: l.Replication, Result: shard})
		if err != nil {
			t.Fatal(err)
		}
		if !ack.Accepted {
			t.Fatalf("commit of unit (%d, %d) rejected: %s", l.Campaign, l.Replication, ack.Reason)
		}
	}
}

// TestFleetMatchesSerialSweep is the subsystem's core guarantee: every
// unit leased over HTTP, run through RunUnit and committed merges, from
// the spool, byte for byte into what Runner.Sweep returns for the same
// campaigns.
func TestFleetMatchesSerialSweep(t *testing.T) {
	serial := serialSweep(t)
	c, client := startCoordinator(t, testSweep(), CoordinatorConfig{SpoolDir: t.TempDir()})
	if status := drain(t, client, testSweep()); status != LeaseDone {
		t.Fatalf("queue after every unit committed: %q, want done", status)
	}
	out, err := c.Outcomes()
	if err != nil {
		t.Fatal(err)
	}
	sameOutcomes(t, out, serial)
}

// TestFleetFailoverMatchesSerialSweep kills a worker mid-lease: a
// saboteur leases a unit and goes silent, the rest of the queue drains,
// and once the lease has expired the abandoned unit is reassigned — the
// merged result must still be byte-identical to the serial sweep, and the
// dead worker's late commit must be rejected.
func TestFleetFailoverMatchesSerialSweep(t *testing.T) {
	serial := serialSweep(t)
	// The clock is read by the server's goroutines: atomic, not a captured
	// time.Time.
	var clock atomic.Int64
	clock.Store(time.Unix(1_700_000_000, 0).UnixNano())
	c, client := startCoordinator(t, testSweep(), CoordinatorConfig{
		SpoolDir: t.TempDir(),
		now:      func() time.Time { return time.Unix(0, clock.Load()) },
	})
	ctx := context.Background()
	dead, err := client.Lease(ctx, "doomed")
	if err != nil {
		t.Fatal(err)
	}
	if dead.Status != LeaseGranted {
		t.Fatalf("saboteur lease status %q, want granted", dead.Status)
	}
	if status := drain(t, client, testSweep()); status != LeaseWait {
		t.Fatalf("queue with one live abandoned lease: %q, want wait", status)
	}
	clock.Add(int64(leaseTTL))
	if status := drain(t, client, testSweep()); status != LeaseDone {
		t.Fatalf("queue after the abandoned unit's reassignment: %q, want done", status)
	}
	out, err := c.Outcomes()
	if err != nil {
		t.Fatal(err)
	}
	sameOutcomes(t, out, serial)

	// The dead worker comes back from the grave with a bit-identical
	// shard; at-most-once commit must turn it away.
	l := dead.Lease
	res, err := experiment.RunUnit(ctx, testSweep()[l.Campaign], l.Replication)
	if err != nil {
		t.Fatal(err)
	}
	data, err := measure.EncodeCampaignResult(res)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := client.Commit(ctx, CommitRequest{Worker: "doomed", LeaseID: l.ID, Campaign: l.Campaign, Replication: l.Replication, Result: data})
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
	_, client := startCoordinator(t, testSweep(), CoordinatorConfig{SpoolDir: t.TempDir()})
	ctx := context.Background()
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
	if ack.Accepted || !strings.Contains(ack.Reason, "fingerprint") {
		t.Errorf("foreign-fingerprint commit: %+v", ack)
	}
}

// TestCommitWireRoundTrip: what Client.Commit puts in the query and the
// body is what the coordinator's parser reads back.
func TestCommitWireRoundTrip(t *testing.T) {
	for _, req := range []CommitRequest{
		{Worker: "w&=? 1", LeaseID: 1<<64 - 1, Campaign: 2, Replication: 7, Result: []byte{0, 1, 2, '&'}},
		{Worker: "w", LeaseID: 3, Result: []byte{}},
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

// TestCoordinatorRejectsUnshippableSweep: a sweep with nothing to ship, or
// nowhere to spool it, must be refused at construction, not discovered by
// a worker. Every spec is plain data, so an empty sweep is the one sweep a
// coordinator refuses.
func TestCoordinatorRejectsUnshippableSweep(t *testing.T) {
	if _, err := NewCoordinator(nil, CoordinatorConfig{SpoolDir: t.TempDir()}); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := NewCoordinator(testSweep(), CoordinatorConfig{}); err == nil {
		t.Error("coordinator without a spool directory accepted")
	}
}
