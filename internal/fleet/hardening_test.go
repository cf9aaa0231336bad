package fleet

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/measure"
)

// fakeShard fabricates a commit body that passes the coordinator's
// decode and fingerprint checks — enough to drive the queue state
// machine without simulating anything.
func fakeShard(t *testing.T, c *Coordinator, campaign int) []byte {
	t.Helper()
	data, err := measure.EncodeCampaignResult(measure.CampaignResult{Fingerprint: c.prints[campaign]})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// oneUnitSweep is a single-unit queue: once its one lease is out, a lease
// poll says whether that lease still stands (wait), was committed (done)
// or the sweep failed.
func oneUnitSweep() []experiment.CampaignSpec {
	return []experiment.CampaignSpec{{
		Name: "one",
		Spec: experiment.Spec{Nodes: 40, Seed: 21, Protocol: experiment.ProtoBitcoin},
		Runs: 1, Replications: 1, Deadline: 30 * time.Second,
	}}
}

// stubbedCoordinator builds a coordinator on a test-controlled clock.
func stubbedCoordinator(t *testing.T, campaigns []experiment.CampaignSpec) (*Coordinator, *time.Time) {
	t.Helper()
	clock := time.Unix(1_700_000_000, 0)
	c, err := NewCoordinator(campaigns, CoordinatorConfig{
		SpoolDir: t.TempDir(),
		now:      func() time.Time { return clock },
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, &clock
}

// TestLeasesFollowDispatchOrder: the coordinator hands units out in
// experiment.DispatchOrder — the queue Runner.Sweep runs locally, longest
// unit first — and once every lease has expired, reassignment walks the
// same order.
func TestLeasesFollowDispatchOrder(t *testing.T) {
	spec := func(proto experiment.ProtocolKind) experiment.Spec {
		return experiment.Spec{Nodes: 40, Seed: 21, Protocol: proto}
	}
	sweep := []experiment.CampaignSpec{
		{Name: "short", Spec: spec(experiment.ProtoBitcoin), Runs: 3, Replications: 2},
		{Name: "long", Spec: spec(experiment.ProtoBCBPT), Runs: 3, Replications: 2},
		{Name: "middle", Spec: spec(experiment.ProtoBitcoin), Runs: 30, Replications: 1},
	}
	type ref struct{ campaign, replication int }
	var units []ref // flat, campaign-major: what DispatchOrder indexes
	for ci, cs := range sweep {
		for rep := range cs.Replications {
			units = append(units, ref{ci, rep})
		}
	}
	var want []ref
	for _, i := range experiment.DispatchOrder(sweep) {
		want = append(want, units[i])
	}
	if first := want[0]; first != (ref{1, 0}) {
		t.Fatalf("dispatch order starts at %+v, want the BCBPT campaign's replication 0", first)
	}

	c, clock := stubbedCoordinator(t, sweep)
	leaseAll := func(worker string) []ref {
		var got []ref
		for range units {
			r := c.leaseUnit()
			if r.Status != LeaseGranted {
				t.Fatalf("%s: lease status %q, want granted", worker, r.Status)
			}
			got = append(got, ref{r.Lease.Campaign, r.Lease.Replication})
		}
		return got
	}
	if got := leaseAll("first"); !reflect.DeepEqual(got, want) {
		t.Errorf("first leases granted %v, want dispatch order %v", got, want)
	}
	if r := c.leaseUnit(); r.Status != LeaseWait {
		t.Errorf("fully leased queue answered %q, want wait", r.Status)
	}
	*clock = clock.Add(leaseTTL)
	if got := leaseAll("reclaimer"); !reflect.DeepEqual(got, want) {
		t.Errorf("expired leases reassigned %v, want dispatch order %v", got, want)
	}
}

// TestCommitRacesExpiry pins the commit edge cases around lease expiry:
// once a unit is committed a second commit is refused; a lease superseded
// by an expiry reassignment cannot commit, while its successor can; and a
// lease past its deadline that nobody has reclaimed still commits — expiry
// only frees a unit for the next request, it does not void the lease.
func TestCommitRacesExpiry(t *testing.T) {
	commit := func(c *Coordinator, l *Lease) CommitResponse {
		return c.commitUnit(CommitRequest{
			Worker: "w", LeaseID: l.ID, Campaign: l.Campaign, Replication: l.Replication,
			Result: fakeShard(t, c, l.Campaign),
		})
	}

	t.Run("after commit", func(t *testing.T) {
		c, _ := stubbedCoordinator(t, oneUnitSweep())
		l := c.leaseUnit().Lease
		if ack := commit(c, l); !ack.Accepted {
			t.Fatalf("commit rejected: %+v", ack)
		}
		if ack := commit(c, l); ack.Accepted || ack.Reason != "unit already committed" {
			t.Errorf("second commit: %+v", ack)
		}
	})

	t.Run("after expiry reassignment", func(t *testing.T) {
		c, clock := stubbedCoordinator(t, oneUnitSweep())
		l1 := c.leaseUnit().Lease
		*clock = clock.Add(leaseTTL)
		l2 := c.leaseUnit()
		if l2.Status != LeaseGranted {
			t.Fatalf("expired unit not reassigned: %q", l2.Status)
		}
		if ack := commit(c, l1); ack.Accepted || ack.Reason != "lease superseded" {
			t.Errorf("commit of the superseded lease: %+v", ack)
		}
		if ack := commit(c, l2.Lease); !ack.Accepted {
			t.Errorf("commit of the current lease: %+v", ack)
		}
	})

	t.Run("expired but not reclaimed", func(t *testing.T) {
		c, clock := stubbedCoordinator(t, oneUnitSweep())
		l := c.leaseUnit().Lease
		*clock = clock.Add(leaseTTL + time.Minute)
		if ack := commit(c, l); !ack.Accepted {
			t.Fatalf("commit of an expired, unreclaimed lease: %+v", ack)
		}
		if r := c.leaseUnit(); r.Status != LeaseDone {
			t.Errorf("queue after the late commit: %+v, want done", r)
		}
	})
}

// TestSpoolFaultFailsSweep: a coordinator that cannot persist shards
// cannot finish the sweep — a spool I/O fault fails it: the commit that
// hit it is refused naming the spool, every later lease poll answers
// failed, and Outcomes returns the fault.
func TestSpoolFaultFailsSweep(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spool")
	c, err := NewCoordinator(oneUnitSweep(), CoordinatorConfig{SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l := c.leaseUnit().Lease
	// The spool directory vanishes out from under the coordinator
	// (standing in for ENOSPC/EIO — any unwritable spool).
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	ack := c.commitUnit(CommitRequest{
		Worker: "w", LeaseID: l.ID, Campaign: l.Campaign, Replication: l.Replication,
		Result: fakeShard(t, c, l.Campaign),
	})
	if ack.Accepted || !strings.Contains(ack.Reason, "spool") {
		t.Errorf("commit against broken spool: %+v", ack)
	}
	if resp := c.leaseUnit(); resp.Status != LeaseFailed || !strings.Contains(resp.Failure, "spool") {
		t.Errorf("poll after spool fault: %+v", resp)
	}
	if _, err := c.Outcomes(); err == nil || !strings.Contains(err.Error(), "spool") {
		t.Errorf("outcomes after spool fault: %v, want the fault", err)
	}
}

// zeroes is an endless request body that counts what was read of it.
type zeroes struct{ read int64 }

func (z *zeroes) Read(p []byte) (int, error) {
	clear(p)
	z.read += int64(len(p))
	return len(p), nil
}

// TestCommitBodyLimit: a commit body is bounded. One that declares more
// than maxBody is refused on its Content-Length, before the coordinator
// reads or buffers any of it; one of undeclared length is cut off by the
// MaxBytesReader at the limit. Either way the lease is untouched and
// still commits.
func TestCommitBodyLimit(t *testing.T) {
	c, err := NewCoordinator(oneUnitSweep(), CoordinatorConfig{SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	l := c.leaseUnit().Lease
	commit := CommitRequest{Worker: "w", LeaseID: l.ID, Campaign: l.Campaign, Replication: l.Replication,
		Result: fakeShard(t, c, l.Campaign)}
	query, _ := commit.wire()

	body := &zeroes{}
	req := httptest.NewRequest(http.MethodPost, PathCommit+"?"+query, body)
	req.ContentLength = maxBody + 1
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize commit answered %d, want 413", rec.Code)
	}
	if body.read != 0 {
		t.Errorf("coordinator read %d bytes of a body it had to refuse unread", body.read)
	}
	if ack := c.commitUnit(commit); !ack.Accepted {
		t.Errorf("commit after a refused oversize body: %+v", ack)
	}

	// Undeclared length: the reader enforces the same bound.
	req = httptest.NewRequest(http.MethodPost, PathCommit, &zeroes{})
	req.ContentLength = -1
	var tooLarge *http.MaxBytesError
	if _, err := readBody(httptest.NewRecorder(), req, 4096); !errors.As(err, &tooLarge) {
		t.Errorf("reading an endless body under a 4 KiB limit: %v, want MaxBytesError", err)
	}
}

// TestCommitResendKeepsPublishedShard: a worker whose commit timed out
// resends it while the first handler may still be running. Whatever the
// interleaving, exactly one commit is accepted, the rest are refused as
// already committed, and the published spool file is the shard, whole — a
// resend writes its own temp file and can never truncate one that was (or
// is about to be) renamed into place.
func TestCommitResendKeepsPublishedShard(t *testing.T) {
	dir := t.TempDir()
	c, client := startCoordinator(t, testSweep(), CoordinatorConfig{SpoolDir: dir})
	ctx := context.Background()
	lease, err := client.Lease(ctx, "resender")
	if err != nil || lease.Status != LeaseGranted {
		t.Fatalf("lease: %v %+v", err, lease)
	}
	l := lease.Lease
	res, err := experiment.RunUnit(ctx, c.campaigns[l.Campaign], l.Replication)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := measure.EncodeCampaignResult(res)
	if err != nil {
		t.Fatal(err)
	}
	commit := CommitRequest{Worker: "resender", LeaseID: l.ID, Campaign: l.Campaign, Replication: l.Replication, Result: shard}

	const sends = 8
	acks := make(chan CommitResponse, sends)
	for i := 0; i < sends; i++ {
		go func() {
			ack, err := client.Commit(ctx, commit)
			if err != nil {
				t.Error(err)
			}
			acks <- ack
		}()
	}
	accepted := 0
	for i := 0; i < sends; i++ {
		switch ack := <-acks; {
		case ack.Accepted:
			accepted++
		case ack.Reason != "unit already committed":
			t.Errorf("resent commit rejected for another reason than the accepted one: %+v", ack)
		}
	}
	if accepted != 1 {
		t.Errorf("%d of %d identical commits accepted, want exactly 1", accepted, sends)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != spoolName(l.Campaign, l.Replication) {
		t.Errorf("spool dir after resends: %v, want only the published shard", entries)
	}
	got, err := os.ReadFile(c.spoolPath(l.Campaign, l.Replication))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shard) {
		t.Errorf("published spool file is %d bytes, differs from the %d-byte shard committed", len(got), len(shard))
	}
}

// TestSpooledOutcomesMatchSerial pins the spool directory's hygiene
// around a full sweep: the merge still matches Runner.Sweep, the
// directory ends holding exactly the committed shards, a late commit
// leaves no temp file behind, and Outcomes can re-read the spool.
func TestSpooledOutcomesMatchSerial(t *testing.T) {
	serial := serialSweep(t)
	dir := t.TempDir()
	// A reused spool directory: leftovers of a previous sweep — a
	// committed shard and a crash-orphaned temp file — must be cleaned
	// at startup, not interleaved with this sweep's shards.
	for _, stale := range []string{"campaign-000-rep-00000.shard", "campaign-009-rep-00009.shard.tmp-lease3"} {
		if err := os.WriteFile(filepath.Join(dir, stale), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, client := startCoordinator(t, testSweep(), CoordinatorConfig{SpoolDir: dir})
	if status := drain(t, client, testSweep()); status != LeaseDone {
		t.Fatalf("queue after every unit committed: %q, want done", status)
	}
	out, err := c.Outcomes()
	if err != nil {
		t.Fatal(err)
	}
	sameOutcomes(t, out, serial)

	// A late commit against the finished queue spools a temp file and
	// must clean it up when rejected.
	ack := c.commitUnit(CommitRequest{
		Worker: "ghost", LeaseID: 9999, Campaign: 0, Replication: 0,
		Result: fakeShard(t, c, 0),
	})
	if ack.Accepted || ack.Reason != "unit already committed" {
		t.Errorf("late commit: %+v", ack)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	var want []string
	for ci, cs := range testSweep() {
		for rep := range cs.Replications {
			want = append(want, spoolName(ci, rep))
		}
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("spool dir holds %v, want exactly the committed shards %v", names, want)
	}

	// The merge is re-readable: Outcomes a second time still matches.
	out, err = c.Outcomes()
	if err != nil {
		t.Fatal(err)
	}
	sameOutcomes(t, out, serial)
}
