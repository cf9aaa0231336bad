package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
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

// oneUnitSweep is a single-unit queue, so expiry reassignment cannot be
// masked by pending units.
func oneUnitSweep() []experiment.CampaignSpec {
	return []experiment.CampaignSpec{{
		Name: "one",
		Spec: experiment.Spec{Nodes: 40, Seed: 21, Protocol: experiment.ProtoBitcoin},
		Runs: 1, Replications: 1, Deadline: 30 * time.Second,
	}}
}

// stubbedCoordinator builds a coordinator on a test-controlled clock.
func stubbedCoordinator(t *testing.T, campaigns []experiment.CampaignSpec, ttl time.Duration) (*Coordinator, *time.Time) {
	t.Helper()
	clock := time.Unix(1_700_000_000, 0)
	c, err := NewCoordinator(campaigns, CoordinatorConfig{
		LeaseTTL: ttl,
		now:      func() time.Time { return clock },
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, &clock
}

// TestRenewalKeepsSlowUnitAlive is the heartbeat's core promise: a unit
// whose wall time spans many TTLs is never reassigned as long as its
// worker keeps renewing — LeaseTTL can shrink to seconds without
// thrashing slow units.
func TestRenewalKeepsSlowUnitAlive(t *testing.T) {
	const ttl = 100 * time.Millisecond
	c, clock := stubbedCoordinator(t, testSweep(), ttl)

	granted := c.leaseUnit("slow")
	if granted.Status != LeaseGranted {
		t.Fatalf("lease status %q, want granted", granted.Status)
	}
	slow := granted.Lease

	// The slow unit outlives 18 TTLs, heartbeating at a safe cadence.
	for i := 0; i < 20; i++ {
		*clock = clock.Add(90 * time.Millisecond)
		r := c.renewLease(RenewRequest{Worker: "slow", LeaseID: slow.ID, Campaign: slow.Campaign, Replication: slow.Replication})
		if !r.Renewed {
			t.Fatalf("renewal %d refused: %s", i, r.Reason)
		}
	}

	// Drain the rest of the queue: the slow unit must never be handed
	// out again.
	for i := 0; i < len(c.units)-1; i++ {
		r := c.leaseUnit("drain")
		if r.Status != LeaseGranted {
			t.Fatalf("drain lease %d: status %q", i, r.Status)
		}
		if r.Lease.Campaign == slow.Campaign && r.Lease.Replication == slow.Replication {
			t.Fatalf("renewed slow unit was reassigned to another worker")
		}
	}
	if r := c.leaseUnit("drain"); r.Status != LeaseWait {
		t.Fatalf("fully leased queue returned %q, want wait", r.Status)
	}
	st := c.Status()
	if st.Reassigned != 0 || st.Renewed != 20 || st.Leased != st.Units {
		t.Errorf("status after renewals: %+v", st)
	}

	// The long-held lease still commits: the lease ID never changed.
	ack := c.commitUnit(CommitRequest{
		Worker: "slow", LeaseID: slow.ID,
		Campaign: slow.Campaign, Replication: slow.Replication,
		Result: fakeShard(t, c, slow.Campaign),
	})
	if !ack.Accepted {
		t.Fatalf("commit after 18 renewed TTLs rejected: %+v", ack)
	}
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

	const ttl = time.Minute
	c, clock := stubbedCoordinator(t, sweep, ttl)
	leaseAll := func(worker string) []ref {
		var got []ref
		for range units {
			r := c.leaseUnit(worker)
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
	*clock = clock.Add(ttl)
	if got := leaseAll("reclaimer"); !reflect.DeepEqual(got, want) {
		t.Errorf("expired leases reassigned %v, want dispatch order %v", got, want)
	}
	if st := c.Status(); st.Reassigned != len(units) {
		t.Errorf("reassigned %d of %d expired leases", st.Reassigned, len(units))
	}
}

// TestRenewalRacesCommitAndExpiry pins the renewal edge cases: a
// committed unit refuses renewal, a superseded lease refuses renewal,
// and a lease that expired without being reclaimed is revived.
func TestRenewalRacesCommitAndExpiry(t *testing.T) {
	const ttl = 100 * time.Millisecond

	t.Run("after commit", func(t *testing.T) {
		c, _ := stubbedCoordinator(t, oneUnitSweep(), ttl)
		l := c.leaseUnit("w").Lease
		if ack := c.commitUnit(CommitRequest{
			Worker: "w", LeaseID: l.ID, Campaign: l.Campaign, Replication: l.Replication,
			Result: fakeShard(t, c, l.Campaign),
		}); !ack.Accepted {
			t.Fatalf("commit rejected: %+v", ack)
		}
		r := c.renewLease(RenewRequest{Worker: "w", LeaseID: l.ID, Campaign: l.Campaign, Replication: l.Replication})
		if r.Renewed || !strings.Contains(r.Reason, "committed") {
			t.Errorf("renewal after commit: %+v", r)
		}
	})

	t.Run("after expiry reassignment", func(t *testing.T) {
		c, clock := stubbedCoordinator(t, oneUnitSweep(), ttl)
		l1 := c.leaseUnit("w1").Lease
		*clock = clock.Add(ttl + time.Millisecond)
		l2 := c.leaseUnit("w2")
		if l2.Status != LeaseGranted {
			t.Fatalf("expired unit not reassigned: %q", l2.Status)
		}
		r := c.renewLease(RenewRequest{Worker: "w1", LeaseID: l1.ID, Campaign: l1.Campaign, Replication: l1.Replication})
		if r.Renewed || !strings.Contains(r.Reason, "superseded") {
			t.Errorf("renewal of superseded lease: %+v", r)
		}
		if r := c.renewLease(RenewRequest{Worker: "w2", LeaseID: l2.Lease.ID, Campaign: l2.Lease.Campaign, Replication: l2.Lease.Replication}); !r.Renewed {
			t.Errorf("current lease refused renewal: %+v", r)
		}
	})

	t.Run("revival before reassignment", func(t *testing.T) {
		c, clock := stubbedCoordinator(t, oneUnitSweep(), ttl)
		l := c.leaseUnit("w").Lease
		*clock = clock.Add(ttl + time.Millisecond)
		if st := c.Status(); st.Expired != 1 || st.Leased != 0 {
			t.Errorf("expired-unreclaimed status: %+v", st)
		}
		// A late heartbeat from a live worker revives the lease...
		r := c.renewLease(RenewRequest{Worker: "w", LeaseID: l.ID, Campaign: l.Campaign, Replication: l.Replication})
		if !r.Renewed {
			t.Fatalf("expired-but-unreclaimed lease not revived: %+v", r)
		}
		// ...so the unit is no longer up for grabs.
		if got := c.leaseUnit("thief"); got.Status != LeaseWait {
			t.Errorf("revived unit handed out anyway: %+v", got)
		}
		if st := c.Status(); st.Expired != 0 || st.Leased != 1 || st.Reassigned != 0 {
			t.Errorf("status after revival: %+v", st)
		}
	})
}

// TestFleetRenewalSurvivesTinyTTL is the acceptance bar end to end: with
// LeaseTTL far below a unit's wall time, a renewing worker completes the
// sweep with zero reassignments and output bit-identical to the serial
// engine.
func TestFleetRenewalSurvivesTinyTTL(t *testing.T) {
	const ttl = 200 * time.Millisecond
	sweep := []experiment.CampaignSpec{{
		Name: "slow-units",
		Spec: experiment.Spec{Nodes: 250, Seed: 31, Protocol: experiment.ProtoBitcoin},
		Runs: 25, Replications: 2, Deadline: 30 * time.Second,
	}}
	// The units are sized by the serial sweep itself, not fixed: until one
	// unit spans three TTLs on this host — without renewal every unit would
	// thrash through expiry reassignment — the injections grow by what the
	// last sweep fell short, with a margin. A faster relay cannot shrink a
	// unit below its first heartbeat, and a slow host stops near the target.
	target := 3 * ttl * time.Duration(sweep[0].Replications)
	var serial []experiment.CampaignOutcome
	for {
		start := time.Now()
		out, err := experiment.NewRunner(1).Sweep(context.Background(), sweep)
		if err != nil {
			t.Fatalf("serial sweep: %v", err)
		}
		serial = out
		took := time.Since(start)
		if took >= target {
			break
		}
		sweep[0].Runs = int(float64(sweep[0].Runs) * max(1.25, 1.2*float64(target)/float64(took)))
	}

	c, ts := startCoordinator(t, sweep, CoordinatorConfig{LeaseTTL: ttl})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	w := &Worker{CoordinatorURL: ts.URL, Name: "renewer", Parallelism: 1, RetryInterval: 10 * time.Millisecond}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("renewing worker: %v", err)
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	st := c.Status()
	if st.Reassigned != 0 {
		t.Errorf("slow units were reassigned %d times despite renewal", st.Reassigned)
	}
	if st.Renewed == 0 {
		t.Errorf("no renewals recorded — units did not outlive the TTL, test proves nothing")
	}
	out, err := c.Outcomes()
	if err != nil {
		t.Fatal(err)
	}
	sameOutcomes(t, out, serial)
}

// TestAuthGatesMutatingEndpoints: with a token configured, lease, renew
// and commit refuse unauthenticated and wrongly-authenticated requests;
// the read-only endpoints stay open; and a correctly-tokened worker
// completes the sweep.
func TestAuthGatesMutatingEndpoints(t *testing.T) {
	c, ts := startCoordinator(t, testSweep(), CoordinatorConfig{Token: "s3cret"})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Tokenless requests, each well-formed for its endpoint (the commit is
	// a decodable shard for unit 0/0), so only the missing token can be
	// what refuses them.
	commitQuery, shard := CommitRequest{Worker: "intruder", LeaseID: 1, Result: fakeShard(t, c, 0)}.wire()
	for _, post := range []struct{ path, contentType, body string }{
		{PathLease, "application/json", `{"worker":"intruder"}`},
		{PathRenew, "application/json", `{"worker":"intruder","lease_id":1}`},
		{PathCommit + "?" + commitQuery, "application/octet-stream", string(shard)},
	} {
		resp, err := http.Post(ts.URL+post.path, post.contentType, strings.NewReader(post.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("tokenless POST %s: status %d, want 401", post.path, resp.StatusCode)
		}
	}

	wrong := NewClient(ts.URL, nil)
	wrong.Token = "wr0ng"
	if _, err := wrong.Lease(ctx, "intruder"); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("wrong-token lease error = %v, want ErrUnauthorized", err)
	}

	// Read-only endpoints serve without a token.
	open := NewClient(ts.URL, nil)
	if _, err := open.Sweep(ctx); err != nil {
		t.Errorf("tokenless sweep fetch: %v", err)
	}
	if _, err := open.Status(ctx); err != nil {
		t.Errorf("tokenless status fetch: %v", err)
	}

	// A worker with the wrong token fails fast — 401 is not a transport
	// blip, so the retry budgets must not be burned on it.
	start := time.Now()
	bad := &Worker{CoordinatorURL: ts.URL, Name: "bad", Parallelism: 2, Token: "wr0ng", RetryInterval: 10 * time.Millisecond}
	if err := bad.Run(ctx); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("wrong-token worker error = %v, want ErrUnauthorized", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("wrong-token worker took %v to fail — it retried instead of failing fast", d)
	}
	if got := c.Status().Done; got != 0 {
		t.Fatalf("unauthenticated traffic committed %d units", got)
	}

	// The right token runs the sweep to completion.
	good := &Worker{CoordinatorURL: ts.URL, Name: "good", Parallelism: 2, Token: "s3cret", RetryInterval: 10 * time.Millisecond}
	if err := good.Run(ctx); err != nil {
		t.Fatalf("tokened worker: %v", err)
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	if st := c.Status(); st.Done != st.Units {
		t.Errorf("status after tokened sweep: %+v", st)
	}
}

// TestSpooledOutcomesMatchSerial: with a spool directory, committed
// shards live on disk — coordinator memory holds none of them — and the
// merged outcome is still bit-identical to the serial sweep. Stale
// commits leave no temp droppings behind.
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
	c, ts := startCoordinator(t, testSweep(), CoordinatorConfig{SpoolDir: dir})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	errc := make(chan error, 2)
	for i, name := range []string{"spool-a", "spool-b"} {
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

	// Every shard is on disk, none in memory.
	c.mu.Lock()
	for i := range c.units {
		if !c.units[i].spooled {
			t.Errorf("unit %d not spooled", i)
		}
		if c.units[i].result.Fingerprint != 0 {
			t.Errorf("unit %d retains an in-memory shard despite spooling", i)
		}
	}
	c.mu.Unlock()

	out, err := c.Outcomes()
	if err != nil {
		t.Fatal(err)
	}
	sameOutcomes(t, out, serial)

	// A late commit against the finished queue spools a temp file and
	// must clean it up when rejected as stale.
	ack := c.commitUnit(CommitRequest{
		Worker: "ghost", LeaseID: 9999, Campaign: 0, Replication: 0,
		Result: fakeShard(t, c, 0),
	})
	if ack.Accepted || !ack.Stale {
		t.Errorf("late commit: %+v", ack)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	units := c.Status().Units
	if len(entries) != units {
		t.Errorf("spool dir holds %d files, want %d shards", len(entries), units)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("stale temp file left in spool dir: %s", e.Name())
		}
	}

	// The merge is re-readable: Outcomes a second time still matches.
	out, err = c.Outcomes()
	if err != nil {
		t.Fatal(err)
	}
	sameOutcomes(t, out, serial)
}

// TestSpoolFaultFailsSweep: a coordinator that cannot persist shards
// cannot finish the sweep — a spool I/O fault fails it loudly for the
// whole fleet instead of killing workers one at a time through fatal
// commit rejections.
func TestSpoolFaultFailsSweep(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spool")
	c, err := NewCoordinator(oneUnitSweep(), CoordinatorConfig{SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l := c.leaseUnit("w").Lease
	// The spool directory vanishes out from under the coordinator
	// (standing in for ENOSPC/EIO — any unwritable spool).
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	ack := c.commitUnit(CommitRequest{
		Worker: "w", LeaseID: l.ID, Campaign: l.Campaign, Replication: l.Replication,
		Result: fakeShard(t, c, l.Campaign),
	})
	if ack.Accepted || ack.Stale || !strings.Contains(ack.Reason, "spool") {
		t.Errorf("commit against broken spool: %+v", ack)
	}
	if resp := c.leaseUnit("other"); resp.Status != LeaseFailed || !strings.Contains(resp.Failure, "spool") {
		t.Errorf("poll after spool fault: %+v", resp)
	}
	select {
	case <-c.Done():
	default:
		t.Error("spool fault did not complete the sweep as failed")
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
	for _, spool := range []bool{false, true} {
		cfg := CoordinatorConfig{}
		if spool {
			cfg.SpoolDir = t.TempDir()
		}
		c, err := NewCoordinator(oneUnitSweep(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		l := c.leaseUnit("w").Lease
		commit := CommitRequest{Worker: "w", LeaseID: l.ID, Campaign: l.Campaign, Replication: l.Replication,
			Result: fakeShard(t, c, l.Campaign)}
		query, _ := commit.wire()

		body := &zeroes{}
		req := httptest.NewRequest(http.MethodPost, PathCommit+"?"+query, body)
		req.ContentLength = maxBody + 1
		rec := httptest.NewRecorder()
		c.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("spool=%v: oversize commit answered %d, want 413", spool, rec.Code)
		}
		if body.read != 0 {
			t.Errorf("spool=%v: coordinator read %d bytes of a body it had to refuse unread", spool, body.read)
		}
		if ack := c.commitUnit(commit); !ack.Accepted {
			t.Errorf("spool=%v: commit after a refused oversize body: %+v", spool, ack)
		}
	}

	// Undeclared length: the reader enforces the same bound.
	req := httptest.NewRequest(http.MethodPost, PathCommit, &zeroes{})
	req.ContentLength = -1
	var tooLarge *http.MaxBytesError
	if _, err := readBody(httptest.NewRecorder(), req, 4096); !errors.As(err, &tooLarge) {
		t.Errorf("reading an endless body under a 4 KiB limit: %v, want MaxBytesError", err)
	}
}

// TestCommitResendKeepsPublishedShard: a worker whose commit timed out
// resends it while the first handler may still be running. Whatever the
// interleaving, exactly one commit is accepted, the rest are stale, and
// the published spool file is the shard, whole — a resend writes its own
// temp file and can never truncate one that was (or is about to be)
// renamed into place.
func TestCommitResendKeepsPublishedShard(t *testing.T) {
	dir := t.TempDir()
	c, ts := startCoordinator(t, testSweep(), CoordinatorConfig{SpoolDir: dir})
	ctx := context.Background()
	client := NewClient(ts.URL, nil)
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
		case !ack.Stale:
			t.Errorf("resent commit rejected as a fault, not as stale: %+v", ack)
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

// TestSpooledAndInMemoryOutcomesIdentical: the two coordinators differ in
// where a shard waits, never in what comes out — fed the same shards they
// return deeply equal outcomes, and both equal the serial sweep's.
func TestSpooledAndInMemoryOutcomesIdentical(t *testing.T) {
	ctx := context.Background()
	build := func(cfg CoordinatorConfig) []experiment.CampaignOutcome {
		c, err := NewCoordinator(testSweep(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for {
			lr := c.leaseUnit("w")
			if lr.Status != LeaseGranted {
				break
			}
			l := lr.Lease
			res, err := experiment.RunUnit(ctx, c.campaigns[l.Campaign], l.Replication)
			if err != nil {
				t.Fatal(err)
			}
			shard, err := measure.EncodeCampaignResult(res)
			if err != nil {
				t.Fatal(err)
			}
			if ack := c.commitUnit(CommitRequest{Worker: "w", LeaseID: l.ID, Campaign: l.Campaign, Replication: l.Replication, Result: shard}); !ack.Accepted {
				t.Fatalf("commit rejected: %+v", ack)
			}
		}
		out, err := c.Outcomes()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	inMemory, spooled := build(CoordinatorConfig{}), build(CoordinatorConfig{SpoolDir: t.TempDir()})
	if !reflect.DeepEqual(inMemory, spooled) {
		t.Errorf("in-memory and spooled outcomes differ:\n%+v\nvs\n%+v", inMemory, spooled)
	}
	sameOutcomes(t, spooled, serialSweep(t))
}

// TestSweepFailureReachesIdleWorkers: when one unit fails the sweep,
// workers that never touched the failing unit must also exit non-zero
// carrying the cause — previously they saw "done" and exited 0.
func TestSweepFailureReachesIdleWorkers(t *testing.T) {
	c, ts := startCoordinator(t, testSweep(), CoordinatorConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	client := NewClient(ts.URL, nil)
	lease, err := client.Lease(ctx, "failing-worker")
	if err != nil || lease.Status != LeaseGranted {
		t.Fatalf("lease: %v %+v", err, lease)
	}
	if _, err := client.Commit(ctx, CommitRequest{
		Worker: "failing-worker", LeaseID: lease.Lease.ID,
		Campaign: lease.Lease.Campaign, Replication: lease.Lease.Replication,
		Error: "synthetic unit failure",
	}); err != nil {
		t.Fatal(err)
	}

	// The queue now answers polls with the failure, not "done".
	resp, err := client.Lease(ctx, "idle")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != LeaseFailed || !strings.Contains(resp.Failure, "synthetic unit failure") {
		t.Errorf("lease poll after failure: %+v", resp)
	}

	// A worker that never ran the bad unit exits non-zero with the cause.
	w := &Worker{CoordinatorURL: ts.URL, Name: "bystander", Parallelism: 2, RetryInterval: 10 * time.Millisecond}
	werr := w.Run(ctx)
	if werr == nil || !strings.Contains(werr.Error(), "synthetic unit failure") {
		t.Errorf("bystander worker error = %v, want the sweep failure", werr)
	}
	if err := c.Wait(ctx); err == nil {
		t.Error("coordinator did not record the failure")
	}
}

// TestLostLeaseAbortsUnit: when the coordinator refuses a renewal (the
// lease was superseded), the worker must abort the running simulation
// and move on — not finish an arbitrarily long unit whose commit is
// already guaranteed a stale rejection, and not treat the lost lease as
// an error.
func TestLostLeaseAbortsUnit(t *testing.T) {
	sweep := []experiment.CampaignSpec{{
		Name: "slow",
		Spec: experiment.Spec{Nodes: 250, Seed: 31, Protocol: experiment.ProtoBitcoin},
		Runs: 300, Replications: 1, Deadline: 30 * time.Second,
	}}
	c, err := NewCoordinator(sweep, CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var leased, committed atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PathSweep:
			json.NewEncoder(w).Encode(c.Sweep())
		case PathLease:
			if leased.Add(1) == 1 {
				json.NewEncoder(w).Encode(LeaseResponse{Status: LeaseGranted, Lease: &Lease{
					ID: 1, Campaign: 0, Replication: 0,
					Seed:      sweep[0].ReplicationSeed(0),
					TTLMillis: 150,
				}})
				return
			}
			json.NewEncoder(w).Encode(LeaseResponse{Status: LeaseDone})
		case PathRenew:
			json.NewEncoder(w).Encode(RenewResponse{Reason: "lease superseded"})
		case PathCommit:
			committed.Add(1)
			json.NewEncoder(w).Encode(CommitResponse{Reason: "lease superseded", Stale: true})
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()

	w := &Worker{CoordinatorURL: ts.URL, Name: "loser", Parallelism: 1, RetryInterval: 10 * time.Millisecond}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("losing a lease is not a worker error, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker kept computing a unit whose lease it had lost")
	}
	if got := committed.Load(); got != 0 {
		t.Errorf("worker sent %d commits for a superseded lease", got)
	}
	if got := leased.Load(); got < 2 {
		t.Errorf("worker never came back for fresh work after the lost lease (%d lease polls)", got)
	}
}

// TestFatalSlotCancelsSiblings: a slot that hits a fatal error (here, a
// seed-skewed lease) must cancel its sibling slots instead of leaving
// them leasing and computing for a sweep the worker will report as
// failed. Before the fix the sibling spun on LeaseWait forever and Run
// never returned.
func TestFatalSlotCancelsSiblings(t *testing.T) {
	c, err := NewCoordinator(testSweep(), CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var leases atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PathSweep:
			json.NewEncoder(w).Encode(c.Sweep())
		case PathLease:
			if leases.Add(1) == 1 {
				// A skewed seed: the receiving slot must fail fatally.
				json.NewEncoder(w).Encode(LeaseResponse{Status: LeaseGranted, Lease: &Lease{
					ID: 1, Campaign: 0, Replication: 0, Seed: -12345, TTLMillis: 60_000,
				}})
				return
			}
			// Every other slot is strung along indefinitely.
			json.NewEncoder(w).Encode(LeaseResponse{Status: LeaseWait, RetryMillis: 10})
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()

	w := &Worker{CoordinatorURL: ts.URL, Name: "skewed", Parallelism: 2, RetryInterval: 10 * time.Millisecond}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "version skew") {
			t.Errorf("Run error = %v, want version skew", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sibling slot kept polling after a fatal slot error — Run never returned")
	}
}
