package fleet

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/measure"
	"repro/internal/obs"
)

// CoordinatorConfig tunes the work queue.
type CoordinatorConfig struct {
	// LeaseTTL is how long a lease lasts between heartbeats: workers
	// renew at TTL/3 cadence, so the TTL bounds failure detection, not
	// unit wall time. A dead worker's unit is reassigned at most one TTL
	// after its last heartbeat; a live worker renews a slow unit for
	// hours without it ever being reassigned. Size it to a few missed
	// heartbeats — seconds to tens of seconds; the 5-minute default is
	// deliberately conservative for clients (saboteur tests, old
	// binaries) that never renew.
	LeaseTTL time.Duration
	// RetryInterval caps the poll delay suggested to idle workers.
	// Default 2 seconds.
	RetryInterval time.Duration
	// Token, when non-empty, locks the mutating endpoints (lease, renew,
	// commit): requests must carry "Authorization: Bearer <Token>" or
	// are refused with 401. The read-only endpoints (sweep, status) stay
	// open — they expose progress, not the queue. Share the token with
	// workers out of band (bcbpt-fleet -token / BCBPT_FLEET_TOKEN).
	Token string
	// SpoolDir, when non-empty, streams committed shards to disk instead
	// of holding them in memory: each accepted shard is written to
	// SpoolDir (the commit body as it arrived, measure's binary shard
	// form) and re-read in replication order by Outcomes. Coordinator
	// memory then stays flat however deep the sweep; a paper-scale unit is
	// up to about a megabyte of samples. The directory is created if missing.
	SpoolDir string
	// now stubs the clock in tests.
	now func() time.Time
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 5 * time.Minute
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 2 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// unitPhase is a unit's place in the queue lifecycle.
type unitPhase uint8

const (
	unitPending unitPhase = iota
	unitLeased
	unitDone
)

// unit is one (campaign, replication) work item and its queue state.
type unit struct {
	campaign    int
	replication int
	phase       unitPhase
	leaseID     uint64
	worker      string
	expires     time.Time
	// result holds the committed shard when the coordinator runs
	// in-memory; spooled coordinators leave it zero and set spooled.
	result  measure.CampaignResult
	spooled bool
}

// Coordinator owns a sweep's work queue and its committed shards. It is
// an http.Handler (the protocol endpoints) and is safe for concurrent
// use; serve it with net/http or drive leaseUnit/commitUnit through the
// handlers from in-process workers.
type Coordinator struct {
	cfg       CoordinatorConfig
	campaigns []experiment.CampaignSpec // defaulted
	prints    []uint64
	offsets   []int // unit index of each campaign's replication 0
	order     []int // unit indices in experiment.DispatchOrder
	mux       *http.ServeMux
	metrics   *obs.Registry

	mu         sync.Mutex
	units      []unit
	remaining  int
	reassigned int
	renewed    int
	nextLease  uint64
	failure    error
	done       chan struct{}
	// commits holds recent commit times (pruned to statusRateWindow) for
	// the sliding-window throughput and ETA in Status.
	commits []time.Time
}

// NewCoordinator builds the work queue for a sweep: every replication of
// every campaign becomes one leasable unit, handed out in
// experiment.DispatchOrder — exactly the flat queue Runner.Sweep schedules
// locally. Units stay addressed by (campaign, replication); only lease
// grants walk the dispatch order.
func NewCoordinator(campaigns []experiment.CampaignSpec, cfg CoordinatorConfig) (*Coordinator, error) {
	if len(campaigns) == 0 {
		return nil, errors.New("fleet: sweep has no campaigns")
	}
	c := &Coordinator{
		cfg:       cfg.withDefaults(),
		campaigns: make([]experiment.CampaignSpec, len(campaigns)),
		prints:    make([]uint64, len(campaigns)),
		offsets:   make([]int, len(campaigns)),
		metrics:   obs.NewRegistry(),
		done:      make(chan struct{}),
	}
	for i, cs := range campaigns {
		cs = cs.WithDefaults()
		c.campaigns[i] = cs
		c.prints[i] = cs.Fingerprint()
		c.offsets[i] = len(c.units)
		for rep := 0; rep < cs.Replications; rep++ {
			c.units = append(c.units, unit{campaign: i, replication: rep})
		}
	}
	c.remaining = len(c.units)
	c.order = experiment.DispatchOrder(c.campaigns)
	if dir := c.cfg.SpoolDir; dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: create spool directory: %w", err)
		}
		if err := cleanSpoolDir(dir); err != nil {
			return nil, err
		}
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("GET "+PathSweep, c.handleSweep)
	c.mux.HandleFunc("POST "+PathLease, c.requireAuth(c.handleLease))
	c.mux.HandleFunc("POST "+PathRenew, c.requireAuth(c.handleRenew))
	c.mux.HandleFunc("POST "+PathCommit, c.requireAuth(c.handleCommit))
	c.mux.HandleFunc("GET "+PathStatus, c.handleStatus)
	c.mux.HandleFunc("GET "+PathMetrics, c.handleMetrics)
	return c, nil
}

// Metrics returns the coordinator's registry — the same one PathMetrics
// serves — so frontends can fold their own counters in or print a final
// summary from it.
func (c *Coordinator) Metrics() *obs.Registry { return c.metrics }

// requireAuth gates a mutating endpoint behind the shared bearer token.
// No token configured means an open queue (trusted-LAN mode). The
// comparison is constant-time, so a rejected probe learns nothing about
// how much of its guess matched.
func (c *Coordinator) requireAuth(next http.HandlerFunc) http.HandlerFunc {
	if c.cfg.Token == "" {
		return next
	}
	want := []byte("Bearer " + c.cfg.Token)
	return func(w http.ResponseWriter, r *http.Request) {
		got := []byte(r.Header.Get("Authorization"))
		if subtle.ConstantTimeCompare(got, want) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="bcbpt-fleet"`)
			http.Error(w, "unauthorized: missing or wrong bearer token", http.StatusUnauthorized)
			return
		}
		next(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// Sweep returns the sweep description workers fetch at startup.
func (c *Coordinator) Sweep() SweepResponse {
	return SweepResponse{Campaigns: c.campaigns, Fingerprints: c.prints}
}

// leaseUnit grants the next available unit: a never-leased one first,
// else the first unit whose lease has expired (the failover path). Both
// scans walk the dispatch order (longest unit first, as Runner.Sweep), so
// reassignment — like everything else — is deterministic given the same
// request sequence, and a reclaimed long unit goes out before a short one.
func (c *Coordinator) leaseUnit(worker string) LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failure != nil {
		// A failed sweep is not "done": every worker that polls must
		// learn the failure and exit non-zero, not report a clean sweep
		// it never saw fail.
		return LeaseResponse{Status: LeaseFailed, Failure: c.failure.Error()}
	}
	if c.remaining == 0 {
		return LeaseResponse{Status: LeaseDone}
	}
	now := c.cfg.now()
	grant := -1
	for _, i := range c.order {
		if c.units[i].phase == unitPending {
			grant = i
			break
		}
	}
	if grant < 0 {
		soonest := time.Duration(-1)
		for _, i := range c.order {
			u := &c.units[i]
			if u.phase != unitLeased {
				continue
			}
			if !now.Before(u.expires) {
				c.reassigned++
				c.metrics.Counter("bcbpt_fleet_leases_reassigned_total").Inc()
				grant = i
				break
			}
			if wait := u.expires.Sub(now); soonest < 0 || wait < soonest {
				soonest = wait
			}
		}
		if grant < 0 {
			// Everything is leased and live: come back around the time
			// the earliest lease could expire.
			retry := c.cfg.RetryInterval
			if soonest >= 0 && soonest < retry {
				retry = soonest
			}
			if retry < 10*time.Millisecond {
				retry = 10 * time.Millisecond
			}
			c.metrics.Counter("bcbpt_fleet_lease_waits_total").Inc()
			return LeaseResponse{Status: LeaseWait, RetryMillis: retry.Milliseconds()}
		}
	}
	u := &c.units[grant]
	c.nextLease++
	u.phase = unitLeased
	u.leaseID = c.nextLease
	u.worker = worker
	u.expires = now.Add(c.cfg.LeaseTTL)
	c.metrics.Counter("bcbpt_fleet_leases_granted_total").Inc()
	return LeaseResponse{Status: LeaseGranted, Lease: &Lease{
		ID:          u.leaseID,
		Campaign:    u.campaign,
		Replication: u.replication,
		Seed:        c.campaigns[u.campaign].ReplicationSeed(u.replication),
		TTLMillis:   c.cfg.LeaseTTL.Milliseconds(),
	}}
}

// renewLease extends a lease's deadline by a fresh LeaseTTL — the
// heartbeat that keeps a live slow unit from being reassigned. Only the
// unit's current lease may renew. A lease past its deadline whose unit
// nobody has reclaimed yet is revived rather than refused: the heartbeat
// proves the worker is alive, and reviving it beats thrashing the work
// (the at-most-once commit rule would keep the merge correct either
// way). After a reassignment or commit the renewal is refused, telling
// the worker to stop heartbeating.
func (c *Coordinator) renewLease(req RenewRequest) RenewResponse {
	if req.Campaign < 0 || req.Campaign >= len(c.campaigns) {
		return RenewResponse{Reason: fmt.Sprintf("unknown campaign %d", req.Campaign)}
	}
	if req.Replication < 0 || req.Replication >= c.campaigns[req.Campaign].Replications {
		return RenewResponse{Reason: fmt.Sprintf("campaign %d has no replication %d", req.Campaign, req.Replication)}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	u := &c.units[c.offsets[req.Campaign]+req.Replication]
	if u.phase == unitDone {
		return RenewResponse{Reason: "unit already committed"}
	}
	if u.phase != unitLeased || u.leaseID != req.LeaseID {
		return RenewResponse{Reason: "lease superseded"}
	}
	u.expires = c.cfg.now().Add(c.cfg.LeaseTTL)
	c.renewed++
	c.metrics.Counter("bcbpt_fleet_leases_renewed_total").Inc()
	return RenewResponse{Renewed: true, TTLMillis: c.cfg.LeaseTTL.Milliseconds()}
}

// commitUnit records a finished unit — at most once. The commit must name
// the unit's current lease: after an expiry-driven reassignment the
// superseded worker's commit is rejected, and once a unit is done every
// further commit is rejected, so a shard can never pool twice.
//
// The shard is checked in two steps, both before the lock is taken
// (campaigns, prints and offsets are immutable after construction), so
// one large commit never stalls every other worker's lease poll behind
// the coordinator mutex. First the fingerprint, read from the shard's
// fixed header: a worker that ran a different experiment is told so
// without its body being parsed. Then the whole shard is decoded — linear
// in the shard's samples — whether the coordinator keeps the result
// (in memory) or only the bytes (spooling): commit is the last moment a
// corrupt shard can still be refused and its unit recomputed, while one
// discovered at merge time costs its campaign a replication. The lease
// is only checked under the lock, after the decode: a stale commit
// wastes its own decode, never anyone else's time.
//
// Spooling follows the same shape: the shard's bytes are written to a
// request-unique temp file before the lock, and acceptance is a rename —
// a metadata operation — under it, so a megabyte shard never
// serializes lease polls behind disk I/O. The temp name must be unique
// per request, not per lease: a worker whose commit times out resends
// it while the first handler may still be writing, and a shared name
// would let one handler truncate the file another is about to publish.
// A losing (stale) commit's temp file is removed.
func (c *Coordinator) commitUnit(req CommitRequest) CommitResponse {
	if req.Campaign < 0 || req.Campaign >= len(c.campaigns) {
		return CommitResponse{Reason: fmt.Sprintf("unknown campaign %d", req.Campaign)}
	}
	cs := c.campaigns[req.Campaign]
	if req.Replication < 0 || req.Replication >= cs.Replications {
		return CommitResponse{Reason: fmt.Sprintf("campaign %d has no replication %d", req.Campaign, req.Replication)}
	}
	var res measure.CampaignResult
	spoolTmp := ""
	if req.Error == "" {
		print, err := measure.ShardFingerprint(req.Result)
		if err != nil {
			return CommitResponse{Reason: err.Error()}
		}
		if print != c.prints[req.Campaign] {
			return CommitResponse{Reason: fmt.Sprintf(
				"shard fingerprint %016x does not match campaign %s (%016x): worker ran a different experiment",
				print, cs.Name, c.prints[req.Campaign])}
		}
		if res, err = measure.DecodeCampaignResult(req.Result); err != nil {
			return CommitResponse{Reason: err.Error()}
		}
		if c.cfg.SpoolDir != "" {
			spoolTmp, err = writeSpoolTemp(c.cfg.SpoolDir, req)
			if err != nil {
				return c.failSpool(err)
			}
		}
	}

	resp := c.finishCommit(req, cs, res, spoolTmp)
	if spoolTmp != "" && !resp.Accepted {
		// The losing temp file (stale lease, or a failed rename) is dead
		// weight; removal is best effort.
		os.Remove(spoolTmp)
	}
	return resp
}

// finishCommit is commitUnit's locked tail: lease adjudication and the
// at-most-once state transition. A spooling coordinator (spoolTmp set)
// publishes the file and lets res go; an in-memory one keeps res.
func (c *Coordinator) finishCommit(req CommitRequest, cs experiment.CampaignSpec, res measure.CampaignResult, spoolTmp string) CommitResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	u := &c.units[c.offsets[req.Campaign]+req.Replication]
	if u.phase == unitDone {
		c.metrics.Counter("bcbpt_fleet_commits_stale_total").Inc()
		return CommitResponse{Reason: "unit already committed", Stale: true}
	}
	if u.phase != unitLeased || u.leaseID != req.LeaseID {
		c.metrics.Counter("bcbpt_fleet_commits_stale_total").Inc()
		return CommitResponse{Reason: "lease superseded", Stale: true}
	}
	if req.Error != "" {
		c.metrics.Counter("bcbpt_fleet_units_failed_total").Inc()
		// A deterministic unit failure fails the sweep fast: retrying the
		// unit elsewhere would reproduce it bit for bit.
		if c.failure == nil {
			c.failure = fmt.Errorf("fleet: unit %d/%d of campaign %s failed on worker %s: %s",
				req.Replication+1, cs.Replications, cs.Name, req.Worker, req.Error)
			close(c.done)
		}
		return CommitResponse{Accepted: true}
	}
	if spoolTmp != "" {
		//bcbptlint:allow lockio — rename-only atomic publish; the payload was written outside the lock
		if err := os.Rename(spoolTmp, c.spoolPath(req.Campaign, req.Replication)); err != nil {
			return c.failSpoolLocked(err)
		}
		u.spooled = true
	} else {
		u.result = res
	}
	u.phase = unitDone
	c.remaining--
	c.metrics.Counter("bcbpt_fleet_commits_accepted_total").Inc()
	c.observeUnitTimings(req)
	c.commits = append(c.commits, c.cfg.now())
	c.pruneCommits(c.cfg.now())
	if c.remaining == 0 && c.failure == nil {
		// A failed sweep already closed done; in-flight commits after the
		// failure are still recorded, just not re-signalled.
		close(c.done)
	}
	return CommitResponse{Accepted: true}
}

// observeUnitTimings folds a commit's worker-reported wall timings into
// the registry. The fields are optional: a commit that omits them
// records nothing. Histogram handles carry
// their own locks; holding c.mu here is cheap and order-safe.
func (c *Coordinator) observeUnitTimings(req CommitRequest) {
	if req.BuildMicros > 0 {
		c.metrics.Histogram("bcbpt_fleet_unit_build_seconds").Observe(time.Duration(req.BuildMicros) * time.Microsecond)
	}
	if req.RunMicros > 0 {
		c.metrics.Histogram("bcbpt_fleet_unit_run_seconds").Observe(time.Duration(req.RunMicros) * time.Microsecond)
	}
	if req.ShipMicros > 0 {
		c.metrics.Histogram("bcbpt_fleet_unit_ship_seconds").Observe(time.Duration(req.ShipMicros) * time.Microsecond)
	}
}

// statusRateWindow is the sliding window for commit throughput: long
// enough to smooth bursty commits from parallel workers, short enough
// that the ETA tracks a fleet scaling up or down.
const statusRateWindow = 5 * time.Minute

// pruneCommits drops commit timestamps older than the rate window.
// Called with c.mu held.
func (c *Coordinator) pruneCommits(now time.Time) {
	cut := 0
	for cut < len(c.commits) && now.Sub(c.commits[cut]) > statusRateWindow {
		cut++
	}
	if cut > 0 {
		c.commits = append(c.commits[:0], c.commits[cut:]...)
	}
}

// spoolName is a committed shard's file name within the spool directory;
// cleanSpoolDir's patterns match exactly what it and writeSpoolTemp
// produce.
func spoolName(campaign, rep int) string {
	return fmt.Sprintf("campaign-%03d-rep-%05d.shard", campaign, rep)
}

// spoolPath is the final on-disk name of a committed shard — one file
// per (campaign, replication), the exact wire bytes the worker shipped.
func (c *Coordinator) spoolPath(campaign, rep int) string {
	return filepath.Join(c.cfg.SpoolDir, spoolName(campaign, rep))
}

// failSpool escalates a spool I/O error to a sweep failure: a
// coordinator that cannot persist shards cannot finish the sweep, and
// letting each worker discover the fault through a fatal commit
// rejection would kill the fleet one worker per lease TTL while the
// queue kept advertising reassignable units. Failing the sweep gives
// every worker the cause on its next poll (LeaseFailed) instead. The
// one commit that observed the fault still gets a rejection, so its
// worker exits with the disk error rather than a generic failure.
func (c *Coordinator) failSpool(err error) CommitResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failSpoolLocked(err)
}

// failSpoolLocked is failSpool for callers already holding c.mu. A
// fault observed after the sweep already finished (a stale commit's
// temp write) does not fail it retroactively — done may already be
// closed, and the merged result is safely on disk.
func (c *Coordinator) failSpoolLocked(err error) CommitResponse {
	if c.failure == nil && c.remaining > 0 {
		c.failure = fmt.Errorf("fleet: spool shard: %w", err)
		close(c.done)
	}
	return CommitResponse{Reason: fmt.Sprintf("spool shard: %v", err)}
}

// writeSpoolTemp lands a shard's bytes in a request-unique temp file
// (os.CreateTemp's random suffix) in the spool directory, named so
// cleanSpoolDir recognises orphans.
func writeSpoolTemp(dir string, req CommitRequest) (string, error) {
	f, err := os.CreateTemp(dir, fmt.Sprintf("%s.tmp-lease%d-*", spoolName(req.Campaign, req.Replication), req.LeaseID))
	if err != nil {
		return "", err
	}
	_, werr := f.Write(req.Result)
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(f.Name())
		return "", werr
	}
	return f.Name(), nil
}

// cleanSpoolDir empties a reused spool directory of the previous run's
// output — committed shards and temp files orphaned by a crash alike.
// The directory records exactly one sweep: without this, an operator
// pointing two sweeps at the same -spool-dir would leave it interleaving
// shards of both, and anything consuming the documented layout would
// pick up shards from the wrong sweep. Only names this coordinator
// writes are touched; foreign files are left alone (and will fail the
// run loudly only if they collide with a shard name, via the fingerprint
// recheck at merge).
func cleanSpoolDir(dir string) error {
	// Digit-leading wildcards rather than fixed widths: spoolName's
	// %03d/%05d grow past three/five digits on huge sweeps, and those
	// shards must be cleaned too.
	const shard = "campaign-[0-9]*-rep-[0-9]*.shard"
	for _, pattern := range []string{shard, shard + ".tmp-lease*"} {
		stale, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return fmt.Errorf("fleet: scan spool directory: %w", err)
		}
		for _, path := range stale {
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("fleet: clean spool directory: %w", err)
			}
		}
	}
	return nil
}

// Done is closed when the sweep completes or fails.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Wait blocks until the sweep completes, fails, or ctx is cancelled.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.done:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.failure
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Status snapshots queue progress. A lease past its deadline that no
// worker has reclaimed yet counts as Expired, not Leased: lumping the
// two together would make a queue full of dead workers' leases look
// busy when it is stalled.
func (c *Coordinator) Status() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	s := StatusResponse{Units: len(c.units), Reassigned: c.reassigned, Renewed: c.renewed}
	s.Campaigns = make([]CampaignStatus, len(c.campaigns))
	for ci, cs := range c.campaigns {
		s.Campaigns[ci] = CampaignStatus{Name: cs.Name, Units: cs.Replications}
	}
	for i := range c.units {
		u := &c.units[i]
		cs := &s.Campaigns[u.campaign]
		switch {
		case u.phase == unitDone:
			s.Done++
			cs.Done++
		case u.phase == unitLeased && now.Before(u.expires):
			s.Leased++
			cs.Leased++
		case u.phase == unitLeased:
			s.Expired++
			cs.Expired++
		default:
			s.Pending++
			cs.Pending++
		}
	}
	s.Complete = c.remaining == 0 || c.failure != nil
	if c.failure != nil {
		s.Failed = c.failure.Error()
	}
	// Sliding-window throughput and ETA: rate over the span from the
	// oldest in-window commit to now. Needs at least two commits so one
	// early commit does not extrapolate a wild rate from a tiny span.
	c.pruneCommits(now)
	if len(c.commits) >= 2 {
		span := now.Sub(c.commits[0])
		if span > 0 {
			perMin := float64(len(c.commits)) / span.Minutes()
			s.CommitsPerMinute = perMin
			if left := s.Units - s.Done; left > 0 && perMin > 0 {
				s.EtaMillis = int64(float64(left) / perMin * float64(time.Minute/time.Millisecond))
			}
		}
	}
	return s
}

// Outcomes merges the committed shards into campaign outcomes, in
// replication order — byte for byte what Runner.Sweep would have returned
// for the same specs on one machine. Spooled shards are re-read from the
// spool directory here, still in replication order, so spooling changes
// where shards wait, never how they merge. Incomplete campaigns merge
// their committed shards (mirroring Sweep's partial results); the
// sweep-fatal error, if any, is returned alongside.
//
// The queue mutex guards only the state snapshot: reading and decoding
// a deep spooled sweep takes long enough that holding the lock through
// it would stall every worker's "done" poll behind the merge — a
// committed spool file is immutable (only ever renamed into place, never
// rewritten), so reading it unlocked is safe.
//
// A spool file that fails to read back (clobbered by another process,
// corrupted on disk since its commit) is skipped like an uncommitted unit —
// its campaign merges partially and the read error is returned alongside
// — rather than discarding every healthy campaign's data with it.
func (c *Coordinator) Outcomes() ([]experiment.CampaignOutcome, error) {
	c.mu.Lock()
	done := make([]bool, len(c.units))
	spooled := make([]bool, len(c.units))
	results := make([]measure.CampaignResult, len(c.units))
	for i := range c.units {
		u := &c.units[i]
		done[i], spooled[i], results[i] = u.phase == unitDone, u.spooled, u.result
	}
	failure := c.failure
	c.mu.Unlock()

	var readErrs []error
	out := make([]experiment.CampaignOutcome, len(c.campaigns))
	for ci, cs := range c.campaigns {
		shards := make([]measure.CampaignResult, 0, cs.Replications)
		for rep := 0; rep < cs.Replications; rep++ {
			i := c.offsets[ci] + rep
			if !done[i] {
				continue
			}
			if spooled[i] {
				res, err := c.readSpooled(ci, rep)
				if err != nil {
					readErrs = append(readErrs, fmt.Errorf("fleet: campaign %s: %w", cs.Name, err))
					continue
				}
				shards = append(shards, res)
			} else {
				shards = append(shards, results[i])
			}
		}
		merged, err := measure.MergeCampaignResults(shards...)
		if err != nil {
			// Unreachable — commits with foreign fingerprints are
			// rejected — but never pool silently.
			return nil, fmt.Errorf("fleet: merge campaign %s: %w", cs.Name, err)
		}
		out[ci] = experiment.CampaignOutcome{Name: cs.Name, Result: merged, Replications: len(shards)}
	}
	if len(readErrs) > 0 {
		readErrs = append(readErrs, failure)
		return out, errors.Join(readErrs...)
	}
	return out, failure
}

// readSpooled loads one committed shard back from the spool directory,
// re-checking its fingerprint: a spool file tampered with (or clobbered
// by another process) between commit and merge must fail loudly, not
// pool.
func (c *Coordinator) readSpooled(campaign, rep int) (measure.CampaignResult, error) {
	path := c.spoolPath(campaign, rep)
	data, err := os.ReadFile(path)
	if err != nil {
		return measure.CampaignResult{}, fmt.Errorf("read spooled shard: %w", err)
	}
	res, err := measure.DecodeCampaignResult(data)
	if err != nil {
		return measure.CampaignResult{}, fmt.Errorf("decode spooled shard %s: %w", path, err)
	}
	if res.Fingerprint != c.prints[campaign] {
		return measure.CampaignResult{}, fmt.Errorf("spooled shard %s fingerprint %016x does not match campaign (%016x)",
			path, res.Fingerprint, c.prints[campaign])
	}
	return res, nil
}

// maxBody bounds request bodies: a shard of a deep campaign is
// megabytes of samples; 256 MiB leaves headroom without letting a rogue
// peer exhaust memory.
const maxBody = 256 << 20

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, c.Sweep())
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	writeJSON(w, c.leaseUnit(req.Worker))
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if !readJSON(w, r, &req) {
		return
	}
	writeJSON(w, c.renewLease(req))
}

// readBody reads a whole request body of at most limit bytes. A declared
// Content-Length beyond the limit is refused before a byte is read; the
// declared length otherwise sizes the buffer, but only up to
// bodyPresizeCap — beyond that the buffer grows as bytes actually arrive,
// so a header alone cannot make the coordinator allocate.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	var buf bytes.Buffer
	// bytes.MinRead of slack lets ReadFrom see EOF without regrowing.
	buf.Grow(int(min(max(r.ContentLength, 0), bodyPresizeCap)) + bytes.MinRead)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// bodyPresizeCap is the most a Content-Length header may reserve ahead
// of the bytes it announces: comfortably above a shard of a deep
// campaign, far below maxBody.
const bodyPresizeCap = 4 << 20

// handleCommit takes the shard (or, for an error commit, the error text)
// as the raw request body and the unit reference from the URL query.
func (c *Coordinator) handleCommit(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, maxBody)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad request: %v", err), status)
		return
	}
	req, err := parseCommit(r.URL.RawQuery, body)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	writeJSON(w, c.commitUnit(req))
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, c.Status())
}

// labelEscaper escapes a Prometheus label value per the text exposition
// format: backslash, double quote and line feed. A sweep file may name a
// campaign anything non-empty.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// handleMetrics serves the registry in Prometheus text exposition format.
// Queue progress is refreshed from Status() into gauges first, so a
// scrape always sees the current partition of units — Status locks
// internally and the registry write never holds c.mu.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := c.Status()
	c.metrics.Gauge("bcbpt_fleet_units").Set(int64(st.Units))
	c.metrics.Gauge("bcbpt_fleet_units_done").Set(int64(st.Done))
	c.metrics.Gauge("bcbpt_fleet_units_leased").Set(int64(st.Leased))
	c.metrics.Gauge("bcbpt_fleet_units_expired").Set(int64(st.Expired))
	c.metrics.Gauge("bcbpt_fleet_units_pending").Set(int64(st.Pending))
	c.metrics.Gauge("bcbpt_fleet_commits_per_minute_x1000").Set(int64(st.CommitsPerMinute * 1000))
	c.metrics.Gauge("bcbpt_fleet_eta_seconds").Set(st.EtaMillis / 1000)
	for _, cs := range st.Campaigns {
		label := `{campaign="` + labelEscaper.Replace(cs.Name) + `"}`
		c.metrics.Gauge("bcbpt_fleet_campaign_units_done" + label).Set(int64(cs.Done))
		c.metrics.Gauge("bcbpt_fleet_campaign_units" + label).Set(int64(cs.Units))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.metrics.WritePrometheus(w)
}
