package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/measure"
)

// CoordinatorConfig configures a coordinator.
type CoordinatorConfig struct {
	// SpoolDir is where committed shards wait for the merge: each accepted
	// shard is written there (the commit body as it arrived, measure's
	// binary shard form) and re-read in replication order by Outcomes, so
	// coordinator memory stays flat however deep the sweep. Required; the
	// directory is created if missing.
	SpoolDir string
	// now stubs the clock in tests.
	now func() time.Time
}

const (
	// leaseTTL is how long a granted lease lasts. Nothing renews a lease,
	// so it bounds a unit's wall time: a unit whose worker has not
	// committed it one TTL after the grant goes to the next worker that
	// asks.
	leaseTTL = 5 * time.Minute
	// retryInterval caps the poll delay suggested to an idle worker.
	retryInterval = 2 * time.Second
)

// unitPhase is a unit's place in the queue lifecycle.
type unitPhase uint8

const (
	unitPending unitPhase = iota
	unitLeased
	unitDone // committed: its shard is in the spool directory
)

// unit is one (campaign, replication) work item and its queue state.
type unit struct {
	campaign    int
	replication int
	phase       unitPhase
	leaseID     uint64
	expires     time.Time
}

// Coordinator owns a sweep's work queue and its committed shards. It is
// an http.Handler (the protocol endpoints) and is safe for concurrent
// use.
type Coordinator struct {
	spoolDir  string
	now       func() time.Time
	campaigns []experiment.CampaignSpec // defaulted
	prints    []uint64
	offsets   []int // unit index of each campaign's replication 0
	order     []int // unit indices in experiment.DispatchOrder
	mux       *http.ServeMux

	mu        sync.Mutex
	units     []unit
	remaining int
	nextLease uint64
	failure   error
}

// NewCoordinator builds the work queue for a sweep: every replication of
// every campaign becomes one leasable unit, handed out in
// experiment.DispatchOrder — exactly the flat queue Runner.Sweep schedules
// locally. Units stay addressed by (campaign, replication); only lease
// grants walk the dispatch order. The spool directory is emptied of a
// previous sweep's shards.
func NewCoordinator(campaigns []experiment.CampaignSpec, cfg CoordinatorConfig) (*Coordinator, error) {
	if len(campaigns) == 0 {
		return nil, errors.New("fleet: sweep has no campaigns")
	}
	if cfg.SpoolDir == "" {
		return nil, errors.New("fleet: no spool directory")
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	c := &Coordinator{
		spoolDir:  cfg.SpoolDir,
		now:       cfg.now,
		campaigns: make([]experiment.CampaignSpec, len(campaigns)),
		prints:    make([]uint64, len(campaigns)),
		offsets:   make([]int, len(campaigns)),
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
	if err := os.MkdirAll(c.spoolDir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: create spool directory: %w", err)
	}
	if err := cleanSpoolDir(c.spoolDir); err != nil {
		return nil, err
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST "+PathLease, c.handleLease)
	c.mux.HandleFunc("POST "+PathCommit, c.handleCommit)
	return c, nil
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// leaseUnit grants the next available unit: a never-leased one first,
// else the first unit whose lease has expired (the failover path). Both
// scans walk the dispatch order (longest unit first, as Runner.Sweep), so
// reassignment — like everything else — is deterministic given the same
// request sequence, and a reclaimed long unit goes out before a short one.
func (c *Coordinator) leaseUnit() LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failure != nil {
		// A failed sweep is not "done": every worker that polls must
		// learn the failure, not report a clean sweep it never saw fail.
		return LeaseResponse{Status: LeaseFailed, Failure: c.failure.Error()}
	}
	if c.remaining == 0 {
		return LeaseResponse{Status: LeaseDone}
	}
	now := c.now()
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
			retry := retryInterval
			if soonest >= 0 && soonest < retry {
				retry = soonest
			}
			if retry < 10*time.Millisecond {
				retry = 10 * time.Millisecond
			}
			return LeaseResponse{Status: LeaseWait, RetryMillis: retry.Milliseconds()}
		}
	}
	u := &c.units[grant]
	c.nextLease++
	u.phase = unitLeased
	u.leaseID = c.nextLease
	u.expires = now.Add(leaseTTL)
	return LeaseResponse{Status: LeaseGranted, Lease: &Lease{
		ID:          u.leaseID,
		Campaign:    u.campaign,
		Replication: u.replication,
		Seed:        c.campaigns[u.campaign].ReplicationSeed(u.replication),
	}}
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
// in the shard's samples — although the coordinator keeps only the bytes:
// commit is the last moment a corrupt shard can still be refused and its
// unit recomputed, while one discovered at merge time costs its campaign a
// replication. The lease is only checked under the lock, after the decode:
// a stale commit wastes its own decode, never anyone else's time.
//
// The shard's bytes are written to a request-unique temp file before the
// lock, and acceptance is a rename — a metadata operation — under it, so a
// megabyte shard never serializes lease polls behind disk I/O. The temp
// name must be unique per request, not per lease: a worker whose commit
// times out resends it while the first handler may still be writing, and a
// shared name would let one handler truncate the file another is about to
// publish. A losing (stale) commit's temp file is removed.
func (c *Coordinator) commitUnit(req CommitRequest) CommitResponse {
	if req.Campaign < 0 || req.Campaign >= len(c.campaigns) {
		return CommitResponse{Reason: fmt.Sprintf("unknown campaign %d", req.Campaign)}
	}
	cs := c.campaigns[req.Campaign]
	if req.Replication < 0 || req.Replication >= cs.Replications {
		return CommitResponse{Reason: fmt.Sprintf("campaign %d has no replication %d", req.Campaign, req.Replication)}
	}
	print, err := measure.ShardFingerprint(req.Result)
	if err != nil {
		return CommitResponse{Reason: err.Error()}
	}
	if print != c.prints[req.Campaign] {
		return CommitResponse{Reason: fmt.Sprintf(
			"shard fingerprint %016x does not match campaign %s (%016x): worker ran a different experiment",
			print, cs.Name, c.prints[req.Campaign])}
	}
	if _, err := measure.DecodeCampaignResult(req.Result); err != nil {
		return CommitResponse{Reason: err.Error()}
	}
	spoolTmp, err := writeSpoolTemp(c.spoolDir, req)
	if err != nil {
		return c.failSpool(err)
	}
	resp := c.finishCommit(req, spoolTmp)
	if !resp.Accepted {
		// The losing temp file (stale lease, or a failed rename) is dead
		// weight; removal is best effort.
		os.Remove(spoolTmp)
	}
	return resp
}

// finishCommit is commitUnit's locked tail: lease adjudication, the
// spool file's publish and the at-most-once state transition.
func (c *Coordinator) finishCommit(req CommitRequest, spoolTmp string) CommitResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	u := &c.units[c.offsets[req.Campaign]+req.Replication]
	if u.phase == unitDone {
		return CommitResponse{Reason: "unit already committed"}
	}
	if u.phase != unitLeased || u.leaseID != req.LeaseID {
		return CommitResponse{Reason: "lease superseded"}
	}
	//bcbptlint:allow lockio — rename-only atomic publish; the payload was written outside the lock
	if err := os.Rename(spoolTmp, c.spoolPath(req.Campaign, req.Replication)); err != nil {
		return c.failSpoolLocked(err)
	}
	u.phase = unitDone
	c.remaining--
	return CommitResponse{Accepted: true}
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
	return filepath.Join(c.spoolDir, spoolName(campaign, rep))
}

// failSpool escalates a spool I/O error to a sweep failure: a
// coordinator that cannot persist shards cannot finish the sweep, and
// letting each worker discover the fault through its own commit
// rejection would fail them one lease at a time while the queue kept
// advertising reassignable units. Failing the sweep gives every worker
// the cause on its next poll (LeaseFailed) instead. The one commit that
// observed the fault still gets a rejection naming the disk error.
func (c *Coordinator) failSpool(err error) CommitResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failSpoolLocked(err)
}

// failSpoolLocked is failSpool for callers already holding c.mu. A
// fault observed after the sweep already finished (a stale commit's
// temp write) does not fail it retroactively: the merged result is
// safely on disk.
func (c *Coordinator) failSpoolLocked(err error) CommitResponse {
	if c.failure == nil && c.remaining > 0 {
		c.failure = fmt.Errorf("fleet: spool shard: %w", err)
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
// The directory records exactly one sweep: without this, two sweeps
// pointed at the same directory would leave it interleaving shards of
// both. Only names this coordinator writes are touched; foreign files
// are left alone (and will fail the run loudly only if they collide with
// a shard name, via the fingerprint recheck at merge).
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

// Outcomes merges the committed shards into campaign outcomes, reading
// them back from the spool directory in replication order — byte for byte
// what Runner.Sweep would have returned for the same specs on one
// machine. Incomplete campaigns merge their committed shards (mirroring
// Sweep's partial results); the sweep-fatal error, if any, is returned
// alongside.
//
// The queue mutex guards only the state snapshot: reading and decoding
// a deep sweep takes long enough that holding the lock through it would
// stall every worker's "done" poll behind the merge — a committed spool
// file is immutable (only ever renamed into place, never rewritten), so
// reading it unlocked is safe.
//
// A spool file that fails to read back (clobbered by another process,
// corrupted on disk since its commit) is skipped like an uncommitted unit —
// its campaign merges partially and the read error is returned alongside
// — rather than discarding every healthy campaign's data with it.
func (c *Coordinator) Outcomes() ([]experiment.CampaignOutcome, error) {
	c.mu.Lock()
	done := make([]bool, len(c.units))
	for i := range c.units {
		done[i] = c.units[i].phase == unitDone
	}
	failure := c.failure
	c.mu.Unlock()

	var readErrs []error
	out := make([]experiment.CampaignOutcome, len(c.campaigns))
	for ci, cs := range c.campaigns {
		shards := make([]measure.CampaignResult, 0, cs.Replications)
		for rep := 0; rep < cs.Replications; rep++ {
			if !done[c.offsets[ci]+rep] {
				continue
			}
			res, err := c.readSpooled(ci, rep)
			if err != nil {
				readErrs = append(readErrs, fmt.Errorf("fleet: campaign %s: %w", cs.Name, err))
				continue
			}
			shards = append(shards, res)
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

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	writeJSON(w, c.leaseUnit())
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

// handleCommit takes the shard as the raw request body and the unit
// reference from the URL query.
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
