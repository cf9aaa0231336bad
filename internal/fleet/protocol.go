// Package fleet distributes campaign sweeps across machines: a
// coordinator serves a lease-based work queue over HTTP and workers pull
// (campaign, replication) units, run them through the same
// per-replication path as the local engine (experiment.RunUnit), and ship
// back measure.CampaignResult shards. The control exchanges (sweep,
// lease, renew, status) are JSON; a commit's body is the shard itself, in
// measure's binary form, with the unit reference in the URL query.
//
// The design leans entirely on the campaign engine's determinism
// contract: a unit derives every bit of randomness from its replication
// seed, so executing it is idempotent — running a unit twice, on two
// machines, or after a worker died mid-run produces bit-identical shards.
// That makes the queue's failure story simple:
//
//   - leases have deadlines: a worker that goes silent has its lease
//     expire and the unit handed to the next worker that asks;
//   - commits are at-most-once: the first shard accepted for a unit wins,
//     and late commits from superseded leases are rejected — so a shard
//     can never be merged twice;
//   - shards are merged in (campaign, replication) order, never arrival
//     order, through measure.MergeCampaignResults.
//
// The merged outcome is therefore bit-identical to a single-machine
// Runner.Sweep of the same specs, regardless of worker count, failures,
// or arrival order — the property TestFleetFailoverMatchesSerialSweep
// pins.
//
// Three hardening layers take the queue from trusted-LAN demos to shared
// clusters:
//
//   - heartbeat renewal: a worker extends its lease at TTL/3 cadence
//     (POST /v1/renew), so LeaseTTL is a failure-detection window — it
//     can sit at seconds for fast dead-worker recovery without ever
//     reassigning a live slow unit;
//   - bearer-token auth: when the coordinator is built with a token,
//     every mutating endpoint (lease, renew, commit) requires
//     "Authorization: Bearer <token>" and answers 401 otherwise;
//   - disk spooling: committed shards can stream to a spool directory
//     instead of living in coordinator memory, re-read in replication
//     order at merge time — coordinator memory stays flat however deep
//     the sweep.
//
// A shard ships every Δt sample of its unit and its count of lost
// connection-runs, nothing else. Every shard carries its spec fingerprint
// and the coordinator rejects commits whose fingerprint does not match the
// campaign it leased — a worker running skewed code cannot silently poison
// a sweep.
package fleet

import (
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"time"

	"repro/internal/experiment"
)

// Protocol endpoints, all rooted under the coordinator's base URL.
const (
	// PathSweep (GET) returns the SweepResponse: the full campaign list
	// workers execute units of, plus the coordinator's fingerprints.
	PathSweep = "/v1/sweep"
	// PathLease (POST, LeaseRequest) grants a work unit lease.
	PathLease = "/v1/lease"
	// PathRenew (POST, RenewRequest) extends a live lease's deadline —
	// the heartbeat that lets LeaseTTL sit far below a slow unit's wall
	// time.
	PathRenew = "/v1/renew"
	// PathCommit (POST, CommitRequest) ships a finished shard back: the
	// shard bytes are the request body, the rest of the CommitRequest is
	// the URL query.
	PathCommit = "/v1/commit"
	// PathStatus (GET) returns queue progress for dashboards and tests.
	PathStatus = "/v1/status"
	// PathMetrics (GET) returns the coordinator's metrics registry in
	// Prometheus text exposition format: unit progress by state and
	// campaign, lease lifecycle counters, per-unit build/run/ship timing
	// summaries, and traffic counters folded from worker shards.
	PathMetrics = "/v1/metrics"
)

// SweepResponse describes the sweep being distributed. Workers fetch it
// once, recompute each campaign's fingerprint locally, and refuse to work
// for a coordinator they disagree with — version skew between binaries
// surfaces before any simulation time is spent.
type SweepResponse struct {
	Campaigns    []experiment.CampaignSpec `json:"campaigns"`
	Fingerprints []uint64                  `json:"fingerprints"`
}

// LeaseRequest asks for one unit of work.
type LeaseRequest struct {
	// Worker names the requester (diagnostics only; the lease ID is the
	// authority).
	Worker string `json:"worker"`
}

// LeaseStatus is the coordinator's answer to a lease request.
type LeaseStatus string

const (
	// LeaseGranted carries a unit to execute.
	LeaseGranted LeaseStatus = "granted"
	// LeaseWait means every unit is done or leased out; retry later — an
	// outstanding lease may yet expire and free its unit.
	LeaseWait LeaseStatus = "wait"
	// LeaseDone means the sweep completed successfully; the worker can
	// exit cleanly.
	LeaseDone LeaseStatus = "done"
	// LeaseFailed means the sweep failed (a unit hit a deterministic
	// error). Workers must exit non-zero carrying the failure reason —
	// a failed sweep may never masquerade as a clean fleet-wide exit.
	LeaseFailed LeaseStatus = "failed"
)

// LeaseResponse answers a lease request.
type LeaseResponse struct {
	Status LeaseStatus `json:"status"`
	// Lease is set when Status is LeaseGranted.
	Lease *Lease `json:"lease,omitempty"`
	// RetryMillis suggests a poll delay when Status is LeaseWait.
	RetryMillis int64 `json:"retry_ms,omitempty"`
	// Failure carries the sweep-fatal error when Status is LeaseFailed.
	Failure string `json:"failure,omitempty"`
}

// Lease is one granted work unit: replication Replication of campaign
// Campaign in the sweep's campaign list.
type Lease struct {
	// ID authenticates the commit: only the unit's current lease may
	// commit it.
	ID uint64 `json:"id"`
	// Campaign indexes SweepResponse.Campaigns.
	Campaign int `json:"campaign"`
	// Replication is the unit's replication index within the campaign.
	Replication int `json:"replication"`
	// Seed echoes the coordinator's derived replication seed. Workers
	// cross-check it against their own derivation — a mismatch means the
	// two binaries disagree about the experiment and the worker must not
	// proceed.
	Seed int64 `json:"seed"`
	// TTLMillis is how long the lease lasts before the unit may be
	// reassigned. Workers renew at TTL/3 cadence (PathRenew), so the TTL
	// is a heartbeat window, not a bound on unit wall time: it only has
	// to cover a few missed heartbeats, and a unit slower than the TTL
	// keeps its lease as long as its worker keeps renewing.
	TTLMillis int64 `json:"ttl_ms"`
}

// TTL returns the lease duration.
func (l *Lease) TTL() time.Duration { return time.Duration(l.TTLMillis) * time.Millisecond }

// RenewRequest extends a lease before it expires. Only the unit's
// current lease may renew; a renewal can also revive a lease that
// expired but whose unit has not yet been handed to anyone else (a late
// heartbeat from a live worker beats thrashing its work).
type RenewRequest struct {
	Worker      string `json:"worker"`
	LeaseID     uint64 `json:"lease_id"`
	Campaign    int    `json:"campaign"`
	Replication int    `json:"replication"`
}

// RenewResponse answers a renewal. A refused renewal (unit committed, or
// lease superseded by an expiry reassignment) tells the worker to stop
// heartbeating; the commit exchange then adjudicates what happened to
// the unit — a refused renewal on its own is never a worker error.
type RenewResponse struct {
	Renewed bool `json:"renewed"`
	// TTLMillis echoes the fresh deadline's TTL when Renewed.
	TTLMillis int64  `json:"ttl_ms,omitempty"`
	Reason    string `json:"reason,omitempty"`
}

// CommitRequest ships one finished unit back. Exactly one of Result or
// Error is set: Result carries the shard (measure.EncodeCampaignResult's
// bytes), Error reports a deterministic unit failure (a bad spec), which
// fails the whole sweep fast — the unit would fail identically on every
// machine that retried it.
//
// On the wire a commit is not JSON: Result travels verbatim as the
// request body (application/octet-stream) and every other field as a URL
// query parameter, named in the field comments. An error commit sets
// error=1 and sends the Error text as the body instead.
type CommitRequest struct {
	Worker      string // worker
	LeaseID     uint64 // lease
	Campaign    int    // campaign
	Replication int    // replication
	// Result is the body; the tag keeps a shard out of any diagnostic
	// dump of the request.
	Result []byte `json:"-"`
	Error  string
	// BuildMicros, RunMicros and ShipMicros (build_us, run_us, ship_us)
	// report the unit's wall timings — network build, measurement
	// campaign, and shard encoding — for the coordinator's timing
	// histograms. Microseconds, because a shard encodes in well under a
	// millisecond. Optional: a commit that omits them (zero) is accepted
	// and records nothing.
	BuildMicros int64
	RunMicros   int64
	ShipMicros  int64
}

// wire splits the request into its URL query and its body.
func (r CommitRequest) wire() (query string, body []byte) {
	q := url.Values{
		"worker":      {r.Worker},
		"lease":       {strconv.FormatUint(r.LeaseID, 10)},
		"campaign":    {strconv.Itoa(r.Campaign)},
		"replication": {strconv.Itoa(r.Replication)},
	}
	for _, t := range [...]struct {
		key string
		us  int64
	}{{"build_us", r.BuildMicros}, {"run_us", r.RunMicros}, {"ship_us", r.ShipMicros}} {
		if t.us != 0 {
			q.Set(t.key, strconv.FormatInt(t.us, 10))
		}
	}
	if r.Error != "" {
		q.Set("error", "1")
		return q.Encode(), []byte(r.Error)
	}
	return q.Encode(), r.Result
}

// parseCommit is wire's inverse, run by the coordinator on a query string
// and body from the network. The body is kept, not copied.
func parseCommit(rawQuery string, body []byte) (CommitRequest, error) {
	q, err := url.ParseQuery(rawQuery)
	if err != nil {
		return CommitRequest{}, err
	}
	r := CommitRequest{Worker: q.Get("worker")}
	if r.LeaseID, err = strconv.ParseUint(q.Get("lease"), 10, 64); err != nil {
		return CommitRequest{}, fmt.Errorf("lease: %w", err)
	}
	if r.Campaign, err = strconv.Atoi(q.Get("campaign")); err != nil {
		return CommitRequest{}, fmt.Errorf("campaign: %w", err)
	}
	if r.Replication, err = strconv.Atoi(q.Get("replication")); err != nil {
		return CommitRequest{}, fmt.Errorf("replication: %w", err)
	}
	for _, t := range [...]struct {
		key string
		us  *int64
	}{{"build_us", &r.BuildMicros}, {"run_us", &r.RunMicros}, {"ship_us", &r.ShipMicros}} {
		if s := q.Get(t.key); s != "" {
			if *t.us, err = strconv.ParseInt(s, 10, 64); err != nil {
				return CommitRequest{}, fmt.Errorf("%s: %w", t.key, err)
			}
		}
	}
	switch q.Get("error") {
	case "":
		r.Result = body
	case "1":
		if len(body) == 0 {
			return CommitRequest{}, errors.New("error commit without the error text")
		}
		r.Error = string(body)
	default:
		return CommitRequest{}, fmt.Errorf("error: %q is neither absent nor 1", q.Get("error"))
	}
	return r, nil
}

// CommitResponse acknowledges a commit. A *stale* rejection is not a
// worker error: the unit was already committed, or the lease was
// superseded after expiry — a routine consequence of failover, and the
// worker simply moves on. A rejection that is not stale (a shard the
// coordinator cannot decode, a fingerprint mismatch, a malformed unit
// reference) is a real fault: retrying the unit would reproduce it, so
// the worker must fail loudly instead of letting the unit cycle through
// lease expiry forever.
type CommitResponse struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
	// Stale marks the benign rejections (duplicate / superseded lease).
	Stale bool `json:"stale,omitempty"`
}

// StatusResponse reports queue progress.
type StatusResponse struct {
	// Units is the total unit count (sum of campaign replications).
	Units int `json:"units"`
	// Done, Leased, Expired and Pending partition Units. Leased counts
	// only live leases; Expired counts leases past their deadline whose
	// unit has not been reclaimed yet — a non-zero Expired that does not
	// drain is a stalled queue (dead workers, nobody polling), which a
	// combined "leased" count would mask.
	Done    int `json:"done"`
	Leased  int `json:"leased"`
	Expired int `json:"expired"`
	Pending int `json:"pending"`
	// Reassigned counts lease expiries that handed a unit to another
	// worker — each one is a survived worker failure.
	Reassigned int `json:"reassigned"`
	// Renewed counts granted heartbeat renewals.
	Renewed int `json:"renewed"`
	// Complete is true once every unit committed (or the sweep failed).
	Complete bool `json:"complete"`
	// Failed carries the sweep-fatal error, if any.
	Failed string `json:"failed,omitempty"`
	// Campaigns breaks unit progress down per campaign, in sweep order.
	// Additive (omitempty): old clients decode statuses without it.
	Campaigns []CampaignStatus `json:"campaigns,omitempty"`
	// CommitsPerMinute is the commit throughput over the coordinator's
	// sliding window (statusRateWindow); zero until two commits land.
	CommitsPerMinute float64 `json:"commits_per_minute,omitempty"`
	// EtaMillis extrapolates time-to-completion from CommitsPerMinute
	// and the uncommitted unit count; zero when the rate is unknown.
	EtaMillis int64 `json:"eta_ms,omitempty"`
}

// CampaignStatus is one campaign's slice of the unit partition.
type CampaignStatus struct {
	Name    string `json:"name"`
	Units   int    `json:"units"`
	Done    int    `json:"done"`
	Leased  int    `json:"leased"`
	Expired int    `json:"expired"`
	Pending int    `json:"pending"`
}
