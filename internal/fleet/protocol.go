// Package fleet serves a sweep's units over HTTP: a coordinator hands out
// (campaign, replication) units on lease, takes back each unit's
// measure.CampaignResult shard, spools it to disk, and merges the shards
// into the outcomes Runner.Sweep returns for the same campaigns. A lease
// request is JSON; a commit's body is the shard itself, in measure's
// binary form, with the unit reference in the URL query. Whoever leases a
// unit runs it through experiment.RunUnit, the local engine's own
// per-replication path.
//
// The design leans entirely on the campaign engine's determinism
// contract: a unit derives every bit of randomness from its replication
// seed, so executing it is idempotent — running a unit twice, on two
// machines, or after a worker died mid-run produces bit-identical shards.
// That makes the queue's failure story simple:
//
//   - leases have deadlines: a unit whose lease expires uncommitted goes
//     to the next worker that asks;
//   - commits are at-most-once: the first shard accepted for a unit wins,
//     and late commits from superseded leases are rejected — so a shard
//     can never be merged twice;
//   - shards are merged in (campaign, replication) order, never arrival
//     order, through measure.MergeCampaignResults.
//
// The merged outcome is therefore bit-identical to a single-machine
// Runner.Sweep of the same specs, regardless of arrival order or
// reassignment — the property TestFleetMatchesSerialSweep pins.
//
// A shard ships every Δt sample of its unit and its count of lost
// connection-runs, nothing else. Every shard carries its spec fingerprint
// and the coordinator rejects commits whose fingerprint does not match the
// campaign it leased — a worker running skewed code cannot silently poison
// a sweep.
package fleet

import (
	"fmt"
	"net/url"
	"strconv"
)

// Protocol endpoints, all rooted under the coordinator's base URL.
const (
	// PathLease (POST, LeaseRequest) grants a work unit lease.
	PathLease = "/v1/lease"
	// PathCommit (POST, CommitRequest) ships a finished shard back: the
	// shard bytes are the request body, the rest of the CommitRequest is
	// the URL query.
	PathCommit = "/v1/commit"
)

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
	// LeaseDone means every unit is committed.
	LeaseDone LeaseStatus = "done"
	// LeaseFailed means the sweep failed: the coordinator could not spool
	// a shard. Failure carries the cause.
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
// Campaign in the coordinator's campaign list.
type Lease struct {
	// ID authenticates the commit: only the unit's current lease may
	// commit it.
	ID uint64 `json:"id"`
	// Campaign indexes the coordinator's campaign list.
	Campaign int `json:"campaign"`
	// Replication is the unit's replication index within the campaign.
	Replication int `json:"replication"`
	// Seed echoes the coordinator's derived replication seed, so a worker
	// can check it against its own derivation before running anything.
	Seed int64 `json:"seed"`
}

// CommitRequest ships one finished unit back: Result carries the shard
// (measure.EncodeCampaignResult's bytes).
//
// On the wire a commit is not JSON: Result travels verbatim as the
// request body (application/octet-stream) and every other field as a URL
// query parameter, named in the field comments.
type CommitRequest struct {
	Worker      string // worker
	LeaseID     uint64 // lease
	Campaign    int    // campaign
	Replication int    // replication
	// Result is the body; the tag keeps a shard out of any diagnostic
	// dump of the request.
	Result []byte `json:"-"`
}

// wire splits the request into its URL query and its body.
func (r CommitRequest) wire() (query string, body []byte) {
	q := url.Values{
		"worker":      {r.Worker},
		"lease":       {strconv.FormatUint(r.LeaseID, 10)},
		"campaign":    {strconv.Itoa(r.Campaign)},
		"replication": {strconv.Itoa(r.Replication)},
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
	r := CommitRequest{Worker: q.Get("worker"), Result: body}
	if r.LeaseID, err = strconv.ParseUint(q.Get("lease"), 10, 64); err != nil {
		return CommitRequest{}, fmt.Errorf("lease: %w", err)
	}
	if r.Campaign, err = strconv.Atoi(q.Get("campaign")); err != nil {
		return CommitRequest{}, fmt.Errorf("campaign: %w", err)
	}
	if r.Replication, err = strconv.Atoi(q.Get("replication")); err != nil {
		return CommitRequest{}, fmt.Errorf("replication: %w", err)
	}
	return r, nil
}

// CommitResponse acknowledges a commit. A rejection says why: the unit
// was already committed, the lease was superseded after expiry, or the
// shard is not the leased campaign's (a foreign fingerprint, a body that
// does not decode, a malformed unit reference).
type CommitResponse struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
}
