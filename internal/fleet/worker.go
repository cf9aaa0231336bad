package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/measure"
)

// Worker pulls units from a coordinator and executes them through
// experiment.RunUnit — the same code path the local engine uses, so a
// shard computed here is bit-identical to the one a single-machine sweep
// would have produced for the same unit.
type Worker struct {
	// CoordinatorURL is the coordinator's base URL.
	CoordinatorURL string
	// Name labels this worker in coordinator diagnostics.
	Name string
	// Parallelism is how many units run concurrently (<= 0 means
	// GOMAXPROCS). Each unit is itself single-threaded, so GOMAXPROCS
	// saturates the machine.
	Parallelism int
	// RetryInterval backs off transient coordinator errors (default 1s).
	RetryInterval time.Duration
	// Token authenticates against a coordinator built with
	// CoordinatorConfig.Token (attached as a bearer token to every
	// request). Leave empty for an open coordinator.
	Token string
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
}

func (w *Worker) parallelism() int {
	if w.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w.Parallelism
}

func (w *Worker) retryInterval() time.Duration {
	if w.RetryInterval <= 0 {
		return time.Second
	}
	return w.RetryInterval
}

// wallClock is the wall-time source handed to RunUnitObserved for the
// per-unit build/run timings reported in commits. Workers are outside
// the deterministic core, so reading the real clock here is fine — the
// timings never feed the simulation.
func wallClock() int64 { return time.Now().UnixNano() }

// ceilMicros converts a measured wall time to the commit's microsecond
// fields, rounding up: the coordinator drops a zero as "not reported",
// and a phase that ran, however briefly, must still count.
func ceilMicros(nanos int64) int64 { return (nanos + 999) / 1000 }

// sleep waits d respecting ctx.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Run works the queue until the coordinator reports the sweep done, ctx
// is cancelled, or the worker hits an unrecoverable disagreement with the
// coordinator (fingerprint or seed mismatch — version skew). A unit whose
// execution fails for a non-cancellation reason is reported to the
// coordinator (failing the sweep fast) rather than retried: the failure
// is as deterministic as the results are.
//
// The first slot to hit a fatal error cancels its siblings: without
// that, a worker that has already decided to exit non-zero would keep
// leasing and computing units (or spin on LeaseWait) for a sweep it is
// about to report as failed. Sibling slots unwound by that cancellation
// are not themselves failures — Run returns the real errors only.
func (w *Worker) Run(ctx context.Context) error {
	client := NewClient(w.CoordinatorURL, w.HTTPClient)
	client.Token = w.Token
	sweep, err := w.fetchSweep(ctx, client)
	if err != nil {
		return err
	}
	// Refuse to compute for a coordinator we disagree with: if the local
	// binary derives a different fingerprint for any campaign, results
	// would be rejected (or worse, wrong) — fail before simulating.
	for i, cs := range sweep.Campaigns {
		if got, want := cs.Fingerprint(), sweep.Fingerprints[i]; got != want {
			return fmt.Errorf("fleet: campaign %q fingerprint %016x locally vs %016x at coordinator: version skew, refusing to work",
				cs.Name, got, want)
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	par := w.parallelism()
	errs := make([]error, par)
	fatal := make([]bool, par)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			err := w.loop(runCtx, client, sweep.Campaigns)
			errs[slot] = err
			// Fatality is decided by the run's own state, never by
			// unwrapping the error chain: exhausted transport budgets
			// wrap the HTTP client's context.DeadlineExceeded, so "is
			// this a context error" cannot distinguish a real failure
			// from a slot unwound by cancellation — but a slot that
			// errored while the run was still live is always fatal
			// (version skew, persistent rejection, sweep failure, dead
			// coordinator). Cancel the sibling slots rather than letting
			// them drain a queue this worker will report as failed.
			if err != nil && runCtx.Err() == nil {
				fatal[slot] = true
				cancel()
			}
		}(i)
	}
	wg.Wait()

	var real []error
	for slot, err := range errs {
		if fatal[slot] {
			real = append(real, err)
		}
	}
	if len(real) > 0 {
		return errors.Join(real...)
	}
	// No fatal slot error: either every slot saw LeaseDone (clean exit,
	// nil), or the slots were unwound by the caller's own cancellation.
	return ctx.Err()
}

// Transport-failure budgets. An unreachable coordinator must not spin a
// worker forever: startup tolerates a longer window (workers may come up
// before their coordinator), but once working, a coordinator that stays
// silent for maxLeaseFailures consecutive polls has almost certainly
// completed and exited (or died), and the worker gives up with an error.
const (
	maxSweepFetches  = 60
	maxLeaseFailures = 10
)

// fetchSweep retries the initial sweep fetch so workers can start before
// their coordinator, giving up after maxSweepFetches attempts.
func (w *Worker) fetchSweep(ctx context.Context, client *Client) (SweepResponse, error) {
	var lastErr error
	for i := 0; i < maxSweepFetches; i++ {
		sweep, err := client.Sweep(ctx)
		if err == nil {
			if len(sweep.Campaigns) != len(sweep.Fingerprints) {
				return SweepResponse{}, fmt.Errorf("fleet: malformed sweep: %d campaigns, %d fingerprints",
					len(sweep.Campaigns), len(sweep.Fingerprints))
			}
			return sweep, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return SweepResponse{}, err
		}
		// The coordinator itself serves the sweep unauthenticated, but a
		// fronting proxy may not — and a 401 never heals by retrying.
		if errors.Is(err, ErrUnauthorized) {
			return SweepResponse{}, err
		}
		if err := sleep(ctx, w.retryInterval()); err != nil {
			return SweepResponse{}, err
		}
	}
	return SweepResponse{}, fmt.Errorf("fleet: coordinator unreachable after %d attempts: %w", maxSweepFetches, lastErr)
}

// loop is one lease→run→commit slot.
func (w *Worker) loop(ctx context.Context, client *Client, campaigns []experiment.CampaignSpec) error {
	leaseFailures := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := client.Lease(ctx, w.Name)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, ErrUnauthorized) {
				// Retrying with the same (wrong or missing) token can
				// never succeed.
				return err
			}
			if leaseFailures++; leaseFailures >= maxLeaseFailures {
				return fmt.Errorf("fleet: coordinator unreachable for %d consecutive polls (sweep finished elsewhere, or coordinator died): %w",
					leaseFailures, err)
			}
			if err := sleep(ctx, w.retryInterval()); err != nil {
				return err
			}
			continue
		}
		leaseFailures = 0
		switch resp.Status {
		case LeaseDone:
			return nil
		case LeaseFailed:
			// The sweep failed on some unit — possibly on another worker
			// entirely. Exiting zero here would make a failed sweep look
			// clean on every machine but the one that ran the bad unit.
			return fmt.Errorf("fleet: sweep failed: %s", resp.Failure)
		case LeaseWait:
			retry := time.Duration(resp.RetryMillis) * time.Millisecond
			if retry <= 0 {
				retry = w.retryInterval()
			}
			if err := sleep(ctx, retry); err != nil {
				return err
			}
		case LeaseGranted:
			if err := w.runLease(ctx, client, campaigns, resp.Lease); err != nil {
				return err
			}
		default:
			return fmt.Errorf("fleet: coordinator returned unknown lease status %q", resp.Status)
		}
	}
}

// runLease executes one granted unit and commits the shard. For the
// unit's whole run a heartbeat goroutine renews the lease at TTL/3
// cadence, so the lease stays live however slow the unit is; the
// heartbeat stops when the unit finishes (commit, error, or ctx cancel).
func (w *Worker) runLease(ctx context.Context, client *Client, campaigns []experiment.CampaignSpec, l *Lease) error {
	if l == nil || l.Campaign < 0 || l.Campaign >= len(campaigns) {
		return fmt.Errorf("fleet: coordinator granted lease for unknown campaign")
	}
	cs := campaigns[l.Campaign]
	if got := cs.ReplicationSeed(l.Replication); got != l.Seed {
		return fmt.Errorf("fleet: campaign %q replication %d derives seed %d locally vs %d at coordinator: version skew, refusing to work",
			cs.Name, l.Replication, got, l.Seed)
	}
	commit := CommitRequest{
		Worker:      w.Name,
		LeaseID:     l.ID,
		Campaign:    l.Campaign,
		Replication: l.Replication,
	}

	// unitCtx bounds the simulation: the heartbeat cancels it if the
	// coordinator refuses a renewal (lease superseded, or unit already
	// committed elsewhere) — from that moment every commit this worker
	// could send is provably stale, so finishing an hours-long unit
	// would be pure waste.
	unitCtx, cancelUnit := context.WithCancel(ctx)
	renewCtx, stopRenew := context.WithCancel(ctx)
	var renewWG sync.WaitGroup
	renewWG.Add(1)
	go func() {
		defer renewWG.Done()
		w.renewLoop(renewCtx, client, l, cancelUnit)
	}()
	// The heartbeat spans the commit exchange too — a megabyte
	// shard takes a while to upload, and the lease must stay live until
	// the coordinator has adjudicated it — then stops when the unit is
	// settled, waited out so a slot never leaves a stray renewer behind.
	defer func() {
		stopRenew()
		renewWG.Wait()
		cancelUnit()
	}()

	res, uo, err := experiment.RunUnitObserved(unitCtx, cs, l.Replication, wallClock)
	commit.BuildMicros = ceilMicros(uo.BuildNanos)
	commit.RunMicros = ceilMicros(uo.RunNanos)
	switch {
	case err == nil:
		shipStart := time.Now()
		if commit.Result, err = measure.EncodeCampaignResult(res); err != nil {
			return err
		}
		commit.ShipMicros = ceilMicros(time.Since(shipStart).Nanoseconds())
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if ctx.Err() != nil {
			// Our own shutdown, not the unit's fault: walk away and let
			// the lease expire so another worker picks the unit up.
			return ctx.Err()
		}
		// The heartbeat lost the lease: the unit is settled (reassigned
		// or already committed) elsewhere, and a commit from us would be
		// rejected as stale. Abandon it and lease fresh work.
		return nil
	default:
		commit.Error = err.Error()
	}
	ack, err := w.commitWithRetry(ctx, client, commit)
	if err != nil {
		return err
	}
	// A stale rejection is routine: our lease expired and the unit was
	// reassigned (and possibly already committed) elsewhere. The shard we
	// computed is bit-identical to the accepted one, so nothing is lost.
	// Any other rejection is persistent — recomputing the unit would be
	// rejected identically — so fail loudly rather than letting the unit
	// cycle through lease expiry forever.
	if !ack.Accepted && !ack.Stale {
		return fmt.Errorf("fleet: coordinator rejected unit %d/%d of campaign %q: %s",
			l.Replication+1, cs.Replications, cs.Name, ack.Reason)
	}
	if commit.Error != "" {
		return fmt.Errorf("fleet: unit failed: %s", commit.Error)
	}
	return nil
}

// renewLoop heartbeats one lease at TTL/3 cadence until ctx is cancelled
// or the coordinator refuses the renewal (unit committed elsewhere, or
// the lease was superseded). A refusal calls cancelUnit so the running
// simulation aborts instead of burning hours on a shard whose commit is
// already guaranteed a stale rejection. Transport errors are tolerated:
// the next beat retries, and the TTL/3 cadence means two beats can fail
// outright before the lease is even at risk. Renewal failures are never
// surfaced as worker errors — the worst a lost lease costs is one
// abandoned (re-runnable) unit, which is benign.
func (w *Worker) renewLoop(ctx context.Context, client *Client, l *Lease, cancelUnit context.CancelFunc) {
	interval := l.TTL() / 3
	if interval <= 0 {
		interval = time.Second
	}
	req := RenewRequest{Worker: w.Name, LeaseID: l.ID, Campaign: l.Campaign, Replication: l.Replication}
	for {
		if sleep(ctx, interval) != nil {
			return
		}
		// Bound each beat to its own slot in the cadence: a hung request
		// (blackholed packets — no RST) must be abandoned before the next
		// beat is due, or one stall would silently eat the whole TTL.
		beatCtx, cancelBeat := context.WithTimeout(ctx, interval)
		resp, err := client.Renew(beatCtx, req)
		cancelBeat()
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if errors.Is(err, ErrUnauthorized) {
				// Auth failures are permanent: the lease will expire and
				// the commit would 401 too, so finishing the unit is as
				// futile as after a refused renewal.
				cancelUnit()
				return
			}
			continue
		}
		if !resp.Renewed {
			cancelUnit()
			return
		}
	}
}

// commitWithRetry retries transient transport errors; the at-most-once
// guarantee lives in the coordinator, so resending is always safe.
func (w *Worker) commitWithRetry(ctx context.Context, client *Client, req CommitRequest) (CommitResponse, error) {
	const attempts = 5
	var lastErr error
	for i := 0; i < attempts; i++ {
		resp, err := client.Commit(ctx, req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return CommitResponse{}, ctx.Err()
		}
		if errors.Is(err, ErrUnauthorized) {
			return CommitResponse{}, err
		}
		if err := sleep(ctx, w.retryInterval()); err != nil {
			return CommitResponse{}, err
		}
	}
	return CommitResponse{}, fmt.Errorf("fleet: commit failed after %d attempts: %w", attempts, lastErr)
}
