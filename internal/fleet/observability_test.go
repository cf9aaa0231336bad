package fleet

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// commitFake drives one lease through a fake commit, optionally with
// worker-reported wall timings (the optional microsecond fields).
func commitFake(t *testing.T, c *Coordinator, worker string, buildUS, runUS, shipUS int64) {
	t.Helper()
	r := c.leaseUnit(worker)
	if r.Status != LeaseGranted {
		t.Fatalf("lease status %q, want granted", r.Status)
	}
	l := r.Lease
	ack := c.commitUnit(CommitRequest{
		Worker: worker, LeaseID: l.ID,
		Campaign: l.Campaign, Replication: l.Replication,
		Result:      fakeShard(t, c, l.Campaign),
		BuildMicros: buildUS, RunMicros: runUS, ShipMicros: shipUS,
	})
	if !ack.Accepted {
		t.Fatalf("commit rejected: %+v", ack)
	}
}

// TestStatusProgressAndETA pins the dashboard arithmetic on a fake
// clock: per-campaign unit partitions, the sliding-window commit rate,
// and the ETA derived from it.
func TestStatusProgressAndETA(t *testing.T) {
	c, clock := stubbedCoordinator(t, testSweep(), time.Minute)

	// One commit alone must not extrapolate a rate from a tiny span.
	commitFake(t, c, "w", 0, 0, 0)
	if st := c.Status(); st.CommitsPerMinute != 0 || st.EtaMillis != 0 {
		t.Errorf("rate from a single commit: %+v", st)
	}

	// Three more commits, one per simulated minute: 4 commits over a
	// 3-minute span → 4/3 commits per minute, 3 units left.
	for i := 0; i < 3; i++ {
		*clock = clock.Add(time.Minute)
		commitFake(t, c, "w", 0, 0, 0)
	}
	st := c.Status()
	if st.Done != 4 || st.Pending != 3 {
		t.Fatalf("queue partition: %+v", st)
	}
	wantRate := 4.0 / 3.0
	if diff := st.CommitsPerMinute - wantRate; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("CommitsPerMinute = %v, want %v", st.CommitsPerMinute, wantRate)
	}
	// 3 units left at 4/3 per minute = 2.25 minutes.
	if want := int64(2.25 * 60 * 1000); st.EtaMillis != want {
		t.Errorf("EtaMillis = %d, want %d", st.EtaMillis, want)
	}

	// Per-campaign partition: testSweep is bitcoin=3, lbc=2,
	// bitcoin-seed22=2 replications, all of one cost, so the dispatch order
	// is the sweep order and hands out bitcoin first.
	if len(st.Campaigns) != 3 {
		t.Fatalf("campaign breakdown: %+v", st.Campaigns)
	}
	bc := st.Campaigns[0]
	if bc.Name != "bitcoin" || bc.Units != 3 || bc.Done != 3 || bc.Pending != 0 {
		t.Errorf("campaign 0 status: %+v", bc)
	}
	if lbc := st.Campaigns[1]; lbc.Name != "lbc" || lbc.Done != 1 || lbc.Pending != 1 {
		t.Errorf("campaign 1 status: %+v", lbc)
	}

	// Commits beyond the rate window fall out of the rate; with the
	// queue idle for over statusRateWindow the oldest commits are
	// pruned and the remaining single commit yields no rate.
	*clock = clock.Add(statusRateWindow + time.Minute)
	if st := c.Status(); st.CommitsPerMinute != 0 {
		t.Errorf("rate survived the sliding window: %+v", st)
	}
}

// TestMetricsEndpoint scrapes GET /v1/metrics after a few fake commits
// and checks the Prometheus text exposition: queue gauges refreshed from
// Status, lease lifecycle counters, per-campaign labelled gauges, and
// the worker-reported timing summaries.
func TestMetricsEndpoint(t *testing.T) {
	c, ts := startCoordinator(t, testSweep(), CoordinatorConfig{})
	commitFake(t, c, "w", 1_200_000, 3_400_000, 50)
	commitFake(t, c, "w", 800_000, 2_600_000, 40)

	resp, err := http.Get(ts.URL + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", PathMetrics, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, want := range []string{
		"# TYPE bcbpt_fleet_units gauge",
		"bcbpt_fleet_units 7",
		"bcbpt_fleet_units_done 2",
		"bcbpt_fleet_units_pending 5",
		"# TYPE bcbpt_fleet_leases_granted_total counter",
		"bcbpt_fleet_leases_granted_total 2",
		"bcbpt_fleet_commits_accepted_total 2",
		`bcbpt_fleet_campaign_units{campaign="bitcoin"} 3`,
		`bcbpt_fleet_campaign_units_done{campaign="bitcoin"} 2`,
		`bcbpt_fleet_campaign_units_done{campaign="lbc"} 0`,
		"# TYPE bcbpt_fleet_unit_build_seconds summary",
		`bcbpt_fleet_unit_build_seconds{quantile="0.5"}`,
		"bcbpt_fleet_unit_build_seconds_count 2",
		"bcbpt_fleet_unit_run_seconds_count 2",
		"bcbpt_fleet_unit_ship_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	// The sums are worker wall time folded in seconds: 3.4 s + 2.6 s of
	// run, 50 µs + 40 µs of ship.
	for _, want := range []string{"bcbpt_fleet_unit_run_seconds_sum 6\n", "bcbpt_fleet_unit_ship_seconds_sum 9e-05\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("timing sum %q not folded; exposition:\n%s", want, text)
		}
	}
}

// scrapeMetrics fetches the Prometheus exposition.
func scrapeMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestWorkerTimingsReachMetrics: the timings of a real worker run — not
// hand-filled requests — must land in all three summaries. A 40-node
// shard encodes in microseconds, so a ship time carried in whole
// milliseconds would read zero and be dropped as "not reported".
func TestWorkerTimingsReachMetrics(t *testing.T) {
	c, ts := startCoordinator(t, testSweep(), CoordinatorConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	w := &Worker{CoordinatorURL: ts.URL, Name: "timed", Parallelism: 2, RetryInterval: 10 * time.Millisecond}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	text := scrapeMetrics(t, ts.URL)
	for _, phase := range []string{"build", "run", "ship"} {
		if want := "bcbpt_fleet_unit_" + phase + "_seconds_count 7\n"; !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsEscapesCampaignLabel: a sweep file may name a campaign
// anything non-empty, and the name becomes a label value — quote,
// backslash and newline must come out escaped, or the scrape is corrupt.
func TestMetricsEscapesCampaignLabel(t *testing.T) {
	sweep := oneUnitSweep()
	sweep[0].Name = "a\"b\\c\nd"
	_, ts := startCoordinator(t, sweep, CoordinatorConfig{})
	text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`bcbpt_fleet_campaign_units{campaign="a\"b\\c\nd"} 1` + "\n",
		`bcbpt_fleet_campaign_units_done{campaign="a\"b\\c\nd"} 0` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, text)
		}
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if !strings.HasPrefix(line, "# ") && !strings.HasPrefix(line, "bcbpt_") {
			t.Errorf("exposition line broken by an unescaped label: %q", line)
		}
	}
}
