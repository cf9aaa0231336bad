package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/measure"
)

// postCommit hands the coordinator one commit request built field by
// field — httptest.NewRequest would panic on a query string that is not a
// valid request target, and the point is to deliver exactly such strings.
func postCommit(t *testing.T, c *Coordinator, query string, body []byte) (int, CommitResponse) {
	t.Helper()
	req := &http.Request{
		Method:        http.MethodPost,
		URL:           &url.URL{Path: PathCommit, RawQuery: query},
		Host:          "fleet",
		Header:        http.Header{"Content-Type": {"application/octet-stream"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
	}
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	var ack CommitResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
			t.Fatalf("200 response is not a CommitResponse: %v\n%s", err, rec.Body)
		}
	}
	return rec.Code, ack
}

// FuzzCommitBody throws an arbitrary query string and body at the commit
// endpoint of a coordinator holding one live lease (lease 1 of unit 0/0).
// Whatever arrives, the handler must not panic and:
//
//   - a commit is accepted only if the body's header carries the leased
//     campaign's fingerprint and the whole body decodes;
//   - a rejection of any kind leaves the queue as it was and no
//     .tmp-lease* file in the spool;
//   - after an accepted shard the queue is done, the identical commit
//     again is rejected and still leaves no temp file, and Outcomes holds
//     the shard.
//
// Some seeds carry query keys of an older protocol (error, build_us,
// run_us, ship_us); the coordinator ignores keys it does not read.
func FuzzCommitBody(f *testing.F) {
	probe, err := NewCoordinator(oneUnitSweep(), CoordinatorConfig{SpoolDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	print := probe.prints[0]
	encode := func(r measure.CampaignResult) []byte {
		data, err := measure.EncodeCampaignResult(r)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	valid := encode(measure.CampaignResult{
		Dist:        measure.NewDistribution([]time.Duration{3 * time.Millisecond, time.Millisecond}),
		Lost:        1,
		Fingerprint: print,
	})
	const unit = "worker=w&lease=1&campaign=0&replication=0"
	f.Add(unit, valid)
	f.Add(unit+"&build_us=5&run_us=7&ship_us=1", valid)
	f.Add(unit, encode(measure.CampaignResult{Fingerprint: print + 1}))
	f.Add(unit, valid[:len(valid)-1]) // sound header, truncated body
	f.Add(unit, append(valid[:len(valid):len(valid)], 0))
	f.Add(unit, []byte{})
	f.Add(unit+"&error=1", []byte("unit blew up"))
	f.Add(unit+"&error=1", []byte{})
	f.Add(unit+"&error=yes", valid)
	f.Add("worker=w&lease=2&campaign=0&replication=0", valid) // not the live lease
	f.Add("lease=1&campaign=9&replication=0", valid)
	f.Add("lease=1&campaign=0&replication=-1", valid)
	f.Add("lease=one&campaign=0&replication=0", valid)
	f.Add(unit+"&ship_us=soon", valid)
	f.Add("%zz", valid)
	f.Add("", valid)
	f.Add(unit, []byte(`{"worker":"w","lease_id":1,"campaign":0,"replication":0,"result":{"Dist":{"kind":"exact"}}}`))

	f.Fuzz(func(t *testing.T, query string, body []byte) {
		_, parseErr := parseCommit(query, body)
		bodyPrint, headerErr := measure.ShardFingerprint(body)
		want, decodeErr := measure.DecodeCampaignResult(body)

		dir := t.TempDir()
		c, err := NewCoordinator(oneUnitSweep(), CoordinatorConfig{SpoolDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if l := c.leaseUnit().Lease; l == nil || l.ID != 1 {
			t.Fatalf("first lease is not lease 1: %+v", l)
		}
		noTemps := func(when string) {
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.Contains(e.Name(), ".tmp-lease") {
					t.Fatalf("%s left %s behind", when, e.Name())
				}
			}
		}

		code, ack := postCommit(t, c, query, body)
		if parseErr != nil {
			if code != http.StatusBadRequest {
				t.Fatalf("unparseable commit (%v) answered %d, want 400", parseErr, code)
			}
		} else if code != http.StatusOK {
			t.Fatalf("well-formed commit answered %d", code)
		}
		if !ack.Accepted {
			noTemps("a rejected commit")
			// Lease 1 is still live: the queue has nothing to grant and
			// has not failed.
			if r := c.leaseUnit(); r.Status != LeaseWait {
				t.Fatalf("rejected commit (%+v) changed the queue: lease poll answered %+v", ack, r)
			}
			return
		}
		if headerErr != nil || bodyPrint != print {
			t.Fatalf("accepted a shard whose header fingerprint is %016x (%v), leased campaign is %016x",
				bodyPrint, headerErr, print)
		}
		if decodeErr != nil {
			t.Fatalf("accepted an undecodable shard: %v", decodeErr)
		}
		if r := c.leaseUnit(); r.Status != LeaseDone {
			t.Fatalf("accepted commit did not complete the one-unit sweep: lease poll answered %+v", r)
		}
		if _, second := postCommit(t, c, query, body); second.Accepted || second.Reason != "unit already committed" {
			t.Fatalf("second identical commit: %+v, want rejected as already committed", second)
		}
		noTemps("a resent commit")
		out, err := c.Outcomes()
		if err != nil {
			t.Fatalf("Outcomes after an accepted shard: %v", err)
		}
		if got := out[0].Result; !got.Dist.Equal(want.Dist) || got.Lost != want.Lost || got.Fingerprint != want.Fingerprint {
			t.Fatalf("Outcomes holds %+v, want the committed shard %+v", got, want)
		}
	})
}
