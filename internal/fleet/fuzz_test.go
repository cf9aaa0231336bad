package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
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
// endpoint of a coordinator holding one live lease (lease 1 of unit 0/0)
// — in memory and spooling. Whatever arrives, the handler must not panic
// and:
//
//   - a shard commit is accepted only if the body's header carries the
//     leased campaign's fingerprint and the whole body decodes;
//   - a rejection of any kind leaves the queue as it was and no
//     .tmp-lease* file in the spool;
//   - after an accepted shard, the identical commit again is Stale, and
//     still leaves no temp file;
//   - an in-memory and a spooling coordinator give the same answer, and
//     after an accepted shard return deeply equal outcomes.
func FuzzCommitBody(f *testing.F) {
	probe, err := NewCoordinator(oneUnitSweep(), CoordinatorConfig{})
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
		req, parseErr := parseCommit(query, body)
		bodyPrint, headerErr := measure.ShardFingerprint(body)
		_, decodeErr := measure.DecodeCampaignResult(body)

		var acks [2]CommitResponse
		var outcomes [2][]experiment.CampaignOutcome
		for i, spool := range []bool{false, true} {
			cfg := CoordinatorConfig{}
			if spool {
				cfg.SpoolDir = t.TempDir()
			}
			c, err := NewCoordinator(oneUnitSweep(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if l := c.leaseUnit("w").Lease; l == nil || l.ID != 1 {
				t.Fatalf("first lease is not lease 1: %+v", l)
			}
			noTemps := func(when string) {
				if !spool {
					return
				}
				entries, err := os.ReadDir(cfg.SpoolDir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if strings.Contains(e.Name(), ".tmp-lease") {
						t.Fatalf("spool=%v: %s left %s behind", spool, when, e.Name())
					}
				}
			}

			code, ack := postCommit(t, c, query, body)
			if parseErr != nil {
				if code != http.StatusBadRequest {
					t.Fatalf("spool=%v: unparseable commit (%v) answered %d, want 400", spool, parseErr, code)
				}
			} else if code != http.StatusOK {
				t.Fatalf("spool=%v: well-formed commit answered %d", spool, code)
			}
			acks[i] = ack
			if !ack.Accepted {
				noTemps("a rejected commit")
				if st := c.Status(); st.Done != 0 || st.Failed != "" || st.Leased != 1 {
					t.Fatalf("spool=%v: rejected commit (%+v) changed the queue: %+v", spool, ack, st)
				}
				continue
			}

			again := func() CommitResponse {
				_, ack := postCommit(t, c, query, body)
				noTemps("a resent commit")
				return ack
			}
			if req.Error != "" {
				// An error commit fails the sweep, idempotently.
				if st := c.Status(); st.Failed == "" || st.Done != 0 {
					t.Fatalf("spool=%v: accepted error commit did not fail the sweep: %+v", spool, st)
				}
				if second := again(); !second.Accepted {
					t.Fatalf("spool=%v: resent error commit: %+v", spool, second)
				}
				continue
			}
			if headerErr != nil || bodyPrint != print {
				t.Fatalf("spool=%v: accepted a shard whose header fingerprint is %016x (%v), leased campaign is %016x",
					spool, bodyPrint, headerErr, print)
			}
			if decodeErr != nil {
				t.Fatalf("spool=%v: accepted an undecodable shard: %v", spool, decodeErr)
			}
			if st := c.Status(); st.Done != 1 || !st.Complete {
				t.Fatalf("spool=%v: accepted commit did not complete the one-unit sweep: %+v", spool, st)
			}
			if second := again(); second.Accepted || !second.Stale {
				t.Fatalf("spool=%v: second identical commit: %+v, want stale", spool, second)
			}
			out, err := c.Outcomes()
			if err != nil {
				t.Fatalf("spool=%v: Outcomes after an accepted shard: %v", spool, err)
			}
			outcomes[i] = out
		}
		if acks[0] != acks[1] {
			t.Fatalf("in-memory coordinator answered %+v, spooling coordinator %+v", acks[0], acks[1])
		}
		if acks[0].Accepted && req.Error == "" && !reflect.DeepEqual(outcomes[0], outcomes[1]) {
			t.Fatalf("in-memory and spooled outcomes differ:\n%+v\nvs\n%+v", outcomes[0], outcomes[1])
		}
	})
}
