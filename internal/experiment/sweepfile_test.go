package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/churn"
)

func TestParseSweepValid(t *testing.T) {
	sf, err := ParseSweep([]byte(`{
		"title": "two ways to write a duration",
		"campaigns": [
			{
				"name": "bcbpt-50ms",
				"spec": {
					"nodes": 500, "seed": 7, "protocol": "bcbpt",
					"bcbpt": {
						"Threshold": "50ms", "ProbeCount": 3, "ProbeGap": "20ms",
						"Candidates": 16, "LongLinks": 2, "JoinStagger": "100ms",
						"DecisionSlack": "2s", "MemberSample": 64
					}
				},
				"replications": 4, "runs": 100, "deadline": "90s"
			},
			{
				"name": "bitcoin",
				"spec": {"nodes": 500, "seed": 7, "protocol": "bitcoin"},
				"deadline": 120000000000
			}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sf.Title != "two ways to write a duration" || len(sf.Campaigns) != 2 {
		t.Fatalf("parsed %q with %d campaigns", sf.Title, len(sf.Campaigns))
	}
	b := sf.Campaigns[0]
	if b.Name != "bcbpt-50ms" || b.Deadline != 90*time.Second || b.Replications != 4 {
		t.Errorf("campaign 0 parsed as %+v", b)
	}
	if got := b.Spec.BCBPT; got.Threshold != 50*time.Millisecond || got.ProbeGap != 20*time.Millisecond ||
		got.JoinStagger != 100*time.Millisecond || got.DecisionSlack != 2*time.Second {
		t.Errorf("bcbpt durations parsed as %+v", got)
	}
	// A name that merely looks like a duration must stay a string.
	if sf.Campaigns[1].Deadline != 2*time.Minute {
		t.Errorf("integer-nanosecond deadline parsed as %v", sf.Campaigns[1].Deadline)
	}
}

// TestParseSweepDurationKeysCaseInsensitive: encoding/json matches
// struct fields case-insensitively, so duration rewriting must too — a
// "Deadline" key still lands in the deadline field and its duration
// string must still parse.
func TestParseSweepDurationKeysCaseInsensitive(t *testing.T) {
	sf, err := ParseSweep([]byte(`{
		"campaigns": [{"name": "a", "spec": {"nodes": 40, "seed": 1, "protocol": "bitcoin"}, "Deadline": "45s"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sf.Campaigns[0].Deadline != 45*time.Second {
		t.Errorf(`"Deadline": "45s" parsed as %v`, sf.Campaigns[0].Deadline)
	}
}

// TestParseSweepTraceKey: a sweep file can request a trace export for a
// campaign via the "trace" key, and — like Name — the path must not
// move the campaign's fingerprint: a traced worker and an untraced
// coordinator still agree on what experiment they are running.
func TestParseSweepTraceKey(t *testing.T) {
	sf, err := ParseSweep([]byte(`{
		"campaigns": [{
			"name": "traced",
			"spec": {"nodes": 40, "seed": 1, "protocol": "bitcoin"},
			"trace": "out/trace.json"
		}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	traced := sf.Campaigns[0]
	if traced.Trace != "out/trace.json" {
		t.Fatalf("trace key parsed as %q", traced.Trace)
	}
	bare := traced
	bare.Trace = ""
	if traced.Fingerprint() != bare.Fingerprint() {
		t.Error("Trace path changed the campaign fingerprint; it must be excluded like Name")
	}
}

func TestParseSweepErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"malformed", `{"campaigns": [`, "unexpected EOF"},
		{"trailing document", `{"campaigns": [{"name": "a", "spec": {"nodes": 40, "seed": 1, "protocol": "bitcoin"}}]}
			{"campaigns": []}`, "trailing content"},
		{"no campaigns", `{"campaigns": []}`, "no campaigns"},
		{"unknown field", `{"campaigns": [{"name": "a", "spec": {"nodes": 40, "seed": 1, "protocol": "bitcoin"}, "replicatons": 3}]}`, "unknown field"},
		{"unknown spec field", `{"campaigns": [{"name": "a", "spec": {"nodes": 40, "seed": 1, "protocl": "bitcoin"}}]}`, "unknown field"},
		// The retired intra-simulation dispatch knob must fail loudly, not be
		// silently ignored. (Spelled in two halves so a repo-wide grep for
		// the retired key stays empty.)
		{"retired dispatch knob", `{"campaigns": [{"name": "a", "spec": {"nodes": 40, "seed": 1, "protocol": "lbc", "sim` + `_workers": 4}}]}`, "unknown field"},
		// So must the retired sketch-pooling key: a file that still asks for
		// it gets an error naming the key, not a silent exact run.
		{"retired streaming key", `{"campaigns": [{"name": "a", "spec": {"nodes": 40, "seed": 1, "protocol": "bitcoin"}, "streaming": true}]}`, `unknown field "streaming"`},
		// Every node validates alike and relays by INV/GETDATA/TX, so the
		// retired validation-depth and relay-mode keys are unknown too.
		{"retired validation key", `{"campaigns": [{"name": "a", "spec": {"nodes": 40, "seed": 1, "protocol": "bitcoin", "validation": 1}}]}`, `unknown field "validation"`},
		{"retired relay key", `{"campaigns": [{"name": "a", "spec": {"nodes": 40, "seed": 1, "protocol": "bitcoin", "relay": 1}}]}`, `unknown field "relay"`},
		// A network build has one path, so its retired width key is unknown.
		{"retired build width key", `{"campaigns": [{"name": "a", "spec": {"nodes": 40, "seed": 1, "protocol": "bcbpt", "build_workers": 4}}]}`, `unknown field "build_workers"`},
		{"missing name", `{"campaigns": [{"spec": {"nodes": 40, "seed": 1, "protocol": "bitcoin"}}]}`, "missing name"},
		{"duplicate names", `{"campaigns": [
			{"name": "a", "spec": {"nodes": 40, "seed": 1, "protocol": "bitcoin"}},
			{"name": "a", "spec": {"nodes": 40, "seed": 2, "protocol": "bitcoin"}}]}`, "duplicate name"},
		{"too few nodes", `{"campaigns": [{"name": "a", "spec": {"nodes": 2, "seed": 1, "protocol": "bitcoin"}}]}`, "at least 3 nodes"},
		{"bad protocol", `{"campaigns": [{"name": "a", "spec": {"nodes": 40, "seed": 1, "protocol": "gossipmax"}}]}`, "unknown protocol"},
		{"negative replications", `{"campaigns": [{"name": "a", "spec": {"nodes": 40, "seed": 1, "protocol": "bitcoin"}, "replications": -1}]}`, "negative replications"},
		{"bad duration", `{"campaigns": [{"name": "a", "spec": {"nodes": 40, "seed": 1, "protocol": "bitcoin"}, "deadline": "soonish"}]}`, "invalid duration"},
		{"partial bcbpt config", `{"campaigns": [{"name": "a", "spec": {"nodes": 40, "seed": 1, "protocol": "bcbpt", "bcbpt": {"Threshold": "25ms"}}}]}`, "ProbeCount"},
		{"bad churn", `{"campaigns": [{"name": "a", "spec": {"nodes": 40, "seed": 1, "protocol": "bitcoin", "churn": {"SessionShape": 0.5}}}]}`, "SessionScale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSweep([]byte(tc.json))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestLoadSweepFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(`{
		"campaigns": [{"name": "a", "spec": {"nodes": 40, "seed": 1, "protocol": "lbc"}, "runs": 3}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sf, err := LoadSweepFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sf.Campaigns) != 1 || sf.Campaigns[0].Spec.Protocol != ProtoLBC {
		t.Errorf("loaded %+v", sf)
	}

	if _, err := LoadSweepFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file loaded without error")
	}
	// A failing file names itself in the error.
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte(`{"campaigns": []}`), 0o644)
	if _, err := LoadSweepFile(bad); err == nil || !strings.Contains(err.Error(), "bad.json") {
		t.Errorf("load error does not name the file: %v", err)
	}
}

// TestParseSweepChurnDurations: churn model timings accept duration
// strings too.
func TestParseSweepChurnDurations(t *testing.T) {
	sf, err := ParseSweep([]byte(`{
		"campaigns": [{
			"name": "churny",
			"spec": {
				"nodes": 40, "seed": 1, "protocol": "bitcoin",
				"churn": {"SessionScale": "40m", "SessionShape": 0.6, "MeanArrival": "5s", "MinSession": "30s"}
			}
		}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	want := churn.Model{SessionScale: 40 * time.Minute, SessionShape: 0.6, MeanArrival: 5 * time.Second, MinSession: 30 * time.Second}
	if got := sf.Campaigns[0].Spec.Churn; got == nil || *got != want {
		t.Errorf("churn parsed as %+v, want %+v", got, want)
	}
}

// FuzzParseSweep feeds the sweep-file parser — the one place a user's
// bytes become campaign specs — arbitrary input. It must never panic, and
// whatever it accepts must be stable: written back out in the wire form
// and parsed again, the sweep has the same campaigns and every campaign
// the same fingerprint, so a coordinator and a worker that each read the
// file agree on the experiment.
func FuzzParseSweep(f *testing.F) {
	example, err := os.ReadFile("../../examples/sweeps/figure3-smoke.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	const campaign = `{"name": "a", "spec": {"nodes": 40, "seed": 1, "protocol": "bitcoin"}`
	// Durations as strings under either key case, as integers, and in the
	// structs that serialize under their Go field names.
	f.Add([]byte(`{"campaigns": [` + campaign + `, "Deadline": "45s"}, {"name": "25ms", "spec": {"nodes": 40, "seed": 1, "protocol": "lbc"}, "deadline": 120000000000}]}`))
	f.Add([]byte(`{"title": "t", "campaigns": [{"name": "c", "spec": {"nodes": 40, "seed": 1, "protocol": "bitcoin",
		"churn": {"SessionScale": "40m", "SessionShape": 0.6, "MeanArrival": "5s", "MinSession": "30s"}}}]}`))
	f.Add([]byte(`{"campaigns": [` + campaign + `, "deadline": "soonish"}]}`))
	// A trailing second document, and the retired sketch-pooling key.
	f.Add([]byte(`{"campaigns": [` + campaign + `}]} {"campaigns": []}`))
	f.Add([]byte(`{"campaigns": [` + campaign + `, "streaming": true}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := ParseSweep(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(sweepFileWire{Title: sf.Title, Campaigns: sf.Campaigns})
		if err != nil {
			t.Fatalf("re-marshalling an accepted sweep: %v", err)
		}
		again, err := ParseSweep(out)
		if err != nil {
			t.Fatalf("re-parsing an accepted sweep: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(again, sf) {
			t.Fatalf("sweep changed by being written and re-read:\n%+v\nthen\n%+v", sf, again)
		}
		for i, cs := range sf.Campaigns {
			if got, want := again.Campaigns[i].Fingerprint(), cs.Fingerprint(); got != want {
				t.Fatalf("campaign %q fingerprint %016x, re-read %016x", cs.Name, want, got)
			}
		}
	})
}

// TestExampleSweepMatchesFigure3Preset pins the checked-in example sweep
// to the figure3 preset it claims to reproduce: same series names, same
// spec fingerprints. scripts/fleetsmoke.sh byte-diffs the two outputs,
// which only holds while this stays true.
func TestExampleSweepMatchesFigure3Preset(t *testing.T) {
	sf, err := LoadSweepFile("../../examples/sweeps/figure3-smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	want := Figure3Campaigns(Options{Nodes: 120, Runs: 5, Seed: 1, Replications: 2})
	if len(sf.Campaigns) != len(want) {
		t.Fatalf("example defines %d campaigns, preset %d", len(sf.Campaigns), len(want))
	}
	for i := range want {
		if sf.Campaigns[i].Name != want[i].Name {
			t.Errorf("campaign %d named %q, preset %q", i, sf.Campaigns[i].Name, want[i].Name)
		}
		if got, exp := sf.Campaigns[i].Fingerprint(), want[i].Fingerprint(); got != exp {
			t.Errorf("campaign %q fingerprint %016x, preset %016x — the example has drifted from the preset",
				want[i].Name, got, exp)
		}
	}
}
