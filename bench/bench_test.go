package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload at test scale through the same code as a
// full run, traced pass and probes included, and checks what it reports.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	rep, err := runBenchmark(context.Background(), config{
		workloads: workloadNames, seed: 1, rule: passRule{min: 2, max: 2}, trace: true, smoke: true, outDir: out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads reported, want %d", len(rep.Workloads), len(workloadNames))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	byName := map[string]workloadResult{}
	for i, w := range rep.Workloads {
		byName[w.Name] = w
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
		if !w.Completed || w.Failed != 0 || w.Attempted < 1 {
			t.Errorf("%s: completed %v, %d of %d ops failed: %s", w.Name, w.Completed, w.Failed, w.Attempted, w.Error)
		}
		if w.Passes != 2 {
			t.Errorf("%s: %d passes, want 2", w.Name, w.Passes)
		}
		for _, m := range endToEnd {
			v, ok := w.EndToEnd[m.Name]
			if !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a positive value in %s", w.Name, m.Name, v, ok, m.Unit)
			}
		}
		for _, m := range perLayer {
			if _, ok := w.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, m.Name)
			}
		}
		if len(w.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(w.PerLayer), len(perLayer))
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
		}
	}

	// Each workload stresses the layer it was chosen for.
	if v := byName["fleet_replay"].PerLayer["sim.events"].Value; v != 0 {
		t.Errorf("fleet_replay simulated %v events, want none", v)
	}
	for _, wl := range []string{"relay_flood", "churn_relay", "bcbpt_build"} {
		if v := byName[wl].PerLayer["sim.events"].Value; v <= 0 {
			t.Errorf("%s: sim.events = %v, want > 0", wl, v)
		}
	}
	if v := byName["churn_relay"].PerLayer["churn.leaves"].Value; v <= 0 {
		t.Errorf("churn_relay: churn.leaves = %v, want > 0", v)
	}
	if v := byName["bcbpt_build"].PerLayer["core.clustered_frac"].Value; v != 1 {
		t.Errorf("bcbpt_build: core.clustered_frac = %v, want 1", v)
	}
	if v := byName["relay_flood"].PerLayer["obs.events_recorded"].Value; v <= 0 {
		t.Errorf("relay_flood: obs.events_recorded = %v, want > 0", v)
	}

	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	data, err := os.ReadFile(filepath.Join(out, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range trace.TraceEvents {
		seen[e.Name] = true
	}
	for _, want := range []string{"bench.op", "experiment.build", "core.rank", "core.join_run", "topology.bootstrap",
		"measure.measure_once", "fleet.commit", "experiment.figure3", "sim.kernel"} {
		if !seen[want] {
			t.Errorf("trace.json has no %q span", want)
		}
	}
	if entries, _ := filepath.Glob(filepath.Join(out, "spool-*")); len(entries) != 0 {
		t.Errorf("spool directories left behind: %v", entries)
	}

	// The same report compared with itself is ok on every row.
	var table bytes.Buffer
	path := filepath.Join(out, "report.json")
	bad, err := compareReports(&table, path, path)
	if err != nil || bad {
		t.Errorf("comparing a report with itself: bad %v, err %v\n%s", bad, err, table.String())
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables the harness prints from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if !reflect.DeepEqual(bm.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the harness's table:\n%+v\n%+v", bm.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bm.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the harness's table")
	}
}

func TestFastestPerOp(t *testing.T) {
	passes := [][]int64{
		{10, 50, 30},
		{12, 20, 35},
		{11, 25}, // cut short by an error
	}
	if got, want := fastestPerOp(passes), []int64{10, 20, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("fastestPerOp = %v, want %v", got, want)
	}
	if got := sumOfFastest(passes); got != 60 {
		t.Errorf("sumOfFastest = %d, want 60", got)
	}
	if got := sumOfFastest(nil); got != 0 {
		t.Errorf("sumOfFastest(nil) = %d, want 0", got)
	}
}

func TestPassRule(t *testing.T) {
	if converged([]int64{100}) {
		t.Error("one pass cannot have converged")
	}
	if !converged([]int64{130, 100, 103}) {
		t.Error("100 and 103 agree within 3 %")
	}
	if converged([]int64{130, 100, 104}) {
		t.Error("100 and 104 do not agree within 3 %")
	}
	tests := []struct {
		rule    passRule
		totals  []int64
		elapsed time.Duration
		want    bool
	}{
		{passRule{min: 3, budget: time.Second}, []int64{1, 1}, 2 * time.Second, false},       // below min, budget spent
		{passRule{min: 3, budget: time.Second}, []int64{1, 1, 1}, time.Second / 2, false},    // budget left
		{passRule{min: 3, budget: time.Second}, []int64{1, 1, 1}, time.Second, true},         // budget spent
		{passRule{min: 2, max: 2, budget: time.Hour}, []int64{1, 1}, 0, true},                // at max
		{passRule{min: 2}, []int64{100, 110}, 0, false},                                      // no budget, not converged
		{passRule{min: 2}, []int64{100, 110, 101}, 0, true},                                  // no budget, converged
		{passRule{min: 2}, []int64{100, 110, 120, 130, 140, 150, 160, 170}, 0, true},         // no budget: capped
		{passRule{min: 2, budget: time.Hour}, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 0, false},  // budget: uncapped
		{passRule{min: 5, max: 8}, []int64{100, 100, 100}, 0, false},                         // converged below min
		{passRule{min: 5, max: 8}, []int64{100, 200, 300, 400, 500, 600, 700, 800}, 0, true}, // max without convergence
	}
	for i, tc := range tests {
		if got := tc.rule.done(tc.totals, tc.elapsed); got != tc.want {
			t.Errorf("case %d: done = %v, want %v", i, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "bench.op", Parent: -1, Start: 0, End: 100},
		{Name: "experiment.build", Parent: 0, Start: 10, End: 70},
		{Name: "core.rank", Parent: 1, Start: 20, End: 50},
		{Name: "measure.attach", Parent: 0, Start: 70, End: 90},
	}
	want := []time.Duration{20, 30, 30, 20}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	var nilRec *recorder
	nilRec.end(nilRec.begin("x.y")) // a nil recorder records nothing and does not panic
	rec := newRecorder()
	rec.at("w", 3)
	outer := rec.begin("p2p.outer")
	rec.child("experiment.build", 0, 5)
	inner := rec.begin("sim.inner")
	rec.end(inner)
	rec.end(outer)
	if len(rec.spans) != 3 || rec.spans[1].Parent != 0 || rec.spans[2].Parent != 0 || rec.spans[0].Parent != -1 {
		t.Errorf("parents wrong: %+v", rec.spans)
	}
	if rec.spans[2].Op != 3 || rec.spans[2].Workload != "w" || rec.spans[2].layer() != "sim" {
		t.Errorf("span not labelled: %+v", rec.spans[2])
	}
	if got := rec.total("w", "experiment.build"); got != 5 {
		t.Errorf("total = %v, want 5ns", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	write := func(dir string, seed int64, wall, spread, events float64) {
		rep := report{Seed: seed, Workloads: []workloadResult{{
			Name: "relay_flood", Completed: true,
			EndToEnd: map[string]value{"wall_s": {Value: wall, Unit: "s", Spread: spread}},
			PerLayer: map[string]value{"sim.events": {Value: events, Unit: "count"}},
			Digests:  []string{"ab"},
		}}}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := rep.write(filepath.Join(dir, "report.json")); err != nil {
			t.Fatal(err)
		}
	}
	root := t.TempDir()
	write(filepath.Join(root, "a"), 1, 1.00, 0.01, 500)
	write(filepath.Join(root, "ok"), 1, 1.05, 0.01, 500)
	write(filepath.Join(root, "worse"), 1, 1.40, 0.01, 500)
	write(filepath.Join(root, "noisy"), 1, 1.40, 0.30, 500)
	write(filepath.Join(root, "counts"), 1, 1.00, 0.01, 501)
	for _, tc := range []struct {
		b, verdict string
		bad        bool
	}{
		{"ok", "ok", false},
		{"worse", "worse", true},
		{"noisy", "unresolved", false},
		{"counts", "sim.events differs", true},
	} {
		var table bytes.Buffer
		bad, err := compareReports(&table, filepath.Join(root, "a"), filepath.Join(root, tc.b))
		if err != nil {
			t.Fatal(err)
		}
		if bad != tc.bad || !strings.Contains(table.String(), tc.verdict) {
			t.Errorf("a against %s: bad %v, want %v and %q in\n%s", tc.b, bad, tc.bad, tc.verdict, table.String())
		}
	}
}
