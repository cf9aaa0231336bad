package main

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
)

// TestCheckFlags: a flag that changes results is refused, not dropped, on an
// experiment that would not read it; an unknown experiment is refused too.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		exp string
		set []string
		ok  bool
	}{
		{"figure3", []string{"trace", "csv"}, true},
		{"figure4", []string{"trace", "csv"}, true},
		{"variance-connections", []string{"trace"}, true},
		{"variance-connections", []string{"csv"}, false},
		{"overhead", nil, true},
		{"overhead", []string{"trace"}, false},
		{"overhead", []string{"csv"}, false},
		{"eclipse", []string{"trace"}, false},
		{"partition", []string{"csv"}, false},
		{"crawl", []string{"trace"}, false},
		{"doublespend", []string{"csv"}, false},
		{"forks", []string{"trace"}, false},
		{"figure3", []string{"runs", "replications", "deadline", "churn", "nodes", "seed", "workers", "timeout"}, true},
		{"figure3", []string{"runs", "dt"}, false},
		{"figure3", []string{"adversaries"}, false},
		{"figure4", []string{"dt"}, false},
		{"variance-connections", []string{"dt"}, false},
		{"overhead", []string{"runs", "deadline", "churn"}, true},
		{"overhead", []string{"replications"}, false},
		{"eclipse", []string{"dt", "adversaries", "nodes", "seed"}, true},
		{"eclipse", []string{"runs"}, false},
		{"partition", []string{"dt"}, false},
		{"partition", []string{"churn"}, false},
		{"crawl", []string{"runs"}, false},
		{"doublespend", []string{"deadline", "dt"}, true},
		{"doublespend", []string{"churn"}, false},
		{"forks", []string{"dt", "workers", "cpuprofile"}, true},
		{"forks", []string{"replications"}, false},
		{"forks", []string{"deadline"}, false},
		{"forks", []string{"churn"}, false},
		{"figure5", nil, false},
		// A value the experiment cannot use is refused before it runs,
		// naming the flag ("name=value" sets a value; the rest keep
		// bcbpt-sim's defaults).
		{"eclipse", []string{"adversaries=0"}, false},
		{"eclipse", []string{"adversaries=-4"}, false},
		{"eclipse", []string{"adversaries=1"}, true},
		{"forks", []string{"nodes=40", "dt=0s"}, false},
		{"doublespend", []string{"dt=-5ms"}, false},
		{"eclipse", []string{"dt=0s"}, false},
		{"doublespend", []string{"dt=1ms"}, true},
		{"forks", []string{"nodes=10"}, false},
		{"forks", []string{"nodes=39"}, false},
		{"forks", []string{"nodes=40"}, true},
		{"forks", []string{"nodes=0"}, true},
		{"figure3", []string{"nodes=10"}, true},
	} {
		v := flagValues{dt: 25 * time.Millisecond, adversaries: 16}
		var set []string
		valued := "" // the last flag given a value: what a refusal names
		for _, s := range tc.set {
			name, val, ok := strings.Cut(s, "=")
			set = append(set, name)
			if !ok {
				continue
			}
			valued = name
			var err error
			switch name {
			case "nodes":
				v.nodes, err = strconv.Atoi(val)
			case "adversaries":
				v.adversaries, err = strconv.Atoi(val)
			case "dt":
				v.dt, err = time.ParseDuration(val)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		err := checkFlags(tc.exp, set, v)
		if err != nil && valued != "" && !strings.Contains(err.Error(), "-"+valued) {
			t.Errorf("%s with %v: error %q does not name -%s", tc.exp, tc.set, err, valued)
		}
		if (err == nil) != tc.ok {
			t.Errorf("%s with %v set: err %v, want ok %v", tc.exp, tc.set, err, tc.ok)
		}
		if err != nil && len(tc.set) > 0 && !strings.Contains(err.Error(), tc.exp) {
			t.Errorf("%s with %v set: error %q does not name the experiment", tc.exp, tc.set, err)
		}
	}
}

// TestCrawlRefusesTooFewNodes: a crawl of fewer than three nodes is an
// error naming -nodes, where -nodes 0 used to index an empty network.
func TestCrawlRefusesTooFewNodes(t *testing.T) {
	for _, nodes := range []int{0, 2} {
		err := runCrawl(context.Background(), experiment.Options{Nodes: nodes, Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "-nodes") {
			t.Errorf("crawl of %d nodes: err %v, want one naming -nodes", nodes, err)
		}
	}
}
