package main

import "testing"

// TestCheckFlags: -csv and -trace are refused, not dropped, on an experiment
// that would not honour them.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		exp, trace, csv string
		ok              bool
	}{
		{"figure3", "t.json", "f.csv", true},
		{"figure4", "t.json", "f.csv", true},
		{"variance-connections", "t.json", "", true},
		{"variance-connections", "", "f.csv", false},
		{"overhead", "", "", true},
		{"overhead", "t.json", "", false},
		{"overhead", "", "f.csv", false},
		{"eclipse", "t.json", "", false},
		{"partition", "", "f.csv", false},
		{"crawl", "t.json", "", false},
		{"doublespend", "", "f.csv", false},
		{"forks", "t.json", "", false},
	} {
		err := checkFlags(tc.exp, tc.trace, tc.csv)
		if (err == nil) != tc.ok {
			t.Errorf("%s -trace %q -csv %q: err %v, want ok %v", tc.exp, tc.trace, tc.csv, err, tc.ok)
		}
	}
}
