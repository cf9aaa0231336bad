package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// side is one side of a comparison: every report found at a path.
type side struct {
	// values[workload][metric] holds one end-to-end value per report, and
	// spreads the spread each report recorded beside it.
	values  map[string]map[string][]float64
	spreads map[string]map[string][]float64
	// exact[workload] holds each report's exact counts and digests.
	exact map[string]map[runKey]exactState
}

// runKey names the runs whose exact counts must agree: a traced run
// counts layers an untraced one cannot see.
type runKey struct {
	seed   int64
	traced bool
}

type exactState struct {
	counts  map[string]float64
	digests []string
}

// loadSide reads the report at path, or every report.json under it.
func loadSide(path string) (*side, error) {
	s := &side{
		values:  map[string]map[string][]float64{},
		spreads: map[string]map[string][]float64{},
		exact:   map[string]map[runKey]exactState{},
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	var files []string
	if info.IsDir() {
		err = filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && d.Name() == "report.json" {
				files = append(files, p)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	} else {
		files = []string{path}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no report.json under %s", path)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, w := range rep.Workloads {
			if s.values[w.Name] == nil {
				s.values[w.Name] = map[string][]float64{}
				s.spreads[w.Name] = map[string][]float64{}
				s.exact[w.Name] = map[runKey]exactState{}
			}
			for name, v := range w.EndToEnd {
				s.values[w.Name][name] = append(s.values[w.Name][name], v.Value)
				s.spreads[w.Name][name] = append(s.spreads[w.Name][name], v.Spread)
			}
			st := exactState{counts: map[string]float64{}, digests: w.Digests}
			for name, v := range w.PerLayer {
				if exactCounts[name] {
					st.counts[name] = v.Value
				}
			}
			s.exact[w.Name][runKey{rep.Seed, rep.Traced}] = st
		}
	}
	return s, nil
}

// minRunsForSpread is how many runs a side needs before the distance
// between their quartiles is taken as its spread; with fewer, the spread
// each run recorded across its own passes stands in.
const minRunsForSpread = 4

// compareReports prints, for every workload and end-to-end metric both
// sides have, how far b's median lies from a's against the metric's
// bound: ok, worse, or unresolved when a's own spread is wider than the
// bound. It then lists every exact count and op digest that differs
// between reports of the same seed. It reports whether anything was worse
// or differed.
func compareReports(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadSide(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSide(pathB)
	if err != nil {
		return false, err
	}
	bad := false
	fmt.Fprintf(out, "%-14s %-14s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "a", "b", "change", "spread", "bound", "verdict")
	for _, wl := range workloadNames {
		for _, m := range endToEnd {
			va, vb := a.values[wl][m.Name], b.values[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
			}
			spread := iqrFrac(va)
			if len(va) < minRunsForSpread {
				spread = 0
				for _, s := range append(a.spreads[wl][m.Name], b.spreads[wl][m.Name]...) {
					spread = max(spread, s)
				}
			}
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				bad = true
			}
			fmt.Fprintf(out, "%-14s %-14s %14.6g %14.6g %+8.2f%% %7.2f%% %6.0f%%  %s\n",
				wl, m.Name, ma, mb, change*100, spread*100, m.Bound*100, verdict)
		}
	}
	for _, wl := range workloadNames {
		var keys []runKey
		for k := range a.exact[wl] {
			if _, ok := b.exact[wl][k]; ok {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].seed != keys[j].seed {
				return keys[i].seed < keys[j].seed
			}
			return !keys[i].traced && keys[j].traced
		})
		for _, k := range keys {
			sa, sb := a.exact[wl][k], b.exact[wl][k]
			var names []string
			for name := range sa.counts {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				if sa.counts[name] != sb.counts[name] {
					bad = true
					fmt.Fprintf(out, "%s seed %d: %s differs: %v, %v\n", wl, k.seed, name, sa.counts[name], sb.counts[name])
				}
			}
			if fmt.Sprint(sa.digests) != fmt.Sprint(sb.digests) {
				bad = true
				fmt.Fprintf(out, "%s seed %d: op digests differ\n", wl, k.seed)
			}
		}
	}
	return bad, nil
}
