package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one timed call from the harness into a layer. The name is
// "<layer>.<what>"; Parent indexes the enclosing span (-1 for none).
type span struct {
	Name     string
	Workload string
	Op       int
	Parent   int
	Start    time.Duration // since the recorder was made
	End      time.Duration
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps the spans of the traced pass in memory. A nil recorder
// records nothing, so workloads make the same calls traced and untraced.
// It serves one goroutine: spans open and close in stack order.
type recorder struct {
	t0       time.Time
	spans    []span
	open     []int
	workload string
	op       int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// at names the workload and op the following spans belong to.
func (r *recorder) at(workload string, op int) {
	if r != nil {
		r.workload, r.op = workload, op
	}
}

func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Workload: r.workload, Op: r.op, Parent: parent, Start: time.Since(r.t0)})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.t0)
	r.open = r.open[:len(r.open)-1]
}

// in runs f under a span. Timed ops use begin and end directly and so make
// no closure.
func (r *recorder) in(name string, f func() error) error {
	sp := r.begin(name)
	err := f()
	r.end(sp)
	return err
}

// child records a span of known length under the innermost open span,
// starting offset after it: for durations a layer reports about itself
// (experiment.RunUnitObserved's build and run times).
func (r *recorder) child(name string, offset, length time.Duration) {
	if r == nil || len(r.open) == 0 {
		return
	}
	parent := r.open[len(r.open)-1]
	start := r.spans[parent].Start + offset
	r.spans = append(r.spans, span{Name: name, Workload: r.workload, Op: r.op, Parent: parent, Start: start, End: start + length})
}

// durations returns the length of every span of that name in a workload.
func (r *recorder) durations(workload, name string) []time.Duration {
	if r == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range r.spans {
		if s.Workload == workload && s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

func (r *recorder) total(workload, name string) time.Duration {
	var sum time.Duration
	for _, d := range r.durations(workload, name) {
		sum += d
	}
	return sum
}

// selfTimes returns each span's duration minus the part its direct
// children cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// writeSelfTimeTable prints, per workload and span name, the call count,
// total and self time, largest self time first.
func writeSelfTimeTable(w io.Writer, spans []span) {
	type key struct{ workload, name string }
	type row struct {
		key
		calls       int
		total, self time.Duration
	}
	self := selfTimes(spans)
	byKey := map[key]*row{}
	var rows []*row
	for i, s := range spans {
		k := key{s.Workload, s.Name}
		r := byKey[k]
		if r == nil {
			r = &row{key: k}
			byKey[k] = r
			rows = append(rows, r)
		}
		r.calls++
		r.total += s.End - s.Start
		r.self += self[i]
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].workload != rows[j].workload {
			return rows[i].workload < rows[j].workload
		}
		return rows[i].self > rows[j].self
	})
	fmt.Fprintf(w, "%-14s %-28s %7s %12s %12s\n", "workload", "span", "calls", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-28s %7d %12.3f %12.3f\n", r.workload, r.name, r.calls,
			float64(r.total)/1e6, float64(r.self)/1e6)
	}
}

// writeChromeTrace writes the spans as Chrome trace_event JSON (complete
// events, microseconds), one thread per workload, for Perfetto or
// chrome://tracing.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	tids := map[string]int{}
	events := make([]event, 0, len(spans)+8)
	for i, s := range spans {
		tid, ok := tids[s.Workload]
		if !ok {
			tid = len(tids) + 1
			tids[s.Workload] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": s.Workload}})
		}
		events = append(events, event{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]any{"workload": s.Workload, "op": s.Op, "id": i, "parent": s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
