// Command tracecheck validates a trace export pair produced by
// `bcbpt-sim -trace` (or a CampaignSpec.Trace sweep): the Chrome
// trace_event JSON must parse and carry the shape Perfetto needs (names,
// categories, phase markers, microsecond timestamps), and the binary
// spool alongside it must decode through obs.ReadSpool to exactly the
// same event count. scripts/tracesmoke.sh runs it in CI so a malformed
// export can never ship silently — a trace nobody can open is worse
// than no trace. An export whose ring overwrote events is valid, and said
// to be partial in the words bcbpt-sim uses: "trace: kept N of M events".
//
// Usage: tracecheck <trace.json> <trace.json.bin>
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
)

// traceFile mirrors the JSON WriteTraceJSON emits. Pointer fields
// distinguish "absent" from zero values — ts 0 is a legal timestamp, a
// missing ts is a malformed event.
type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
	OtherData       struct {
		DroppedEvents *uint64 `json:"droppedEvents"`
	} `json:"otherData"`
}

type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   *float64          `json:"ts"`
	Pid  *int              `json:"pid"`
	Tid  *uint64           `json:"tid"`
	Args map[string]uint64 `json:"args"`
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracecheck: FAIL — "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck <trace.json> <trace.json.bin>")
		os.Exit(2)
	}
	data, err := os.ReadFile(os.Args[1])
	if err != nil {
		fail("%v", err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		fail("%s does not parse as JSON: %v", os.Args[1], err)
	}
	if tf.DisplayTimeUnit != "ms" {
		fail("displayTimeUnit %q, want \"ms\"", tf.DisplayTimeUnit)
	}
	if len(tf.TraceEvents) == 0 {
		fail("traceEvents is empty — a traced figure3 run records message and measurement events")
	}
	if tf.OtherData.DroppedEvents == nil {
		fail("otherData.droppedEvents missing")
	}
	cats := map[string]int{}
	for i, ev := range tf.TraceEvents {
		switch {
		case ev.Name == "":
			fail("event %d has no name", i)
		case ev.Cat == "":
			fail("event %d (%s) has no cat", i, ev.Name)
		case ev.Ph != "i":
			fail("event %d (%s) has phase %q, want \"i\"", i, ev.Name, ev.Ph)
		case ev.Ts == nil || *ev.Ts < 0:
			fail("event %d (%s) has missing or negative ts", i, ev.Name)
		case ev.Pid == nil || ev.Tid == nil:
			fail("event %d (%s) lacks pid/tid", i, ev.Name)
		}
		for _, k := range []string{"p1", "p2", "p3"} {
			if _, ok := ev.Args[k]; !ok {
				fail("event %d (%s) lacks args.%s", i, ev.Name, k)
			}
		}
		cats[ev.Cat]++
	}
	// A figure3 trace must carry both the flood itself and the
	// measurement that observed it; the fleet category appears only in
	// distributed runs, so it is not required.
	for _, want := range []string{"p2p", "measure"} {
		if cats[want] == 0 {
			fail("no %q events — the trace is missing a whole subsystem", want)
		}
	}

	sf, err := os.Open(os.Args[2])
	if err != nil {
		fail("%v", err)
	}
	spool, err := obs.ReadSpool(sf)
	sf.Close()
	if err != nil {
		fail("%s: %v", os.Args[2], err)
	}
	if len(spool) != len(tf.TraceEvents) {
		fail("spool has %d events, JSON has %d — the two exports diverged", len(spool), len(tf.TraceEvents))
	}

	names := make([]string, 0, len(cats))
	for c := range cats {
		names = append(names, c)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, c := range names {
		parts[i] = fmt.Sprintf("%s=%d", c, cats[c])
	}
	fmt.Printf("tracecheck: OK — %d events (%s), %d dropped, spool matches\n",
		len(tf.TraceEvents), strings.Join(parts, " "), *tf.OtherData.DroppedEvents)
	// The line bcbpt-sim -trace prints for a ring that overwrote events: a
	// valid export of the newest events is still not the whole run.
	if kept, dropped := uint64(len(tf.TraceEvents)), *tf.OtherData.DroppedEvents; dropped > 0 {
		fmt.Fprintf(os.Stderr, "trace: kept %d of %d events (ring overwrote %d)\n", kept, kept+dropped, dropped)
	}
}
