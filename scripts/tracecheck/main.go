// Command tracecheck validates a trace export produced by
// `bcbpt-sim -trace` (or a CampaignSpec.Trace sweep): the Chrome
// trace_event JSON must parse and carry the shape Perfetto needs (names,
// categories, phase markers, microsecond timestamps), and every event must
// be of a kind the export names — message kinds ("send/inv"), measurement
// kinds ("first-seen", "inject"), the connection kinds ("connect",
// "disconnect") and the protocol kinds ("rtt", "join-decision",
// "cluster-assign"), never a reserved value.
// scripts/tracesmoke.sh runs it in CI so a malformed export can never ship
// silently — a trace nobody can open is worse than no trace. Neither can a
// partial one: an export whose ring overwrote events fails, in the words
// bcbpt-sim uses for it ("kept N of M events").
//
// Usage: tracecheck <trace.json>
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
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

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck <trace.json>")
		os.Exit(2)
	}
	summary, err := check(os.Args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracecheck: FAIL — %v\n", err)
		os.Exit(1)
	}
	fmt.Println("tracecheck: OK — " + summary)
}

// check validates the export and returns a one-line summary of it.
func check(jsonPath string) (string, error) {
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		return "", err
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return "", fmt.Errorf("%s does not parse as JSON: %v", jsonPath, err)
	}
	if tf.DisplayTimeUnit != "ms" {
		return "", fmt.Errorf("displayTimeUnit %q, want \"ms\"", tf.DisplayTimeUnit)
	}
	if len(tf.TraceEvents) == 0 {
		return "", fmt.Errorf("traceEvents is empty — a traced figure3 run records message and measurement events")
	}
	if tf.OtherData.DroppedEvents == nil {
		return "", fmt.Errorf("otherData.droppedEvents missing")
	}
	// The ring overwrote its oldest events: a valid export of the newest
	// ones, but not the whole run, and a trace read as the whole run.
	if kept, dropped := uint64(len(tf.TraceEvents)), *tf.OtherData.DroppedEvents; dropped > 0 {
		return "", fmt.Errorf("kept %d of %d events (ring overwrote %d)", kept, kept+dropped, dropped)
	}
	cats := map[string]int{}
	for i, ev := range tf.TraceEvents {
		switch {
		case ev.Name == "":
			return "", fmt.Errorf("event %d has no name", i)
		case ev.Name == "unknown":
			return "", fmt.Errorf("event %d (cat %s) has a kind the export does not name", i, ev.Cat)
		case ev.Cat == "":
			return "", fmt.Errorf("event %d (%s) has no cat", i, ev.Name)
		case ev.Ph != "i":
			return "", fmt.Errorf("event %d (%s) has phase %q, want \"i\"", i, ev.Name, ev.Ph)
		case ev.Ts == nil || *ev.Ts < 0:
			return "", fmt.Errorf("event %d (%s) has missing or negative ts", i, ev.Name)
		case ev.Pid == nil || ev.Tid == nil:
			return "", fmt.Errorf("event %d (%s) lacks pid/tid", i, ev.Name)
		}
		for _, k := range []string{"p1", "p2", "p3"} {
			if _, ok := ev.Args[k]; !ok {
				return "", fmt.Errorf("event %d (%s) lacks args.%s", i, ev.Name, k)
			}
		}
		cats[ev.Cat]++
	}
	// A figure3 trace must carry both the flood itself and the
	// measurement that observed it.
	for _, want := range []string{"p2p", "measure"} {
		if cats[want] == 0 {
			return "", fmt.Errorf("no %q events — the trace is missing a whole subsystem", want)
		}
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
	return fmt.Sprintf("%d events (%s), 0 dropped", len(tf.TraceEvents), strings.Join(parts, " ")), nil
}
