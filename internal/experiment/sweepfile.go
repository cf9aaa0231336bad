// Sweep files: user-authored JSON campaign lists, the escape hatch that
// opens sweep frontends (bcbpt-fleet serve/run) to arbitrary scenarios
// beyond the built-in figure presets. The schema is the CampaignSpec
// wire form with two authoring conveniences: a top-level title, and
// durations written as Go duration strings ("25ms", "2m") anywhere a
// duration field appears. Unknown fields are rejected loudly — a typoed
// "replicatons" must not silently run a 1-replication sweep.
//
//	{
//	  "title": "BCBPT threshold sweep, 2000 nodes",
//	  "campaigns": [
//	    {
//	      "name": "bcbpt-25ms",
//	      "spec": {"nodes": 2000, "seed": 7, "protocol": "bcbpt"},
//	      "replications": 4, "runs": 200, "deadline": "2m"
//	    }
//	  ]
//	}
package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// SweepFile is a parsed, validated sweep definition.
type SweepFile struct {
	// Title heads the merged figure (optional; frontends fall back to a
	// generic title).
	Title string
	// Campaigns is the sweep, in series order. Every campaign has been
	// validated: buildable spec, unique non-empty name.
	Campaigns []CampaignSpec
}

// sweepFileWire is the strict on-disk form.
type sweepFileWire struct {
	Title     string         `json:"title,omitempty"`
	Campaigns []CampaignSpec `json:"campaigns"`
}

// sweepDurationKeys names every duration-typed field reachable from the
// sweep schema, by its lowercased JSON key: CampaignSpec.Deadline, the
// core.Config probe/threshold timings, and the churn model timings (the
// latter two structs serialize under their Go field names). Matching is
// case-insensitive because encoding/json's field matching is too — a
// user writing "Deadline" still hits the deadline field, so its duration
// string must still be rewritten. Only string values under these keys
// are rewritten, so a campaign *named* "25ms" stays a string.
var sweepDurationKeys = map[string]bool{
	"deadline":      true, // CampaignSpec.Deadline
	"threshold":     true, // core.Config
	"probegap":      true,
	"joinstagger":   true,
	"decisionslack": true,
	"sessionscale":  true, // churn.Model
	"meanarrival":   true,
	"minsession":    true,
}

// normalizeDurations rewrites Go duration strings under duration-typed
// keys into integer nanoseconds — the representation time.Duration
// fields decode — and leaves everything else untouched.
func normalizeDurations(v any) (any, error) {
	switch t := v.(type) {
	case map[string]any:
		for k, mv := range t {
			if s, ok := mv.(string); ok && sweepDurationKeys[strings.ToLower(k)] {
				d, err := time.ParseDuration(s)
				if err != nil {
					return nil, fmt.Errorf("field %q: %w", k, err)
				}
				t[k] = json.Number(strconv.FormatInt(int64(d), 10))
				continue
			}
			nv, err := normalizeDurations(mv)
			if err != nil {
				return nil, err
			}
			t[k] = nv
		}
		return t, nil
	case []any:
		for i, ev := range t {
			nv, err := normalizeDurations(ev)
			if err != nil {
				return nil, err
			}
			t[i] = nv
		}
		return t, nil
	default:
		return v, nil
	}
}

// ParseSweep parses and validates a sweep definition from its JSON
// bytes. Every problem — malformed JSON, an unknown field, a spec the
// engine would refuse to build — is an error here, before any coordinator
// starts or any worker simulates.
func ParseSweep(data []byte) (SweepFile, error) {
	// First pass: generic decode (numbers kept verbatim) so duration
	// strings can be rewritten wherever they appear.
	var generic any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&generic); err != nil {
		return SweepFile{}, fmt.Errorf("experiment: sweep file: %w", err)
	}
	if dec.More() {
		// A second document (a botched paste, a concatenated file) would
		// otherwise be silently ignored — and the wrong sweep run.
		return SweepFile{}, errors.New("experiment: sweep file: trailing content after the sweep document")
	}
	generic, err := normalizeDurations(generic)
	if err != nil {
		return SweepFile{}, fmt.Errorf("experiment: sweep file: %w", err)
	}
	normalized, err := json.Marshal(generic)
	if err != nil {
		return SweepFile{}, fmt.Errorf("experiment: sweep file: %w", err)
	}

	// Second pass: strict decode into the typed schema.
	var wire sweepFileWire
	dec = json.NewDecoder(bytes.NewReader(normalized))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		return SweepFile{}, fmt.Errorf("experiment: sweep file: %w", err)
	}

	if len(wire.Campaigns) == 0 {
		return SweepFile{}, errors.New(`experiment: sweep file defines no campaigns (want {"campaigns": [...]})`)
	}
	seen := make(map[string]bool, len(wire.Campaigns))
	for i, cs := range wire.Campaigns {
		where := fmt.Sprintf("campaign %d", i+1)
		if cs.Name != "" {
			where = fmt.Sprintf("campaign %d (%q)", i+1, cs.Name)
		}
		switch {
		case cs.Name == "":
			return SweepFile{}, fmt.Errorf("experiment: sweep file: %s: missing name (the series label)", where)
		case seen[cs.Name]:
			return SweepFile{}, fmt.Errorf("experiment: sweep file: %s: duplicate name", where)
		case cs.Replications < 0:
			return SweepFile{}, fmt.Errorf("experiment: sweep file: %s: negative replications", where)
		case cs.Runs < 0:
			return SweepFile{}, fmt.Errorf("experiment: sweep file: %s: negative runs", where)
		case cs.Deadline < 0:
			return SweepFile{}, fmt.Errorf("experiment: sweep file: %s: negative deadline", where)
		}
		seen[cs.Name] = true
		if err := cs.Spec.validate(); err != nil {
			return SweepFile{}, fmt.Errorf("experiment: sweep file: %s: %w", where, err)
		}
		if cs.Spec.Churn != nil {
			if err := cs.Spec.Churn.Validate(); err != nil {
				return SweepFile{}, fmt.Errorf("experiment: sweep file: %s: %w", where, err)
			}
		}
	}
	return SweepFile{Title: wire.Title, Campaigns: wire.Campaigns}, nil
}

// LoadSweepFile reads and validates the sweep definition at path.
func LoadSweepFile(path string) (SweepFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SweepFile{}, fmt.Errorf("experiment: sweep file: %w", err)
	}
	sf, err := ParseSweep(data)
	if err != nil {
		return SweepFile{}, fmt.Errorf("%w (%s)", err, path)
	}
	return sf, nil
}
