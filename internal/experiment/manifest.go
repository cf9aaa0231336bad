package experiment

import (
	"fmt"
	"time"
)

// Manifest says what a sweep ran, in the part that is a pure function of
// the experiment, its options and what its units dispatched — the same at
// every worker count, which is how a test pins it — plus each campaign's
// build and run wall, timed by the clock the frontend injected (experiment
// reads none). A frontend adds what only it can know: the worker counts
// and its binary's Go version and VCS revision.
type Manifest struct {
	Experiment   string             `json:"experiment"`
	Nodes        int                `json:"nodes"`
	Runs         int                `json:"runs"`
	Replications int                `json:"replications"`
	Seed         int64              `json:"seed"`
	Deadline     string             `json:"deadline"`
	Churn        bool               `json:"churn"`
	Campaigns    []CampaignManifest `json:"campaigns"`
}

// CampaignManifest is one campaign of a Manifest, in sweep order.
type CampaignManifest struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	// Units is the campaign's replications; Seeds is each one's root seed
	// (CampaignSpec.ReplicationSeed), and Dispatch is where each of them
	// stood in the sweep's DispatchOrder, 0 handed out first.
	Units    int     `json:"units"`
	Seeds    []int64 `json:"seeds"`
	Dispatch []int   `json:"dispatch"`
	// ExpectedEvents is the cost the units were ranked by and Events what
	// they dispatched, each summed over the campaign's units.
	ExpectedEvents uint64 `json:"expected_events"`
	Events         uint64 `json:"events"`
	// BuildSeconds and RunSeconds are the build and run wall summed over
	// the Timed units, those that reported under o.Clock; Timed is not
	// written, as a complete run's is Units.
	BuildSeconds float64 `json:"build_s"`
	RunSeconds   float64 `json:"run_s"`
	Timed        int     `json:"-"`
}

// NewManifest builds the manifest of the named experiment's sweep of
// campaigns under o. Each campaign's Events and walls are read from
// o.Totals, where the runner sums every unit under the campaign's name
// (zero without totals or, for the walls, a clock; campaigns sharing a
// name share one total).
func NewManifest(name string, o Options, campaigns []CampaignSpec) Manifest {
	o = o.withDefaults()
	m := Manifest{
		Experiment:   name,
		Nodes:        o.Nodes,
		Runs:         o.Runs,
		Replications: o.Replications,
		Seed:         o.Seed,
		Deadline:     o.Deadline.String(),
		Churn:        o.ChurnOn,
	}
	var owner []int // campaign of each unit, in DispatchOrder's indexing
	for ci, c := range campaigns {
		c = c.withDefaults()
		cm := CampaignManifest{
			Name:           c.Name,
			Fingerprint:    fmt.Sprintf("%016x", c.Fingerprint()),
			Units:          c.Replications,
			ExpectedEvents: c.expectedEvents() * uint64(c.Replications),
		}
		if o.Totals != nil {
			t := o.Totals.Campaign(c.Name)
			cm.Events, cm.Timed = t.Events, t.Timed
			cm.BuildSeconds, cm.RunSeconds = time.Duration(t.BuildNanos).Seconds(), time.Duration(t.RunNanos).Seconds()
		}
		for i := range c.Replications {
			cm.Seeds = append(cm.Seeds, c.ReplicationSeed(i))
			owner = append(owner, ci)
		}
		m.Campaigns = append(m.Campaigns, cm)
	}
	for pos, i := range DispatchOrder(campaigns) {
		cm := &m.Campaigns[owner[i]]
		cm.Dispatch = append(cm.Dispatch, pos)
	}
	return m
}
