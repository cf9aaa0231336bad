package experiment

import (
	"context"
	"maps"
	"slices"
	"testing"
	"time"

	"repro/internal/measure"
)

// TestInjectionsRunInAnyOrder pins that an injection's result is a function
// of the built network and the injection alone: on each overlay, churn-free,
// two builds of one spec run the same ten injections, one forward and one in
// reverse, and every injection measures the same Δt at every connection and
// misses the same ones. A reset ends everything of the injection before it
// and restarts every send key, so neither the sends nor the resets that came
// first can show. The lossy Bitcoin network makes some runs miss
// connections, so Missing is compared on something.
func TestInjectionsRunInAnyOrder(t *testing.T) {
	const runs = 10
	specs := []struct {
		name string
		spec Spec
	}{
		{"bitcoin", Spec{Nodes: 400, Seed: 3, Protocol: ProtoBitcoin}},
		{"bitcoin-loss", Spec{Nodes: 400, Seed: 3, Protocol: ProtoBitcoin, LossProb: 0.05}},
		{"lbc", Spec{Nodes: 400, Seed: 3, Protocol: ProtoLBC}},
		{"bcbpt", Spec{Nodes: 400, Seed: 3, Protocol: ProtoBCBPT}},
	}
	missing := 0
	for _, tc := range specs {
		name, spec := tc.name, tc.spec
		t.Run(name, func(t *testing.T) {
			order := func(reverse bool) []measure.RunResult {
				b, err := Build(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				defer b.Close()
				makeTx, out := txFactory(1000), make([]measure.RunResult, runs)
				for k := range runs {
					i := k
					if reverse {
						i = runs - 1 - k
					}
					b.Net.ResetInventory()
					if out[i], err = b.Measurer.MeasureOnce(context.Background(), makeTx(i), time.Minute); err != nil {
						t.Fatal(err)
					}
				}
				return out
			}
			fwd, rev := order(false), order(true)
			for i := range runs {
				f, r := fwd[i], rev[i]
				if len(f.Deltas) == 0 {
					t.Fatalf("injection %d measured nothing", i)
				}
				if !maps.Equal(f.Deltas, r.Deltas) || !slices.Equal(f.Missing, r.Missing) {
					t.Errorf("injection %d: forward Δt %v missing %v,\nreversed Δt %v missing %v", i, f.Deltas, f.Missing, r.Deltas, r.Missing)
				}
				if name == "bitcoin-loss" {
					missing += len(f.Missing)
				}
			}
		})
	}
	if missing == 0 {
		t.Error("the lossy network missed no connection: Missing was compared on nothing")
	}
}
