package farm_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"diskpack/internal/control"
	"diskpack/internal/farm"
	"diskpack/internal/obs"
)

// controllerGrid crosses the open-loop point and four controllers with
// two seeds on the heterogeneous farm, so controlled and open-loop
// points with equal seeds share one trace and one allocation.
func controllerGrid(t *testing.T) farm.Sweep {
	t.Helper()
	base := lookupSpec(t, "hetero")
	base.Spin = farm.SpinSpec{Kind: farm.SpinTailAware}
	base.Control = &farm.ControlSpec{Controller: "tail-budget", Epoch: 500, BudgetP95: 5}
	return farm.Sweep{
		Name: "controller-grid",
		Base: base,
		Axes: []farm.Axis{
			{Kind: farm.AxisController, Names: []string{"static", "tail-budget", "rate-respec", "reorg-full", "reorg-adaptive"}},
			{Kind: farm.AxisSeed, Values: []float64{0, 1}},
		},
	}
}

// Controlled points take their stages from the compiled sweep's memo
// like every other point and still equal an independent run, byte for
// byte, at any worker count. Every applied action reaches the observer
// exactly once: the sweep's actuation counter equals the applied
// actions control.RunSpec logs, so reorg-adaptive's what-if replays
// publish none.
func TestControlledGridMatchesIndependentRuns(t *testing.T) {
	const seed = 5
	sweep := controllerGrid(t)
	pts, err := sweep.Points()
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(pts))
	var applied int64
	for i, p := range pts {
		m, err := farm.Run(p.Spec, seed+p.SeedOffset)
		if err != nil {
			t.Fatalf("%s: %v", p.Label, err)
		}
		want[i] = mustMarshal(t, m)
		if p.Spec.Control == nil {
			continue
		}
		res, err := control.RunSpec(p.Spec, seed+p.SeedOffset)
		if err != nil {
			t.Fatalf("%s: %v", p.Label, err)
		}
		if !bytes.Equal(mustMarshal(t, res.Metrics), want[i]) {
			t.Errorf("%s: control.RunSpec differs from farm.Run", p.Label)
		}
		for _, a := range res.Actions {
			if a.Applied {
				applied++
			}
		}
	}
	if applied == 0 {
		t.Fatal("no controller applied an action; the grid tests nothing")
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			metrics := obs.NewRunMetrics(obs.NewRegistry(), farm.RespBuckets())
			prev := farm.SetRunObserver(&obs.RunObserver{Metrics: metrics})
			res, err := farm.RunSweep(sweep, seed, workers)
			farm.SetRunObserver(prev)
			if err != nil {
				t.Fatal(err)
			}
			for i := range res.Points {
				if !bytes.Equal(mustMarshal(t, res.Points[i].Metrics), want[i]) {
					t.Errorf("point %s differs from an independent run", res.Points[i].Label)
				}
			}
			if got := metrics.Actuations.Value(); got != applied {
				t.Errorf("observer counted %d actuations, controllers applied %d", got, applied)
			}
		})
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
