package control

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"testing"
	"time"

	"diskpack/internal/coord"
	"diskpack/internal/disk"
	"diskpack/internal/farm"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The PR's acceptance criterion: on the diurnal workload the
// controlled run beats every static threshold on energy while meeting
// the p95 SLO, and the sweep's selector therefore chooses it.
func TestStaticVsControlledWin(t *testing.T) {
	sc, ok := farm.Lookup("static-vs-controlled")
	if !ok || sc.Grid == nil {
		t.Fatal("static-vs-controlled not registered as a grid scenario")
	}
	res, err := farm.RunSweep(*sc.Grid, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	budget := sc.Grid.Select.MaxP95
	controlled := -1
	for i := range res.Points {
		if res.Points[i].Spec.Control != nil {
			controlled = i
		}
	}
	if controlled < 0 {
		t.Fatal("grid has no controlled point")
	}
	cm := res.Points[controlled].Metrics
	if cm.RespP95 > budget {
		t.Fatalf("controlled p95 %.2f over the %g s SLO", cm.RespP95, budget)
	}
	for i := range res.Points {
		if i == controlled {
			continue
		}
		m := res.Points[i].Metrics
		if m.RespP95 <= budget && m.Energy <= cm.Energy {
			t.Errorf("static point %s (%.4e J, p95 %.2f) not beaten by controlled (%.4e J)",
				res.Points[i].Label, m.Energy, m.RespP95, cm.Energy)
		}
	}
	if res.Best != controlled {
		t.Errorf("selector chose %d (%s), want the controlled point %d",
			res.Best, res.Points[res.Best].Label, controlled)
	}
}

// Controlled runs are pure functions of (spec, seed): repeat runs are
// byte-identical, including windows and the action log.
func TestControlledRunDeterminism(t *testing.T) {
	sc, _ := farm.Lookup("controlled-bursty")
	a, err := RunSpec(sc.Spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSpec(sc.Spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, a), mustJSON(t, b)) {
		t.Error("repeat controlled runs differ")
	}
	if len(a.Windows) == 0 {
		t.Error("no telemetry windows")
	}
	// And through farm.Run (what sweeps execute).
	m, err := farm.Run(sc.Spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, a.Metrics), mustJSON(t, m)) {
		t.Error("farm.Run result differs from RunSpec metrics")
	}
}

// A tail-budget controller with a cycle budget stops retuning into
// spin-happy thresholds once a group runs ahead of its pro-rated
// cycle allowance: the capped run cycles no more than the uncapped
// one, stays deterministic, and a tight cap bites visibly.
func TestTailBudgetCycleBudget(t *testing.T) {
	sc, _ := farm.Lookup("controlled-bursty")
	free, err := RunSpec(sc.Spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	capped := sc.Spec
	cs := *capped.Control
	cs.CycleBudget = 1
	capped.Control = &cs
	a, err := RunSpec(capped, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.SpinDowns > free.Metrics.SpinDowns {
		t.Errorf("cycle cap increased spin-downs: %d capped vs %d free",
			a.Metrics.SpinDowns, free.Metrics.SpinDowns)
	}
	if a.Metrics.SpinDowns >= free.Metrics.SpinDowns {
		t.Logf("note: cap did not bite (capped %d, free %d)", a.Metrics.SpinDowns, free.Metrics.SpinDowns)
	}
	b, err := RunSpec(capped, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, a), mustJSON(t, b)) {
		t.Error("repeat cycle-capped controlled runs differ")
	}
}

// controlledGrid is a small controlled sweep: the bursty base crossed
// with a controller axis (open-loop and every controller kind).
func controlledGrid(t *testing.T) farm.Sweep {
	t.Helper()
	sc, ok := farm.Lookup("controlled-bursty")
	if !ok {
		t.Fatal("controlled-bursty not registered")
	}
	ax, err := farm.ParseAxis("control=static,tail-budget,rate-respec,reorg-full,reorg-incremental,reorg-adaptive")
	if err != nil {
		t.Fatal(err)
	}
	return farm.Sweep{Name: "controlled-grid", Base: sc.Spec, Axes: []farm.Axis{ax}}
}

// A controlled sweep is byte-identical at any worker count and across
// shard → run → merge — the distributed executors inherit controlled
// specs through farm.Run with nothing special to do.
func TestControlledSweepShardMerge(t *testing.T) {
	grid := controlledGrid(t)
	ref, err := farm.RunSweep(grid, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := farm.RunSweep(grid, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, ref), mustJSON(t, par)) {
		t.Error("controlled sweep differs across worker counts")
	}
	for _, n := range []int{1, 2, 3} {
		shards, err := farm.Shard(grid, 9, n)
		if err != nil {
			t.Fatalf("shard %d: %v", n, err)
		}
		dir := t.TempDir()
		var journals []string
		for _, m := range shards {
			path := filepath.Join(dir, fmt.Sprintf("shard-%d.result.jsonl", m.Index))
			j, done, err := farm.OpenPointJournal(path, m.Sweep, m.Seed)
			if err != nil {
				t.Fatal(err)
			}
			_, err = farm.RunShard(context.Background(), m, done, 2, j.Append)
			j.Close()
			if err != nil {
				t.Fatalf("shard %d: %v", m.Index, err)
			}
			journals = append(journals, path)
		}
		merged, err := farm.Merge(journals)
		if err != nil {
			t.Fatalf("merge %d: %v", n, err)
		}
		if !bytes.Equal(mustJSON(t, ref), mustJSON(t, merged)) {
			t.Errorf("%d-shard merge differs from the single-process run", n)
		}
	}
}

// The same controlled grid drained through a coordinator pool matches
// the in-process run byte for byte.
func TestControlledSweepThroughCoordinator(t *testing.T) {
	grid := controlledGrid(t)
	ref, err := farm.RunSweep(grid, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	runner := coord.PoolRunner(ctx, 2, coord.Config{}, coord.WorkerConfig{Name: "ctl-test"})
	got, err := runner(grid, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, ref), mustJSON(t, got)) {
		t.Error("coordinator-pool controlled sweep differs from RunSweep")
	}
}

// rate-respec must actually re-plan: on the diurnal swing the observed
// rate drifts past the factor, the spec's workload field is rewritten,
// and files migrate — deterministically.
func TestRateRespecReplans(t *testing.T) {
	sc, _ := farm.Lookup("controlled-diurnal")
	spec := sc.Spec
	cfg := *spec.Workload.Synthetic
	cfg.Duration = 86400 // one day is enough to see the swing
	spec.Workload = farm.SyntheticWorkload(cfg)
	spec.Control = &farm.ControlSpec{Controller: KindRateRespec.String(), Epoch: 3600}
	a, err := RunSpec(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	applied := 0
	for _, act := range a.Actions {
		if act.Action.Kind == ActionRespec && act.Applied {
			applied++
			if act.MovedFiles <= 0 {
				t.Errorf("applied respec moved no files: %+v", act)
			}
		}
	}
	if applied == 0 {
		t.Fatalf("no applied respec in %d actions", len(a.Actions))
	}
	if a.Metrics.Sim.MigratedFiles == 0 || a.Metrics.Sim.MigrationEnergy <= 0 {
		t.Errorf("no migration accounted: %+v files, %v J",
			a.Metrics.Sim.MigratedFiles, a.Metrics.Sim.MigrationEnergy)
	}
	b, err := RunSpec(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, a), mustJSON(t, b)) {
		t.Error("repeat rate-respec runs differ")
	}
}

// pickThreshold: long gaps + budget → aggressive; short gaps → above
// the gap mass; long gaps + no budget → above the gaps (stall-free).
func TestTailBudgetPickThreshold(t *testing.T) {
	c := NewTailBudget(15, []disk.Params{disk.DefaultParams()})
	p := disk.DefaultParams()
	nb := len(farm.IdleGapBuckets()) + 1
	hist := func(bucket int, n int64) []int64 {
		h := make([]int64, nb)
		h[bucket] = n
		return h
	}
	// Bucket 8 covers (200,500] s — far beyond break-even 53.3 s.
	if got := c.pickThreshold(p, hist(8, 100), 1000, math.Inf(1)); got > p.BreakEvenThreshold() {
		t.Errorf("long gaps with budget picked %v, want aggressive (<= break-even)", got)
	}
	// Same gaps, no budget left: only stall-free thresholds remain.
	if got := c.pickThreshold(p, hist(8, 100), 0, math.Inf(1)); got <= 350 {
		t.Errorf("long gaps without budget picked %v, want above the gaps", got)
	}
	// Bucket 3 covers (5,10] s — spinning down in those gaps is a pure
	// loss; the pick must exceed them regardless of budget.
	if got := c.pickThreshold(p, hist(3, 100), 1000, math.Inf(1)); got < 10 {
		t.Errorf("short gaps picked %v, want at least 10 (never spin down inside them)", got)
	}
	// Empty histogram: no decision.
	if got := c.pickThreshold(p, make([]int64, nb), 1000, math.Inf(1)); got != 0 {
		t.Errorf("empty histogram picked %v", got)
	}
	// Long gaps, latency budget to spare, but the cycle budget is spent:
	// the pick must rise above the gaps so no further cycles accrue.
	if got := c.pickThreshold(p, hist(8, 100), 1000, 0); got <= 350 {
		t.Errorf("exhausted cycle budget picked %v, want above the gaps", got)
	}
	// A cycle allowance wider than the gap count leaves the aggressive
	// choice standing.
	if got := c.pickThreshold(p, hist(8, 100), 1000, 500); got > p.BreakEvenThreshold() {
		t.Errorf("ample cycle budget picked %v, want aggressive (<= break-even)", got)
	}
}

// A skipped re-plan must not move the controller's planned rate: the
// drift persists, so the next window retries instead of silently
// accepting a mis-provisioned allocation.
func TestRateRespecOutcomeFeedback(t *testing.T) {
	c := &RateRespec{Factor: 1.5, Alpha: 1, planned: 10}
	w := &farm.Window{Start: 0, End: 100}
	w.Total.Arrivals = 100 // 1 req/s — a 10× drop
	acts, _ := c.Observe(w, nil)
	if len(acts) != 1 || acts[0].Kind != ActionRespec {
		t.Fatalf("acts = %+v", acts)
	}
	c.ActionOutcome(acts[0], false) // the actuator skipped it
	w2 := *w
	w2.Start, w2.End = 100, 200
	if retry, _ := c.Observe(&w2, nil); len(retry) != 1 {
		t.Fatalf("skipped respec not retried: %+v", retry)
	}
	c.ActionOutcome(Action{Kind: ActionRespec, Rate: 1}, true)
	if c.planned != 1 {
		t.Errorf("planned = %v after applied respec, want 1", c.planned)
	}
	// Now in sync: no further action.
	w3 := w2
	w3.Start, w3.End = 200, 300
	if again, _ := c.Observe(&w3, nil); len(again) != 0 {
		t.Errorf("in-sync controller still acts: %+v", again)
	}
}

// An explicit initial threshold survives NewTunable exactly, even
// outside the default retuning range (the static comparison points
// depend on it).
func TestActuatorHonorsInitialThreshold(t *testing.T) {
	spec := farm.Spec{
		Name:     "tiny-threshold",
		FarmSize: 3,
		Workload: mustLookup("bursty").Spec.Workload,
		Alloc:    farm.Packed(0.5),
		Spin:     farm.SpinSpec{Kind: farm.SpinTailAware, Threshold: 3},
	}
	checked := false
	_, err := farm.RunStream(spec, 1, 4000, func(w *farm.Window, act *farm.Actuator) error {
		if checked {
			return nil
		}
		checked = true
		if got, ok := act.GroupThreshold(0); !ok || got != 3 {
			t.Errorf("initial threshold %v ok=%v, want exactly 3", got, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("no window observed")
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := New(farm.ControlSpec{Controller: "nope", Epoch: 60}, farm.Spec{}); err == nil {
		t.Error("New accepted an unknown controller")
	}
}

// RunSpec refuses open-loop specs; farm.Run refuses nothing (the
// registered controller sink handles controlled specs end to end).
func TestRunSpecGuards(t *testing.T) {
	sc, _ := farm.Lookup("bursty")
	if _, err := RunSpec(sc.Spec, 1); err == nil {
		t.Error("RunSpec accepted a spec without Control")
	}
}
