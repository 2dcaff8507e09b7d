package farm

import (
	"encoding/json"
	"testing"
)

// TestFailureInjectionScenario pins the reliability engine end to end:
// the accelerated-wear scenario actually loses disks at the canonical
// seed, rebuild traffic exists and is charged to the run, and
// stripping the Reliability spec removes all of it.
func TestFailureInjectionScenario(t *testing.T) {
	sc, ok := Lookup("failure-injection")
	if !ok {
		t.Fatal("failure-injection scenario not registered")
	}
	m, err := Run(sc.Spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.Failures == 0 {
		t.Fatal("accelerated wear produced no failures")
	}
	if m.Rebuilds == 0 || m.RebuildTime <= 0 {
		t.Fatalf("failures without rebuilds: rebuilds=%d time=%v", m.Rebuilds, m.RebuildTime)
	}
	if m.Rebuilds > m.Failures {
		t.Fatalf("more rebuilds (%d) than failures (%d)", m.Rebuilds, m.Failures)
	}
	if m.AFR <= 0 || m.AFR >= 1 || m.CyclesPerDay <= 0 {
		t.Fatalf("implausible duty figures: AFR=%v cycles/day=%v", m.AFR, m.CyclesPerDay)
	}

	// The same spec without the reliability axis: no failures, and the
	// rebuild streams' energy is gone from the bill.
	quiet := sc.Spec
	quiet.Reliability = nil
	qm, err := Run(quiet, 7)
	if err != nil {
		t.Fatal(err)
	}
	if qm.Failures != 0 || qm.Rebuilds != 0 || qm.RebuildTime != 0 {
		t.Fatalf("reliability-less run reports failures: %+v", qm)
	}
	if qm.AFR <= 0 {
		t.Error("AFR should be modeled even without failure injection")
	}
	if m.Energy <= qm.Energy {
		t.Errorf("rebuild traffic not charged: energy %v with failures vs %v without", m.Energy, qm.Energy)
	}
}

// TestFailureScheduleRepeatable runs the failure-injection scenario
// twice at the same seed and demands byte-identical metrics — the
// failure/rebuild schedule is a pure function of (spec, seed).
func TestFailureScheduleRepeatable(t *testing.T) {
	sc, _ := Lookup("failure-injection")
	var runs [2]string
	for i := range runs {
		m, err := Run(sc.Spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = string(b)
	}
	if runs[0] != runs[1] {
		t.Fatal("failure-injection metrics differ across identical runs")
	}
}

// TestReliabilityWindowDeltas streams the failure-injection scenario
// and checks the per-window reliability deltas: they accumulate toward
// the run totals (the final reliability boundary lands after the last
// window closes, so the sums are a floor, not an identity).
func TestReliabilityWindowDeltas(t *testing.T) {
	sc, _ := Lookup("failure-injection")
	var failures, rebuilds int
	var rebuildTime float64
	m, err := RunStream(sc.Spec, 7, 900, func(w *Window, act *Actuator) error {
		if w.Failures < 0 || w.Rebuilds < 0 || w.RebuildTime < 0 {
			t.Fatalf("negative window delta: %+v", w)
		}
		failures += w.Failures
		rebuilds += w.Rebuilds
		rebuildTime += w.RebuildTime
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if failures == 0 {
		t.Fatal("no failures surfaced through window telemetry")
	}
	if failures > m.Failures || rebuilds > m.Rebuilds || rebuildTime > m.RebuildTime {
		t.Fatalf("window deltas overshoot totals: %d/%d failures, %d/%d rebuilds, %v/%v time",
			failures, m.Failures, rebuilds, m.Rebuilds, rebuildTime, m.RebuildTime)
	}
}

// TestReliabilitySweepTradeoff is the paper-style acceptance claim of
// the reliability axis: the unconstrained min-energy-under-SLO point
// burns drive life past the AFR budget, the slo-afr selector pays
// extra energy for a point inside it, and the cycle-capped policy
// (the scenario's base spec) meets the same budget at a bounded — in
// fact lower — energy cost than the best fixed threshold inside it.
func TestReliabilitySweepTradeoff(t *testing.T) {
	sc, ok := Lookup("reliability-sweep")
	if !ok || sc.Grid == nil {
		t.Fatal("reliability-sweep grid scenario not registered")
	}
	maxAFR := sc.Grid.Select.MaxAFR
	maxP95 := sc.Grid.Select.MaxP95

	res, err := RunSweep(*sc.Grid, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best < 0 {
		t.Fatal("slo-afr selector found no feasible point")
	}
	constrained := res.Points[res.Best].Metrics
	if constrained.AFR > maxAFR || constrained.RespP95 > maxP95 {
		t.Fatalf("selected point violates its own budgets: AFR=%v p95=%v", constrained.AFR, constrained.RespP95)
	}

	// Drop the AFR constraint: the cheapest point inside the latency
	// SLO alone must be a different, cheaper, shorter-lived machine.
	if err := res.Reselect(Selector{Kind: SelectMinEnergySLO, MaxP95: maxP95}); err != nil {
		t.Fatal(err)
	}
	if res.Best < 0 {
		t.Fatal("latency-only selector found no feasible point")
	}
	unconstrained := res.Points[res.Best].Metrics
	if unconstrained.AFR <= maxAFR {
		t.Fatalf("trade-off vanished: min-energy point AFR %v already inside budget %v", unconstrained.AFR, maxAFR)
	}
	if unconstrained.Energy > constrained.Energy {
		t.Fatalf("AFR constraint was free: %v J unconstrained vs %v J constrained", unconstrained.Energy, constrained.Energy)
	}

	// The cycle-capped policy answers the sweep: inside both budgets,
	// and cheaper than the best AFR-feasible fixed threshold.
	capped, err := Run(sc.Spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if capped.AFR > maxAFR {
		t.Fatalf("cycle-capped policy breaks the AFR budget: %v > %v", capped.AFR, maxAFR)
	}
	if capped.RespP95 > maxP95 {
		t.Fatalf("cycle-capped policy breaks the latency SLO: %v > %v", capped.RespP95, maxP95)
	}
	if capped.Energy > constrained.Energy {
		t.Errorf("cycle cap costs more (%v J) than the fixed threshold it should beat (%v J)", capped.Energy, constrained.Energy)
	}
	if capped.Energy > 2*unconstrained.Energy {
		t.Errorf("cycle cap energy %v J is unbounded against the unconstrained optimum %v J", capped.Energy, unconstrained.Energy)
	}
}

// TestReliabilityShardMergeByteIdentical extends the shard/merge
// guarantee to the reliability grid: sharded execution through the
// manifest codec and point journals reproduces the single-process sweep
// byte for byte, failure schedules included.
func TestReliabilityShardMergeByteIdentical(t *testing.T) {
	sc, _ := Lookup("reliability-sweep")
	direct, err := RunSweep(*sc.Grid, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, direct)
	for _, n := range []int{2, 3} {
		shards, err := Shard(*sc.Grid, 7, n)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		paths := make([]string, n)
		for i := n - 1; i >= 0; i-- {
			paths[i] = runShardJournal(t, roundTripShard(t, shards[i]), dir)
		}
		merged, err := Merge(paths)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultJSON(t, merged); got != want {
			t.Fatalf("n=%d: merged reliability sweep differs from single-process run", n)
		}
	}
}
