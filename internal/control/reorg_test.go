package control

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"diskpack/internal/disk"
	"diskpack/internal/farm"
	"diskpack/internal/obs"
	"diskpack/internal/workload"
)

// driftSpec is a NERSC-like trace whose hot set rotates over phases,
// packed at L=0.7 for phase 0 on a farm with reorganization headroom,
// windowed once per phase under the named controller.
func driftSpec(t *testing.T, phases int, controller string) farm.Spec {
	t.Helper()
	cfg := workload.DefaultNERSC(5)
	cfg.NumFiles = 3000
	cfg.NumRequests = 6000
	cfg.Duration = 6000 / 0.0447 // keep the paper's arrival rate
	tr, err := cfg.BuildDrifting(phases)
	if err != nil {
		t.Fatal(err)
	}
	spec := farm.Spec{
		Name:     "drift",
		Workload: farm.TraceWorkload(tr),
		Alloc:    farm.Packed(0.7),
		Spin:     farm.SpinSpec{Kind: farm.SpinBreakEven},
		Control:  &farm.ControlSpec{Controller: controller, Epoch: tr.Duration / float64(phases)},
	}
	plan, err := farm.Plan(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec.FarmSize = plan.DisksUsed + max(2, plan.DisksUsed/10)
	return spec
}

func runReorg(t *testing.T, spec farm.Spec) *Result {
	t.Helper()
	res, err := RunSpec(spec, 1)
	if err != nil {
		t.Fatalf("%s: %v", spec.Control.Controller, err)
	}
	return res
}

// A reorg controller whose epoch outlasts the trace sees only the
// final window, decides nothing, and reproduces the open-loop run.
func TestReorgSingleWindowMatchesOpenLoop(t *testing.T) {
	spec := driftSpec(t, 1, KindReorgFull.String())
	open := spec
	open.Control = nil
	want, err := farm.Run(open, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want.RespMean <= 0 || want.PowerSavingRatio <= 0 {
		t.Fatalf("implausible result: %+v", want)
	}
	for _, k := range []Kind{KindReorgFull, KindReorgIncremental, KindReorgAdaptive} {
		cs := *spec.Control
		cs.Controller = k.String()
		cs.Epoch = open.Workload.Trace.Duration + 1
		one := spec
		one.Control = &cs
		res := runReorg(t, one)
		if len(res.Windows) != 1 || len(res.Actions) != 0 {
			t.Fatalf("%v: %d windows, %d actions; want 1 and 0", k, len(res.Windows), len(res.Actions))
		}
		if !bytes.Equal(mustJSON(t, res.Metrics), mustJSON(t, want)) {
			t.Errorf("%v: single-window run differs from the open-loop run", k)
		}
	}
}

// Under drift, a full repack each window migrates, and its final
// window costs no more than 10% over the static allocation's (which
// was packed for phase 0 only). Foreground energy is compared;
// migration is billed separately.
func TestReorgTracksDrift(t *testing.T) {
	spec := driftSpec(t, 3, KindReorgFull.String())
	full := runReorg(t, spec)
	if full.Metrics.Sim.MigratedBytes == 0 {
		t.Fatal("reorganization moved nothing despite drift")
	}
	if len(full.Windows) != 3 {
		t.Fatalf("windows=%d want 3", len(full.Windows))
	}
	static := spec
	static.Control = nil
	var staticLast float64
	sm, err := farm.RunStream(static, 1, spec.Control.Epoch, func(w *farm.Window, _ *farm.Actuator) error {
		if w.Final {
			staticLast = w.Total.Energy
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sm.Sim.MigratedBytes != 0 {
		t.Fatal("static run migrated data")
	}
	if last := full.Windows[2].Total.Energy; last > staticLast*1.1 {
		t.Errorf("final window: full-repack energy %v much worse than static %v", last, staticLast)
	}
	t.Logf("static saving %.3f resp %.2f | full saving %.3f resp %.2f (migrated %.1f GB, %.0f J)",
		sm.PowerSavingRatio, sm.RespMean, full.Metrics.PowerSavingRatio, full.Metrics.RespMean,
		float64(full.Metrics.Sim.MigratedBytes)/1e9, full.Metrics.Sim.MigrationEnergy)
}

// The static point of a controller axis is the open-loop run: it
// migrates nothing.
func TestStaticNeverMigrates(t *testing.T) {
	spec := driftSpec(t, 3, KindReorgFull.String())
	res, err := farm.RunSweep(farm.Sweep{
		Name: "static",
		Base: spec,
		Axes: []farm.Axis{{Kind: farm.AxisController, Names: []string{"static"}}},
	}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Points[0].Metrics; m.Sim.MigratedBytes != 0 || m.Sim.MigrationEnergy != 0 {
		t.Fatalf("static run migrated %d bytes, %v J", m.Sim.MigratedBytes, m.Sim.MigrationEnergy)
	}
}

// The migration bill is booked once: the windows' shares sum to the
// run total, the action log's moved bytes sum to the migrated volume,
// and on a homogeneous farm the energy is a read plus a write of every
// moved byte at the drive's transfer rate and active power.
func TestMigrationCostAccounting(t *testing.T) {
	res := runReorg(t, driftSpec(t, 2, KindReorgFull.String()))
	sim := res.Metrics.Sim
	if sim.MigratedBytes == 0 {
		t.Fatal("nothing migrated — accounting unexercised")
	}
	var sumMig float64
	var sumBytes, logBytes int64
	for _, w := range res.Windows {
		sumMig += w.MigrationEnergy
		sumBytes += w.MigratedBytes
	}
	for _, a := range res.Actions {
		logBytes += a.MovedBytes
	}
	if math.Abs(sumMig-sim.MigrationEnergy) > 1e-6 {
		t.Errorf("migration energy mismatch: windows %v total %v", sumMig, sim.MigrationEnergy)
	}
	if sumBytes != sim.MigratedBytes || logBytes != sim.MigratedBytes {
		t.Errorf("migrated bytes mismatch: windows %d, action log %d, total %d", sumBytes, logBytes, sim.MigratedBytes)
	}
	p := disk.DefaultParams()
	want := 2 * float64(sim.MigratedBytes) / p.TransferRate * p.ActivePower
	if math.Abs(sim.MigrationEnergy-want) > 1e-6 {
		t.Errorf("migration energy %v want %v", sim.MigrationEnergy, want)
	}
}

// Adaptive names its choice at every non-final window and nothing at
// the final one, never migrates more than full repacking (keep and
// incremental are among its candidates), and is deterministic.
func TestAdaptiveChoosesPerEpoch(t *testing.T) {
	full := runReorg(t, driftSpec(t, 3, KindReorgFull.String()))
	spec := driftSpec(t, 3, KindReorgAdaptive.String())
	adaptive := runReorg(t, spec)
	if len(adaptive.Windows) != 3 {
		t.Fatalf("windows=%d want 3", len(adaptive.Windows))
	}
	if len(adaptive.Actions) != 2 {
		t.Fatalf("actions=%d want one per non-final window: %+v", len(adaptive.Actions), adaptive.Actions)
	}
	for i, a := range adaptive.Actions {
		choice, _, _ := strings.Cut(a.Note, ",")
		if a.Window != i || a.Action.Kind != ActionRealloc || !a.Applied {
			t.Errorf("action %d: %+v", i, a)
		}
		if choice != "keep" && choice != "incremental" && choice != "full-repack" {
			t.Errorf("window %d chose %q", i, choice)
		}
	}
	if a, f := adaptive.Metrics.Sim.MigratedBytes, full.Metrics.Sim.MigratedBytes; a > f {
		t.Errorf("adaptive migrated %d bytes, full repack only %d", a, f)
	}
	if s := adaptive.Metrics.PowerSavingRatio; s <= 0 || s > 1 {
		t.Errorf("adaptive saving %v implausible", s)
	}
	again := runReorg(t, spec)
	if !bytes.Equal(mustJSON(t, adaptive), mustJSON(t, again)) {
		t.Error("repeat adaptive runs differ")
	}
}

// Incremental migrates under drift, every window's move is its own
// plan, and each move fits the disks' capacity (Realloc would abort the
// run otherwise).
func TestIncrementalMigratesUnderDrift(t *testing.T) {
	res := runReorg(t, driftSpec(t, 3, KindReorgIncremental.String()))
	if res.Metrics.Sim.MigratedBytes == 0 {
		t.Fatal("incremental moved nothing despite drift")
	}
	for _, a := range res.Actions {
		if !a.Applied || !strings.HasPrefix(a.Note, "incremental,") {
			t.Errorf("window %d: %+v", a.Window, a)
		}
	}
}

// Adaptive's what-if replays run inside an observed run but publish
// nothing into its sinks: the completion counter and the disk tracks'
// spin-up segments count the run alone.
func TestReorgReplaysAreUnobserved(t *testing.T) {
	rec := obs.NewTraceRecorder()
	metrics := obs.NewRunMetrics(obs.NewRegistry(), farm.RespBuckets())
	prev := farm.SetRunObserver(&obs.RunObserver{Trace: rec, Metrics: metrics})
	defer farm.SetRunObserver(prev)
	res := runReorg(t, driftSpec(t, 3, KindReorgAdaptive.String()))
	if got, want := metrics.Completions.Value(), res.Metrics.Completed; got != want {
		t.Errorf("completions counter %d, run completed %d", got, want)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	spinups := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Pid == 1 && ev.Name == disk.SpinningUp.String() {
			spinups++
		}
	}
	if spinups != res.Metrics.SpinUps {
		t.Errorf("trace holds %d spin-up segments, run spun up %d times", spinups, res.Metrics.SpinUps)
	}
}
