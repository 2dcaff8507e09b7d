package farm

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"diskpack/internal/disk"
)

// streamSpec is a small mixed-farm scenario with enough going on —
// heterogeneous groups, a cache, spin-downs — to exercise every window
// field.
func streamSpec() Spec {
	return Spec{
		Name: "stream-test",
		Groups: []DiskGroup{
			{Count: 4, Params: disk.DefaultParams()},
			{Count: 4, Params: disk.EcoParams()},
		},
		Workload:   SyntheticWorkload(miniSynthetic(400, 2)),
		Alloc:      Packed(0.5),
		Spin:       SpinSpec{Kind: SpinBreakEven},
		CacheBytes: 2 * disk.GB,
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// RunStream with a do-nothing sink must reproduce Run byte for byte —
// the telemetry machinery only reads state.
func TestRunStreamMatchesRun(t *testing.T) {
	for _, spec := range []Spec{
		streamSpec(),
		{ // homogeneous + tail-aware initial threshold
			Name:     "stream-homog",
			FarmSize: 6,
			Workload: SyntheticWorkload(miniSynthetic(300, 1)),
			Alloc:    Packed(0.5),
			Spin:     SpinSpec{Kind: SpinTailAware},
		},
	} {
		ref, err := Run(spec, 11)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunStream(spec, 11, 500, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, ref), mustJSON(t, got)) {
			t.Errorf("%s: RunStream(nil sink) diverges from Run", spec.Name)
		}
	}
}

// Window telemetry must account for the whole run: arrivals and
// completions sum to the farm totals, window energies sum to the final
// energy, and the group rows partition the totals.
func TestWindowAccounting(t *testing.T) {
	spec := streamSpec()
	var (
		windows  []Window
		arrivals int64
		done     int64
		energy   float64
	)
	m, err := RunStream(spec, 5, 700, func(w *Window, act *Actuator) error {
		windows = append(windows, *w)
		arrivals += w.Total.Arrivals
		done += w.Total.Completed
		energy += w.Total.Energy
		var gArr, gDone int64
		var gEnergy float64
		var hist int64
		for _, g := range w.Groups {
			gArr += g.Arrivals
			gDone += g.Completed
			gEnergy += g.Energy
			for _, n := range g.RespHist {
				hist += n
			}
		}
		if gArr != w.Total.Arrivals || gDone != w.Total.Completed {
			t.Errorf("window %d: groups sum to %d/%d, total says %d/%d", w.Index, gArr, gDone, w.Total.Arrivals, w.Total.Completed)
		}
		if hist != gDone {
			t.Errorf("window %d: response histogram holds %d, completed %d", w.Index, hist, gDone)
		}
		if math.Abs(gEnergy-w.Total.Energy) > 1e-6 {
			t.Errorf("window %d: group energy %v != total %v", w.Index, gEnergy, w.Total.Energy)
		}
		if len(w.Groups) != 2 {
			t.Fatalf("window %d: %d groups, want 2", w.Index, len(w.Groups))
		}
		if w.Groups[0].Disks != 4 || w.Groups[1].Disks != 4 {
			t.Errorf("window %d: group sizes %d/%d", w.Index, w.Groups[0].Disks, w.Groups[1].Disks)
		}
		if w.Groups[0].Threshold <= 0 {
			// BreakEven groups are not tunable; Threshold stays zero.
			// (That is the contract: only SpinTailAware groups report.)
			_ = w
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) == 0 {
		t.Fatal("no windows emitted")
	}
	last := windows[len(windows)-1]
	if !last.Final {
		t.Error("last window not marked Final")
	}
	if last.End != m.Duration {
		t.Errorf("last window ends at %v, horizon %v", last.End, m.Duration)
	}
	if done != m.Completed {
		t.Errorf("windows completed %d, run completed %d", done, m.Completed)
	}
	if arrivals < m.Completed {
		t.Errorf("windows arrivals %d < completed %d", arrivals, m.Completed)
	}
	if math.Abs(energy-m.Energy) > 1e-6*m.Energy {
		t.Errorf("windows energy %v, run energy %v", energy, m.Energy)
	}
	for i, w := range windows {
		if w.Index != i {
			t.Errorf("window %d reports index %d", i, w.Index)
		}
	}
}

// Tail-aware groups expose a shared per-group knob; other spin kinds
// refuse actuation.
func TestActuatorThresholds(t *testing.T) {
	spec := streamSpec()
	spec.Spin = SpinSpec{Kind: SpinTailAware}
	saw := false
	_, err := RunStream(spec, 3, 1000, func(w *Window, act *Actuator) error {
		if saw {
			return nil
		}
		saw = true
		if act.NumGroups() != 2 {
			t.Fatalf("NumGroups = %d, want 2", act.NumGroups())
		}
		be0 := disk.DefaultParams().BreakEvenThreshold()
		if got, ok := act.GroupThreshold(0); !ok || math.Abs(got-be0) > 1e-9 {
			t.Errorf("group 0 threshold %v ok=%v, want break-even %v", got, ok, be0)
		}
		if w.Groups[0].Threshold == 0 {
			t.Error("window does not carry the tunable threshold")
		}
		adopted, err := act.SetGroupThreshold(1, 5)
		if err != nil {
			t.Fatalf("SetGroupThreshold: %v", err)
		}
		if min := disk.EcoParams().BreakEvenThreshold() / 8; adopted < min-1e-9 {
			t.Errorf("adopted %v under the clamp %v", adopted, min)
		}
		if _, err := act.SetGroupThreshold(7, 5); err == nil {
			t.Error("out-of-range group accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	spec.Spin = SpinSpec{Kind: SpinBreakEven}
	_, err = RunStream(spec, 3, 4000, func(w *Window, act *Actuator) error {
		if _, err := act.SetGroupThreshold(0, 5); err == nil {
			t.Error("non-tail-aware group accepted a threshold")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A controlled spec must refuse the raw seam and, without a registered
// controller factory, refuse Run (the farm package itself registers
// none).
func TestControlledSpecNeedsRunner(t *testing.T) {
	spec := streamSpec()
	spec.Control = &ControlSpec{Controller: "tail-budget", Epoch: 100}
	if err := spec.Validate(); err != nil {
		t.Fatalf("controlled spec invalid: %v", err)
	}
	if _, err := RunStream(spec, 1, 100, nil); err == nil {
		t.Error("RunStream accepted a controlled spec")
	}
	if buildController == nil {
		if _, err := Run(spec, 1); err == nil {
			t.Error("Run accepted a controlled spec with no registered controller")
		}
	}
}

func TestControlSpecValidate(t *testing.T) {
	for _, bad := range []ControlSpec{
		{},
		{Controller: "tail-budget"},
		{Controller: "tail-budget", Epoch: -1},
		{Controller: "tail-budget", Epoch: 10, BudgetP95: -3},
		{Controller: "rate-respec", Epoch: 10, RespecFactor: 0.5},
		{Controller: "rate-respec", Epoch: 10, Alpha: 2},
	} {
		if err := bad.validate(); err == nil {
			t.Errorf("ControlSpec %+v accepted", bad)
		}
	}
	good := ControlSpec{Controller: "tail-budget", Epoch: 60, BudgetP95: 15}
	if err := good.validate(); err != nil {
		t.Errorf("valid ControlSpec rejected: %v", err)
	}
}

// The controller axis swaps the controller name per point, "static"
// strips it, and the whole thing survives JSON (so controlled grids
// shard).
func TestControllerAxis(t *testing.T) {
	ax, err := ParseAxis("control=static,tail-budget,rate-respec")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Kind != AxisController || len(ax.Names) != 3 {
		t.Fatalf("parsed %+v", ax)
	}
	base := streamSpec()
	base.Control = &ControlSpec{Controller: "tail-budget", Epoch: 900, BudgetP95: 15}
	sweep := Sweep{Name: "ctl", Base: base, Axes: []Axis{ax}}
	points, err := sweep.Points()
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Spec.Control != nil {
		t.Error("static point keeps Control")
	}
	if points[1].Spec.Control == nil || points[1].Spec.Control.Controller != "tail-budget" {
		t.Errorf("point 1 control = %+v", points[1].Spec.Control)
	}
	if points[2].Spec.Control == nil || points[2].Spec.Control.Controller != "rate-respec" {
		t.Errorf("point 2 control = %+v", points[2].Spec.Control)
	}
	if points[2].Spec.Control.Epoch != 900 {
		t.Error("axis lost the base epoch")
	}
	if base.Control.Controller != "tail-budget" {
		t.Error("axis mutated the base spec")
	}
	if points[1].Label != "control=tail-budget" {
		t.Errorf("label %q", points[1].Label)
	}

	// No base Control: named points must fail at compile time.
	noCtl := streamSpec()
	if _, err := (Sweep{Base: noCtl, Axes: []Axis{ax}}).Points(); err == nil {
		t.Error("controller axis without base Control accepted")
	}

	// Round-trip through the scenario file format.
	var buf bytes.Buffer
	if err := EncodeFile(&buf, File{Sweep: &sweep}); err != nil {
		t.Fatal(err)
	}
	doc, err := DecodeFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, sweep), mustJSON(t, *doc.Sweep)) {
		t.Error("controller sweep does not round-trip")
	}
	if err := Shardable(sweep); err != nil {
		t.Errorf("controller sweep not shardable: %v", err)
	}
}
