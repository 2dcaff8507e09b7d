package farm

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"diskpack/internal/disk"
	"diskpack/internal/trace"
	"diskpack/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testSpec returns a small valid spec for mutation by the validation
// table.
func testSpec() Spec {
	return Spec{
		Name:     "test",
		Workload: SyntheticWorkload(miniSynthetic(300, 2)),
		Alloc:    Packed(0.7),
		Spin:     SpinSpec{Kind: SpinBreakEven},
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string // empty = valid
	}{
		{"valid baseline", func(s *Spec) {}, ""},
		{"valid explicit alloc", func(s *Spec) { s.Alloc = Explicit([]int{0, 1}) }, ""},
		{"valid fixed spin", func(s *Spec) { s.Spin = FixedSpin(120) }, ""},
		{"valid groups", func(s *Spec) {
			s.Groups = []DiskGroup{{Count: 4, Params: disk.DefaultParams()}, {Count: 4, Params: disk.EcoParams()}}
		}, ""},
		{"missing workload config", func(s *Spec) { s.Workload = WorkloadSpec{Kind: WorkloadSynthetic} },
			"synthetic workload without a config"},
		{"trace workload without trace", func(s *Spec) { s.Workload = WorkloadSpec{Kind: WorkloadTrace} },
			"trace workload without a trace"},
		{"unknown workload kind", func(s *Spec) { s.Workload = WorkloadSpec{Kind: WorkloadKind(99)} },
			"unknown workload kind"},
		{"capL zero", func(s *Spec) { s.Alloc.CapL = 0 }, "load constraint"},
		{"capL above one", func(s *Spec) { s.Alloc.CapL = 1.5 }, "load constraint"},
		{"capL NaN", func(s *Spec) { s.Alloc.CapL = math.NaN() }, "load constraint"},
		{"packv without group size", func(s *Spec) { s.Alloc = AllocSpec{Kind: AllocPackV, CapL: 0.7} },
			"group size"},
		{"explicit without assignment", func(s *Spec) { s.Alloc = AllocSpec{Kind: AllocExplicit} },
			"without an assignment"},
		{"unknown alloc kind", func(s *Spec) { s.Alloc.Kind = AllocKind(99) }, "unknown allocation kind"},
		{"negative fixed threshold", func(s *Spec) { s.Spin = FixedSpin(-1) }, "spin threshold"},
		{"threshold on non-fixed policy", func(s *Spec) { s.Spin = SpinSpec{Kind: SpinNever, Threshold: 5} },
			"policy is never"},
		{"unknown spin kind", func(s *Spec) { s.Spin.Kind = SpinKind(99) }, "unknown spin kind"},
		{"empty group", func(s *Spec) { s.Groups = []DiskGroup{{Count: 0, Params: disk.DefaultParams()}} },
			"group 0 has count"},
		{"invalid group params", func(s *Spec) { s.Groups = []DiskGroup{{Count: 2, Params: disk.Params{}}} },
			"group 0"},
		{"farm size with groups", func(s *Spec) {
			s.Groups = []DiskGroup{{Count: 2, Params: disk.DefaultParams()}}
			s.FarmSize = 10
		}, "alongside Groups"},
		{"negative farm size", func(s *Spec) { s.FarmSize = -1 }, "negative farm size"},
		{"negative cache", func(s *Spec) { s.CacheBytes = -1 }, "negative cache size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testSpec()
			tc.mutate(&s)
			err := s.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// fingerprint renders every field of the metrics (including the full
// per-disk breakdowns) so byte equality means value equality. The Sim
// pointer is blanked before formatting — its address differs between
// runs; its pointee is rendered separately.
func fingerprint(m *Metrics) string {
	flat := *m
	flat.Sim = nil
	return fmt.Sprintf("%+v|%+v", flat, *m.Sim)
}

func TestRunDeterminism(t *testing.T) {
	specs := map[string]Spec{
		"synthetic":  testSpec(),
		"randomized": {Name: "r", Workload: testSpec().Workload, Alloc: Packed(0.7), Spin: SpinSpec{Kind: SpinRandomized}},
		"hetero": {Name: "h", Workload: testSpec().Workload, Alloc: Packed(0.7),
			Spin: SpinSpec{Kind: SpinBreakEven},
			Groups: []DiskGroup{
				{Count: 10, Params: disk.DefaultParams()},
				{Count: 10, Params: disk.EcoParams()},
			}},
		"bursty": {Name: "b", Workload: BurstyWorkload(workload.Bursty{
			NumFiles: 300, Theta: workload.DefaultTheta,
			MinSize: 5 * disk.MB, MaxSize: 100 * disk.MB,
			OnRate: 10, MeanOn: 30, MeanOff: 120, Duration: 2000,
		}), Alloc: Packed(0.7), Spin: SpinSpec{Kind: SpinBreakEven}},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			a, err := Run(spec, 7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(spec, 7)
			if err != nil {
				t.Fatal(err)
			}
			if fa, fb := fingerprint(a), fingerprint(b); fa != fb {
				t.Fatalf("Run(spec, 7) not deterministic:\nfirst:  %s\nsecond: %s", fa, fb)
			}
			c, err := Run(spec, 8)
			if err != nil {
				t.Fatal(err)
			}
			if spec.Workload.Kind != WorkloadTrace && fingerprint(a) == fingerprint(c) {
				t.Fatal("different seeds produced identical metrics — seed is not threaded through")
			}
		})
	}
}

func TestRunBasics(t *testing.T) {
	m, err := Run(testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if m.Energy <= 0 || m.AvgPower <= 0 {
		t.Fatalf("implausible energy %v / power %v", m.Energy, m.AvgPower)
	}
	if m.DisksUsed > m.FarmSize {
		t.Fatalf("DisksUsed %d exceeds FarmSize %d", m.DisksUsed, m.FarmSize)
	}
	if m.LowerBound < 1 || m.DisksUsed < m.LowerBound {
		t.Fatalf("packing lower bound %d vs used %d inconsistent", m.LowerBound, m.DisksUsed)
	}
	if len(m.Utilization) != m.FarmSize {
		t.Fatalf("utilization covers %d disks, want %d", len(m.Utilization), m.FarmSize)
	}
	if m.RespMean <= 0 || m.RespP95 < m.RespMedian {
		t.Fatalf("implausible response stats: mean %v median %v p95 %v", m.RespMean, m.RespMedian, m.RespP95)
	}
}

func TestHeterogeneousFarm(t *testing.T) {
	spec := Spec{
		Name:     "hetero-test",
		Workload: SyntheticWorkload(miniSynthetic(300, 2)),
		Alloc:    Packed(0.7),
		Spin:     SpinSpec{Kind: SpinBreakEven},
		Groups: []DiskGroup{
			{Count: 6, Params: disk.DefaultParams()},
			{Count: 6, Params: disk.EcoParams()},
		},
	}
	m, err := Run(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.FarmSize != 12 {
		t.Fatalf("FarmSize = %d, want 12 (group total)", m.FarmSize)
	}
	// A group too small for the allocation must be rejected, not
	// silently overfilled.
	spec.Groups = []DiskGroup{{Count: 1, Params: disk.DefaultParams()}}
	if m.DisksUsed > 1 {
		if _, err := Run(spec, 3); err == nil {
			t.Fatal("allocation larger than the farm was not rejected")
		}
	}
}

func TestExplicitAllocationAndTraceWorkload(t *testing.T) {
	tr := &trace.Trace{
		Files: []trace.FileInfo{
			{ID: 0, Size: 10 * disk.MB, Rate: 0.01},
			{ID: 1, Size: 20 * disk.MB, Rate: 0.02},
		},
		Requests: []trace.Request{{Time: 1, FileID: 0}, {Time: 2, FileID: 1}, {Time: 500, FileID: 0}},
		Duration: 1000,
	}
	spec := Spec{
		Name:     "explicit",
		Workload: TraceWorkload(tr),
		Alloc:    Explicit([]int{0, 1}),
		Spin:     FixedSpin(60),
	}
	m, err := Run(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 3 {
		t.Fatalf("Completed = %d, want 3", m.Completed)
	}
	if m.FarmSize != 2 || m.DisksUsed != 2 {
		t.Fatalf("farm %d/%d, want 2/2", m.DisksUsed, m.FarmSize)
	}
	if m.LowerBound != 0 || m.Rho != 0 {
		t.Fatal("explicit allocation should not report packing-quality numbers")
	}
}

func TestScenarioRegistry(t *testing.T) {
	scs := Scenarios()
	if len(scs) < 6 {
		t.Fatalf("only %d built-in scenarios, want >= 6", len(scs))
	}
	for _, want := range []string{"hetero", "diurnal", "bursty", "slo-sweep"} {
		if _, ok := Lookup(want); !ok {
			t.Fatalf("scenario %q missing from registry", want)
		}
	}
	if _, err := RunScenario("no-such-scenario", 1); err == nil {
		t.Fatal("unknown scenario did not error")
	}
}

// TestBuiltinScenariosRun executes every registered scenario end to end
// — the registry's contract is that each entry is runnable by name —
// and pins every run against testdata/scenarios.golden: one line per
// run with its energy, p95, spin-ups, completions and a hash of the
// full Metrics JSON. Controlled scenarios are also replayed under
// rate-respec, so both pre-existing controllers are pinned. Regenerate
// with -update.
func TestBuiltinScenariosRun(t *testing.T) {
	if testing.Short() {
		t.Skip("built-in scenarios take a few seconds")
	}
	scs := Scenarios()
	lines := make([][]string, len(scs))
	if runtime.GOARCH == "amd64" {
		t.Cleanup(func() {
			var all []string
			for _, l := range lines {
				all = append(all, l...)
			}
			checkGolden(t, "scenarios.golden", strings.Join(all, "\n")+"\n")
		})
	} else {
		t.Logf("scenario golden compared only on amd64 (GOARCH=%s: Go may fuse multiply-adds)", runtime.GOARCH)
	}
	for i, sc := range scs {
		i, sc := i, sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, err := RunScenario(sc.Name, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Runs) == 0 || len(res.Labels) != len(res.Runs) {
				t.Fatalf("runs/labels mismatch: %d/%d", len(res.Runs), len(res.Labels))
			}
			for i, m := range res.Runs {
				if m.Completed == 0 {
					t.Fatalf("run %s completed no requests", res.Labels[i])
				}
			}
			switch {
			case sc.Grid != nil:
				// Grid scenarios pick Best with their own selector (or
				// none: -1); any in-range index is valid here.
				if res.Best < -1 || res.Best >= len(res.Runs) {
					t.Fatalf("grid scenario Best = %d with %d runs", res.Best, len(res.Runs))
				}
				sel := sc.Grid.Select
				slo := sel.Kind == SelectMinEnergySLO || sel.Kind == SelectMinEnergySLOAFR
				if slo && res.Best >= 0 && res.Runs[res.Best].RespP95 > sel.MaxP95 {
					t.Fatalf("chosen operating point violates the SLO: p95 %v > %v",
						res.Runs[res.Best].RespP95, sel.MaxP95)
				}
			default:
				if res.Best != 0 {
					t.Fatalf("single-run scenario Best = %d, want 0", res.Best)
				}
			}
			for k, m := range res.Runs {
				lines[i] = append(lines[i], goldenLine(t, sc.Name+"/"+res.Labels[k], m))
			}
			if sc.Grid == nil && sc.Spec.Control != nil {
				spec := sc.Spec
				cs := *spec.Control
				cs.Controller = "rate-respec"
				spec.Control = &cs
				m, err := Run(spec, 1)
				if err != nil {
					t.Fatal(err)
				}
				lines[i] = append(lines[i], goldenLine(t, sc.Name+"/rate-respec", m))
			}
		})
	}
}

// goldenLine renders one run for the scenario golden.
func goldenLine(t *testing.T, label string, m *Metrics) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%s energy=%.10g p95=%.10g spinups=%d completed=%d metrics=%x",
		label, m.Energy, m.RespP95, m.SpinUps, m.Completed, sum[:8])
}

// checkGolden diffs got against testdata/name, rewriting the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s (regenerate with -update):\n--- got\n%s--- want\n%s", path, got, want)
	}
}

func TestSLOSweepSelection(t *testing.T) {
	// Exercise the sweep machinery directly rather than through
	// Register — mutating the global registry would panic on duplicate
	// names when the test binary runs more than once per process.
	sweep := Scenario{
		Name: "sweep-test",
		Spec: Spec{
			Name:     "sweep-test",
			Workload: SyntheticWorkload(miniSynthetic(300, 2)),
			Alloc:    Packed(0.7),
			Spin:     SpinSpec{Kind: SpinBreakEven},
		},
	}
	sweep.Grid = &Sweep{
		Name:   sweep.Name,
		Base:   sweep.Spec,
		Axes:   []Axis{{Kind: AxisSpinThreshold, Values: []float64{10, 600}}},
		Select: Selector{Kind: SelectMinEnergySLO, MaxP95: 1e9},
	}
	res, err := runScenario(sweep, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("sweep ran %d points, want 2", len(res.Runs))
	}
	// With an unbounded SLO the sweep must pick the lowest-energy run.
	want := 0
	if res.Runs[1].Energy < res.Runs[0].Energy {
		want = 1
	}
	if res.Best != want {
		t.Fatalf("Best = %d, want %d (energies %v, %v)",
			res.Best, want, res.Runs[0].Energy, res.Runs[1].Energy)
	}
}
