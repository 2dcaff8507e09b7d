package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testOpts shrinks the experiments to ~10% scale: fast enough for CI,
// large enough that the paper's shape conclusions are assertable.
func testOpts() Options { return Options{Scale: 0.1, Seed: 3} }

func TestOptionsValidate(t *testing.T) {
	for _, o := range []Options{{Scale: 0}, {Scale: -1}, {Scale: 1.5}, {Scale: 0.5, Workers: -1}} {
		if o.Validate() == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTableHelpers(t *testing.T) {
	tab := &Table{Name: "t", Title: "title", XLabel: "x", Columns: []string{"a", "b"}}
	tab.AddRow(2, 20, 200)
	tab.AddRow(1, 10, 100)
	tab.SortByX()
	if x := tab.X(); x[0] != 1 || x[1] != 2 {
		t.Fatalf("SortByX failed: %v", x)
	}
	col, ok := tab.Column("b")
	if !ok || col[0] != 100 || col[1] != 200 {
		t.Fatalf("Column(b)=%v ok=%v", col, ok)
	}
	if _, ok := tab.Column("missing"); ok {
		t.Error("missing column found")
	}
	s := tab.String()
	if !strings.Contains(s, "title") || !strings.Contains(s, "a") {
		t.Errorf("String() missing pieces:\n%s", s)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "x,a,b\n") {
		t.Errorf("CSV header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "1,10,100") {
		t.Errorf("CSV body wrong:\n%s", csv)
	}
}

func TestTableAddRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad arity accepted")
		}
	}()
	tab := &Table{Columns: []string{"a", "b"}}
	tab.AddRow(1, 2)
}

// TestFig2Shape asserts the paper's Figure 2 conclusions: the
// power-saving ratio of Pack_Disks over random placement decreases
// with the arrival rate, exceeds 60% at low R, and is ordered by the
// load constraint (looser L saves more at high R).
func TestFig2Shape(t *testing.T) {
	f2, f3, err := Fig23(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, colName := range f2.Columns {
		col, _ := f2.Column(colName)
		// Broad monotone decrease: compare thirds of the R range.
		first := (col[0] + col[1] + col[2]) / 3
		last := (col[9] + col[10] + col[11]) / 3
		if first <= last {
			t.Errorf("fig2 %s: saving does not decrease with R (%.3f -> %.3f)", colName, first, last)
		}
		if col[0] < 0.5 {
			t.Errorf("fig2 %s: saving at R=1 only %.3f, paper reports >0.6 for low R", colName, col[0])
		}
	}
	// At high R, looser load constraints keep saving alive.
	l50, _ := f2.Column("L=50%")
	l80, _ := f2.Column("L=80%")
	if l50[11] > 0.15 {
		t.Errorf("fig2 L=50%% at R=12: saving %.3f should be near zero", l50[11])
	}
	if l80[11] < l50[11] {
		t.Errorf("fig2 at R=12: L=80%% (%.3f) should beat L=50%% (%.3f)", l80[11], l50[11])
	}

	// Figure 3: response-time ratios within the paper's reported
	// envelope (0.5–2.5 at full scale; allow slack for the small farm).
	for _, colName := range f3.Columns {
		col, _ := f3.Column(colName)
		for i, v := range col {
			if v < 0.2 || v > 10 {
				t.Errorf("fig3 %s row %d: ratio %.3f implausible", colName, i, v)
			}
		}
	}
	// Tighter L must not respond slower than looser L at the same R.
	r3l50, _ := f3.Column("L=50%")
	r3l80, _ := f3.Column("L=80%")
	worse := 0
	for i := range r3l50 {
		if r3l80[i] < r3l50[i] {
			worse++
		}
	}
	if worse > 2 {
		t.Errorf("fig3: L=80%% responded faster than L=50%% in %d/12 rows", worse)
	}
}

// TestFig4Shape asserts the Figure 4 trade-off: as L rises, power
// falls and response time grows.
func TestFig4Shape(t *testing.T) {
	f4, err := Fig4(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	power, _ := f4.Column("Power(W)")
	resp, _ := f4.Column("RespTime(s)")
	n := len(power)
	if power[0] <= power[n-1] {
		t.Errorf("fig4: power did not fall with L: %.1f -> %.1f", power[0], power[n-1])
	}
	if resp[n-1] <= resp[0] {
		t.Errorf("fig4: response did not grow with L: %.2f -> %.2f", resp[0], resp[n-1])
	}
	// Rough monotonicity: each curve may wiggle by one step but the
	// cumulative violations should be small.
	for i := 1; i < n; i++ {
		if power[i] > power[i-1]*1.05 {
			t.Errorf("fig4: power increased sharply at L=%v", f4.X()[i])
		}
		if resp[i] < resp[i-1]*0.8 {
			t.Errorf("fig4: response dropped sharply at L=%v", f4.X()[i])
		}
	}
	disks, _ := f4.Column("DisksUsed")
	if disks[0] <= disks[n-1] {
		t.Errorf("fig4: disks used should shrink with L: %v -> %v", disks[0], disks[n-1])
	}
}

// TestFig56Shape asserts the Figure 5/6 conclusions on the NERSC
// workload: Pack_Disk's saving stays high across thresholds while
// RND's collapses; response times fall as the threshold grows; the
// LRU hit ratio is small (paper: 5.6%).
func TestFig56Shape(t *testing.T) {
	f5, f6, err := Fig56(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	rnd, _ := f5.Column("RND")
	pack, _ := f5.Column("Pack_Disk")
	pack4, _ := f5.Column("Pack_Disk4")
	last := len(rnd) - 1
	if rnd[0] <= rnd[last] {
		t.Errorf("fig5: RND saving should fall with threshold: %.3f -> %.3f", rnd[0], rnd[last])
	}
	if rnd[last] > 0.15 {
		t.Errorf("fig5: RND saving at 2h = %.3f, should be small", rnd[last])
	}
	for i := range pack {
		if pack[i] <= rnd[i] {
			t.Errorf("fig5 row %d: Pack_Disk (%.3f) did not beat RND (%.3f)", i, pack[i], rnd[i])
		}
	}
	if pack[last] < 0.35 {
		t.Errorf("fig5: Pack_Disk saving at 2h = %.3f, paper keeps ≈0.85 at full scale", pack[last])
	}
	// Pack_Disk concentrates harder than Pack_Disk4 (the group spreads
	// load), so it should save at least as much nearly everywhere.
	lower := 0
	for i := range pack {
		if pack[i] < pack4[i] {
			lower++
		}
	}
	if lower > 2 {
		t.Errorf("fig5: Pack_Disk below Pack_Disk4 in %d/%d rows", lower, len(pack))
	}

	rndResp, _ := f6.Column("RND")
	pack4Resp, _ := f6.Column("Pack_Disk4")
	if rndResp[0] <= rndResp[last] {
		t.Errorf("fig6: RND response should fall with threshold: %.2f -> %.2f", rndResp[0], rndResp[last])
	}
	// Paper: Pack_Disk4 responds similar-or-better than RND.
	worse := 0
	for i := range pack4Resp {
		if pack4Resp[i] > rndResp[i]*1.1 {
			worse++
		}
	}
	if worse > 2 {
		t.Errorf("fig6: Pack_Disk4 notably slower than RND in %d/%d rows", worse, len(pack4Resp))
	}
	// The cache-hit note reflects the paper's 5.6% measurement.
	foundNote := false
	for _, n := range f5.Notes {
		if strings.Contains(n, "hit ratio") {
			foundNote = true
		}
	}
	if !foundNote {
		t.Error("fig5: missing LRU hit-ratio note")
	}
}

// TestVSweepShape asserts the Section 5.1 ablation: moderate v improves
// response time over v=1 (batches spread over spindles), while large v
// dilutes the power saving.
func TestVSweepShape(t *testing.T) {
	tab, err := VSweep(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	saving, _ := tab.Column("PowerSaving")
	resp, _ := tab.Column("RespTime(s)")
	if resp[3] >= resp[0] {
		t.Errorf("vsweep: v=4 response (%.2f) should beat v=1 (%.2f)", resp[3], resp[0])
	}
	if saving[7] >= saving[0] {
		t.Errorf("vsweep: v=8 saving (%.3f) should trail v=1 (%.3f)", saving[7], saving[0])
	}
	for i, s := range saving {
		if s < -0.05 || s > 1 {
			t.Errorf("vsweep row %d: saving %.3f outside [0,1]", i, s)
		}
	}
}

// TestPackQualityShape asserts Theorem 1 in the realized workload:
// every allocator lands between the lower bound and the theorem's
// ceiling, and Pack_Disks is close to the bound.
func TestPackQualityShape(t *testing.T) {
	tab, err := PackQuality(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	lb, _ := tab.Column("LowerBound")
	pd, _ := tab.Column("Pack_Disks")
	chp, _ := tab.Column("ChangHwangPark")
	bound, _ := tab.Column("Thm1Bound")
	for i := range lb {
		if pd[i] < lb[i] {
			t.Errorf("packquality row %d: Pack_Disks %v below lower bound %v", i, pd[i], lb[i])
		}
		if pd[i] > bound[i]+1e-9 {
			t.Errorf("packquality row %d: Pack_Disks %v exceeds Theorem 1 bound %v", i, pd[i], bound[i])
		}
		if chp[i] > bound[i]+1e-9 {
			t.Errorf("packquality row %d: CHP %v exceeds Theorem 1 bound %v", i, chp[i], bound[i])
		}
	}
}

func TestTable1Values(t *testing.T) {
	tab, err := Table1(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	paper, _ := tab.Column("paper")
	measured, _ := tab.Column("measured")
	for i := range paper {
		rel := (measured[i] - paper[i]) / paper[i]
		if rel < -0.07 || rel > 0.07 {
			t.Errorf("table1 row %v: measured %v vs paper %v (%.1f%% off)",
				tab.X()[i], measured[i], paper[i], rel*100)
		}
	}
}

func TestTable2Values(t *testing.T) {
	tab, err := Table2(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	paper, _ := tab.Column("paper")
	model, _ := tab.Column("model")
	for i := range paper {
		rel := (model[i] - paper[i]) / paper[i]
		if rel < -0.01 || rel > 0.01 {
			t.Errorf("table2 row %v: model %v vs paper %v", tab.X()[i], model[i], paper[i])
		}
	}
}

func TestScalingExperiment(t *testing.T) {
	tab, err := Scaling(Options{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pd, _ := tab.Column("PackDisks(ms)")
	for i, v := range pd {
		if v < 0 {
			t.Errorf("scaling row %d: negative time %v", i, v)
		}
	}
	same, _ := tab.Column("SameDiskCount")
	agree := 0
	for _, v := range same {
		if v == 1 {
			agree++
		}
	}
	if agree == 0 {
		t.Error("scaling: PackDisks and CHP never agreed on disk count")
	}
}

// TestRegistryRunsEverythingTiny runs every experiment at 5% scale and
// diffs the tables, rendered as cmd/experiments prints them, against
// testdata/all.golden. The scaling table is left out: its columns are
// wall-clock timings. Regenerate with -update.
func TestRegistryRunsEverythingTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	tables, err := Run("all", Options{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) < len(Names()) {
		t.Fatalf("all: got %d tables want >= %d", len(tables), len(Names()))
	}
	var out strings.Builder
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Errorf("table %s is empty", tab.Name)
		}
		if tab.Name != "scaling" {
			fmt.Fprintln(&out, tab.String())
		}
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("experiments golden compared only on amd64 (GOARCH=%s: Go may fuse multiply-adds)", runtime.GOARCH)
	}
	path := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("experiment tables drifted from %s (regenerate with -update):\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestPoliciesShape asserts the DPM ablation's qualitative story:
// always-on saves nothing, immediate saves the most but pays the worst
// response times and the most spin-ups, adaptive reduces spin cycling
// relative to the fixed break-even threshold.
func TestPoliciesShape(t *testing.T) {
	tab, err := Policies(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	saving, _ := tab.Column("Pack:saving")
	resp, _ := tab.Column("Pack:resp(s)")
	spinups, _ := tab.Column("Pack:spinups")
	const (
		alwaysOn = iota
		immediate
		breakEven
		adaptive
		randomized
	)
	if saving[alwaysOn] > 1e-9 || saving[alwaysOn] < -1e-9 {
		t.Errorf("always-on saving %v want 0", saving[alwaysOn])
	}
	if spinups[alwaysOn] != 0 {
		t.Errorf("always-on spun up %v times", spinups[alwaysOn])
	}
	if saving[immediate] < saving[breakEven] {
		t.Errorf("immediate saving %.3f below break-even %.3f", saving[immediate], saving[breakEven])
	}
	if resp[immediate] <= resp[breakEven] {
		t.Errorf("immediate response %.2f should exceed break-even %.2f", resp[immediate], resp[breakEven])
	}
	if spinups[adaptive] >= spinups[breakEven] {
		t.Errorf("adaptive spin-ups %v should undercut break-even %v", spinups[adaptive], spinups[breakEven])
	}
	if saving[adaptive] < 0.5*saving[breakEven] {
		t.Errorf("adaptive saving %.3f collapsed relative to break-even %.3f", saving[adaptive], saving[breakEven])
	}
	if spinups[randomized] <= 0 {
		t.Error("randomized policy never spun down")
	}
}

// TestAnalysisAgreement asserts the analytic M/G/1 model tracks the
// simulator: power within 5%, response within 25% (mean-value model),
// and max utilization equal to the load constraint the packing was
// given.
func TestAnalysisAgreement(t *testing.T) {
	tab, err := Analysis(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	predR, _ := tab.Column("PredResp(s)")
	simR, _ := tab.Column("SimResp(s)")
	predP, _ := tab.Column("PredPower(W)")
	simP, _ := tab.Column("SimPower(W)")
	maxRho, _ := tab.Column("MaxRho")
	for i, L := range tab.X() {
		if rel := abs(predP[i]-simP[i]) / simP[i]; rel > 0.05 {
			t.Errorf("L=%v: power prediction off by %.1f%%", L, rel*100)
		}
		if rel := abs(predR[i]-simR[i]) / simR[i]; rel > 0.25 {
			t.Errorf("L=%v: response prediction off by %.1f%%", L, rel*100)
		}
		if maxRho[i] > L+0.01 {
			t.Errorf("L=%v: packing exceeded load constraint (rho=%v)", L, maxRho[i])
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestReorgShape asserts the semi-dynamic story: static never
// migrates; incremental (paper §6) migrates far less than full
// repacking while keeping the saving. Run at full scale — the
// migration comparison needs a realistically sized farm (the sweep is
// cheap because packing dominates, not simulation).
func TestReorgShape(t *testing.T) {
	tab, err := Reorg(Options{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	migrated, _ := tab.Column("MigratedGB")
	saving, _ := tab.Column("Saving")
	const (
		static = iota
		full
		incremental
	)
	if migrated[static] != 0 {
		t.Errorf("static migrated %v GB", migrated[static])
	}
	if migrated[full] <= 0 {
		t.Errorf("full repack migrated nothing (farm fallback?)")
	}
	if migrated[incremental] >= migrated[full] {
		t.Errorf("incremental migrated %v GB, full %v GB — should be far less",
			migrated[incremental], migrated[full])
	}
	for i, s := range saving {
		if s < 0.2 || s > 1 {
			t.Errorf("variant %d saving %v implausible", i, s)
		}
	}
	if saving[incremental] < saving[full]-0.05 {
		t.Errorf("incremental saving %v collapsed vs full %v", saving[incremental], saving[full])
	}
}

func TestRunUnknownName(t *testing.T) {
	if _, err := Run("fig99", DefaultOptions()); err == nil {
		t.Fatal("unknown name accepted")
	}
}
