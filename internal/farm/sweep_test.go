package farm

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// fixtureSweep is the threshold×farm-size grid used by the determinism
// and benchmark tests: small enough to run in milliseconds, large
// enough that a worker pool reorders completion.
func fixtureSweep() Sweep {
	return Sweep{
		Name: "fixture",
		Base: Spec{
			Name:     "fixture",
			Workload: SyntheticWorkload(miniSynthetic(300, 2)),
			Alloc:    Packed(0.7),
		},
		Axes: []Axis{
			{Kind: AxisSpinThreshold, Values: []float64{30, 120, 600}},
			{Kind: AxisFarmSize, Values: []float64{8, 12}},
		},
	}
}

func TestSweepPointsCompile(t *testing.T) {
	s := fixtureSweep()
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 || s.NumPoints() != 6 {
		t.Fatalf("points=%d NumPoints=%d, want 6", len(pts), s.NumPoints())
	}
	// Row-major: the last axis varies fastest.
	wantLabels := []string{
		"threshold=30s farm=8", "threshold=30s farm=12",
		"threshold=120s farm=8", "threshold=120s farm=12",
		"threshold=600s farm=8", "threshold=600s farm=12",
	}
	for i, want := range wantLabels {
		if pts[i].Label != want {
			t.Errorf("point %d label %q, want %q", i, pts[i].Label, want)
		}
	}
	p := pts[3] // threshold=120s farm=12
	if p.Spec.Spin != FixedSpin(120) {
		t.Errorf("point 3 spin %+v, want FixedSpin(120)", p.Spec.Spin)
	}
	if p.Spec.FarmSize != 12 {
		t.Errorf("point 3 farm size %d, want 12", p.Spec.FarmSize)
	}
	if got, want := fmt.Sprint(p.Coord), fmt.Sprint([]int{1, 1}); got != want {
		t.Errorf("point 3 coord %s, want %s", got, want)
	}
	// The base spec must not be mutated by compilation.
	if s.Base.Spin != (SpinSpec{}) || s.Base.FarmSize != 0 {
		t.Errorf("base spec mutated: %+v", s.Base)
	}
}

func TestSweepSeedOffsets(t *testing.T) {
	s := Sweep{
		Base: testSpec(),
		Axes: []Axis{
			{Name: "p", Kind: AxisCustom, Labels: []string{"a", "b"}, SeedStep: 10,
				Apply: func(*Spec, int, []int) error { return nil }},
			{Kind: AxisSeed, Values: []float64{0, 1, 2}},
		},
	}
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 1, 2, 10, 11, 12}
	for i, p := range pts {
		if p.SeedOffset != want[i] {
			t.Errorf("point %d seed offset %d, want %d", i, p.SeedOffset, want[i])
		}
	}
}

func TestSweepDeterminismAcrossWorkers(t *testing.T) {
	sweep := fixtureSweep()
	runAt := func(workers int) []string {
		t.Helper()
		res, err := RunSweep(sweep, 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(res.Points))
		for i := range res.Points {
			out[i] = fingerprint(res.Points[i].Metrics)
		}
		return out
	}
	// A pool larger than GOMAXPROCS still interleaves goroutines, so
	// this exercises concurrent execution even on a single-core machine.
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	serial := runAt(1)
	parallel := runAt(workers)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("point %d differs between Workers=1 and Workers=GOMAXPROCS:\nserial:   %s\nparallel: %s",
				i, serial[i], parallel[i])
		}
	}
}

func TestSweepMatchesDirectRuns(t *testing.T) {
	// The engine must produce exactly what a hand-rolled loop over
	// Run(spec, seed) produces.
	sweep := fixtureSweep()
	res, err := RunSweep(sweep, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Points {
		direct, err := Run(res.Points[i].Spec, 3+res.Points[i].SeedOffset)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(direct) != fingerprint(res.Points[i].Metrics) {
			t.Fatalf("point %s differs from a direct Run", res.Points[i].Label)
		}
	}
}

func TestSweepPlanOnly(t *testing.T) {
	res, err := RunSweep(Sweep{
		Name: "plan",
		Base: Spec{Workload: testSpec().Workload, Alloc: AllocSpec{Kind: AllocPack, V: 4}},
		Axes: []Axis{
			{Kind: AxisCapL, Values: []float64{0.5, 0.8}},
			{Kind: AxisAllocKind, Values: []float64{float64(AllocPack), float64(AllocFirstFit)}},
		},
		PlanOnly: true,
	}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != -1 {
		t.Errorf("plan-only Best = %d, want -1", res.Best)
	}
	for i := range res.Points {
		p := &res.Points[i]
		if p.Metrics != nil {
			t.Fatalf("plan-only point %s has metrics", p.Label)
		}
		if p.Alloc == nil || p.Alloc.DisksUsed < 1 || p.Alloc.LowerBound < 1 {
			t.Fatalf("plan-only point %s allocation implausible: %+v", p.Label, p.Alloc)
		}
		if p.Alloc.Bound < float64(p.Alloc.LowerBound) {
			t.Fatalf("point %s Theorem 1 bound %v below lower bound %d", p.Label, p.Alloc.Bound, p.Alloc.LowerBound)
		}
	}
	// A tighter load constraint cannot use fewer disks.
	if res.At(0, 0).Alloc.DisksUsed < res.At(1, 0).Alloc.DisksUsed {
		t.Errorf("L=0.5 used %d disks, L=0.8 used %d — tighter L should need more",
			res.At(0, 0).Alloc.DisksUsed, res.At(1, 0).Alloc.DisksUsed)
	}
}

func TestArrivalRateAxis(t *testing.T) {
	res, err := RunSweep(Sweep{
		Base: testSpec(),
		Axes: []Axis{{Kind: AxisArrivalRate, Values: []float64{1, 4}}},
	}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := res.Points[0].Metrics, res.Points[1].Metrics
	if hi.Completed <= lo.Completed {
		t.Errorf("rate=4 completed %d requests, rate=1 %d — intensity axis had no effect",
			hi.Completed, lo.Completed)
	}
}

// fixtureMetrics builds a grid with prescribed (energy, response)
// values for selector unit tests: energy falls as response grows, with
// a sharp knee at index 1.
func fixturePoints(energies, p95s, means []float64) []Point {
	pts := make([]Point, len(energies))
	for i := range pts {
		pts[i] = Point{
			Label:   fmt.Sprintf("p%d", i),
			Metrics: &Metrics{Energy: energies[i], RespP95: p95s[i], RespMean: means[i]},
		}
	}
	return pts
}

func TestSelectorMinEnergySLO(t *testing.T) {
	pts := fixturePoints(
		[]float64{100, 60, 50, 40},
		[]float64{5, 10, 20, 40},
		[]float64{2, 5, 12, 30},
	)
	best, front := Selector{Kind: SelectMinEnergySLO, MaxP95: 25}.pick(pts)
	if best != 2 || front != nil {
		t.Errorf("SLO pick = (%d, %v), want (2, nil): cheapest point with p95 <= 25", best, front)
	}
	best, _ = Selector{Kind: SelectMinEnergySLO, MaxP95: 1}.pick(pts)
	if best != -1 {
		t.Errorf("infeasible SLO picked %d, want -1", best)
	}
	best, _ = Selector{Kind: SelectMinEnergySLO, MaxP95: 1e9}.pick(pts)
	if best != 3 {
		t.Errorf("unbounded SLO picked %d, want 3 (global min energy)", best)
	}
}

func TestSelectorKnee(t *testing.T) {
	// Energy collapses between p0 and p1, then flattens: the knee is p1.
	pts := fixturePoints(
		[]float64{100, 30, 28, 27},
		[]float64{1, 2, 3, 4},
		[]float64{1, 2, 10, 20},
	)
	best, _ := Selector{Kind: SelectKnee}.pick(pts)
	if best != 1 {
		t.Errorf("knee pick = %d, want 1", best)
	}
	// Degenerate two-point grid falls back to min energy.
	best, _ = Selector{Kind: SelectKnee}.pick(pts[:2])
	if best != 1 {
		t.Errorf("two-point knee pick = %d, want 1 (min energy)", best)
	}
	// Concave-up curve (the interior point is ABOVE the chord: 1 s of
	// latency bought only 5 J): no knee exists, fall back to min
	// energy — the anti-knee must not win on absolute distance.
	up := fixturePoints(
		[]float64{100, 95, 0},
		[]float64{1, 2, 3},
		[]float64{1, 2, 3},
	)
	best, _ = Selector{Kind: SelectKnee}.pick(up)
	if best != 2 {
		t.Errorf("concave-up knee pick = %d, want 2 (min energy, not the above-chord point)", best)
	}
}

func TestSelectorPareto(t *testing.T) {
	pts := fixturePoints(
		[]float64{100, 60, 80, 40},
		[]float64{0, 0, 0, 0},
		[]float64{2, 5, 6, 30},
	)
	best, front := Selector{Kind: SelectPareto}.pick(pts)
	if best != -1 {
		t.Errorf("pareto Best = %d, want -1", best)
	}
	// p2 (80 J, 6 s) is dominated by p1 (60 J, 5 s); the rest are not.
	if got, want := fmt.Sprint(front), fmt.Sprint([]int{0, 1, 3}); got != want {
		t.Errorf("pareto front %s, want %s", got, want)
	}
}

func TestSweepValidation(t *testing.T) {
	bad := []Sweep{
		{Base: testSpec(), Axes: []Axis{{Kind: AxisSpinThreshold}}},                                                   // no values
		{Base: testSpec(), Axes: []Axis{{Kind: AxisCustom, Labels: []string{"a"}}}},                                   // no Apply
		{Base: testSpec(), Axes: []Axis{{Kind: AxisKind(99), Values: []float64{1}}}},                                  // unknown kind
		{Base: testSpec(), Select: Selector{Kind: SelectMinEnergySLO}},                                                // SLO without budget
		{Base: testSpec(), Select: Selector{Kind: SelectKnee, MaxP95: 5}},                                             // stray budget
		{Base: testSpec(), Axes: []Axis{{Kind: AxisSpinThreshold, Values: []float64{1}, Labels: []string{"a", "b"}}}}, // label arity
		{Base: testSpec(), Axes: []Axis{ // duplicate declarative kind: the later axis would overwrite the earlier
			{Kind: AxisSpinThreshold, Values: []float64{30, 60}},
			{Kind: AxisSpinThreshold, Values: []float64{300}},
		}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("sweep %d accepted", i)
		}
	}
	// A point that fails spec validation aborts the run with the point's
	// label in the error.
	_, err := RunSweep(Sweep{
		Name: "badpoint",
		Base: testSpec(),
		Axes: []Axis{{Kind: AxisCapL, Values: []float64{0.5, 2.0}}},
	}, 1, 0)
	if err == nil || !strings.Contains(err.Error(), "L=2") {
		t.Errorf("invalid point error = %v, want mention of L=2", err)
	}
	// A load-constraint axis over an explicit allocation would compile a
	// grid of identical points; it must be rejected, not run.
	explicit := testSpec()
	explicit.Alloc = Explicit([]int{0, 1})
	_, err = RunSweep(Sweep{
		Name: "noop-axis",
		Base: explicit,
		Axes: []Axis{{Kind: AxisCapL, Values: []float64{0.5, 0.7}}},
	}, 1, 0)
	if err == nil || !strings.Contains(err.Error(), "explicit allocation") {
		t.Errorf("CapL-over-explicit error = %v, want rejection", err)
	}
}

func TestParseAxis(t *testing.T) {
	ax, err := ParseAxis("threshold=30,60, 120")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Kind != AxisSpinThreshold || len(ax.Values) != 3 || ax.Values[2] != 120 {
		t.Fatalf("ParseAxis threshold = %+v", ax)
	}
	ax, err = ParseAxis("alloc=pack,ffd,bestfit")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Kind != AxisAllocKind || AllocKind(int(ax.Values[1])) != AllocFirstFitDecreasing {
		t.Fatalf("ParseAxis alloc = %+v", ax)
	}
	if _, err := ParseAxis("cache=1e9,16e9"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "threshold", "bogus=1,2", "threshold=x", "alloc=nope", "threshold="} {
		if _, err := ParseAxis(bad); err == nil {
			t.Errorf("ParseAxis(%q) accepted", bad)
		}
	}
}

func TestParseSelector(t *testing.T) {
	sel, err := ParseSelector("slo=25")
	if err != nil || sel.Kind != SelectMinEnergySLO || sel.MaxP95 != 25 {
		t.Fatalf("ParseSelector(slo=25) = %+v, %v", sel, err)
	}
	for s, want := range map[string]SelectorKind{"none": SelectNone, "knee": SelectKnee, "pareto": SelectPareto} {
		sel, err := ParseSelector(s)
		if err != nil || sel.Kind != want {
			t.Errorf("ParseSelector(%q) = %+v, %v", s, sel, err)
		}
	}
	for _, bad := range []string{"", "slo", "slo=", "slo=-1", "slo=x", "bogus"} {
		if _, err := ParseSelector(bad); err == nil {
			t.Errorf("ParseSelector(%q) accepted", bad)
		}
	}
}

// TestSLOSweepGridEquivalence pins a grid scenario's threshold sweep to
// direct runs: it must return exactly what direct runs at each fixed
// threshold return, with the threshold labels, and choose the cheapest
// feasible point.
func TestSLOSweepGridEquivalence(t *testing.T) {
	thresholds := []float64{10, 120, 900}
	sc := Scenario{
		Name: "grid-equiv",
		Spec: testSpec(),
	}
	sc.Grid = &Sweep{
		Name:   sc.Name,
		Base:   sc.Spec,
		Axes:   []Axis{{Kind: AxisSpinThreshold, Values: thresholds}},
		Select: Selector{Kind: SelectMinEnergySLO, MaxP95: 1e9},
	}
	res, err := runScenario(sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("sweep ran %d points, want 3", len(res.Runs))
	}
	for i, th := range thresholds {
		if want := fmt.Sprintf("threshold=%gs", th); res.Labels[i] != want {
			t.Errorf("label %d = %q, want %q", i, res.Labels[i], want)
		}
		spec := sc.Spec
		spec.Spin = FixedSpin(th)
		direct, err := Run(spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(direct) != fingerprint(res.Runs[i]) {
			t.Errorf("threshold %gs differs from a direct run", th)
		}
	}
	best := 0
	for i := range res.Runs {
		if res.Runs[i].Energy < res.Runs[best].Energy {
			best = i
		}
	}
	if res.Best != best {
		t.Errorf("Best = %d, want %d (min energy under an unbounded SLO)", res.Best, best)
	}
}

func TestSweepAtPanics(t *testing.T) {
	res, err := RunSweep(fixtureSweep(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m := res.At(2, 1).Metrics; m == nil || m.Completed == 0 {
		t.Fatal("At(2,1) returned an empty point")
	}
	for _, coord := range [][]int{{0}, {3, 0}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%v) did not panic", coord)
				}
			}()
			res.At(coord...)
		}()
	}
}
