package farm

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diskpack/internal/disk"
	"diskpack/internal/trace"
)

// census reports how many outputs the memo holds and how many holds
// running points have on them.
func (m *stageMemo[V]) census() (outputs, holds int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		holds += e.holds
	}
	return len(m.entries), holds
}

// Stage keys follow from each point's inputs, whatever axis produced
// them: an axis shares exactly the stages whose inputs it leaves alone.
func TestStageKeysByAxis(t *testing.T) {
	tr, err := BuildTrace(SyntheticWorkload(miniSynthetic(50, 1)), 1)
	if err != nil {
		t.Fatal(err)
	}
	striped := make([]int, len(tr.Files))
	for i := range striped {
		striped[i] = i % 2
	}
	controlled := testSpec()
	controlled.Control = &ControlSpec{Controller: "tail-budget", Epoch: 900}
	custom := func(apply func(*Spec, int)) Axis {
		return Axis{Name: "c", Kind: AxisCustom, Labels: []string{"a", "b"},
			Apply: func(s *Spec, i int, _ []int) error { apply(s, i); return nil }}
	}
	cases := []struct {
		name                   string
		base                   Spec
		axis                   Axis
		shareTrace, shareAlloc bool
	}{
		{"threshold", testSpec(), Axis{Kind: AxisSpinThreshold, Values: []float64{30, 600}}, true, true},
		{"cache", testSpec(), Axis{Kind: AxisCacheBytes, Values: []float64{0, 1e9}}, true, true},
		{"farm", testSpec(), Axis{Kind: AxisFarmSize, Values: []float64{8, 12}}, true, true},
		{"control static", controlled, Axis{Kind: AxisController, Names: []string{"static", "none"}}, true, true},
		{"control", controlled, Axis{Kind: AxisController, Names: []string{"tail-budget", "tail-budget"}}, false, false},
		{"L", testSpec(), Axis{Kind: AxisCapL, Values: []float64{0.5, 0.7}}, true, false},
		{"v", testSpec(), Axis{Kind: AxisPackV, Values: []float64{1, 2}}, true, false},
		{"alloc", testSpec(), Axis{Kind: AxisAllocKind, Values: []float64{float64(AllocPack), float64(AllocFirstFit)}}, true, false},
		{"assign", Spec{Workload: TraceWorkload(tr), FarmSize: 2},
			Axis{Kind: AxisExplicitAlloc, Assigns: [][]int{make([]int, len(tr.Files)), striped}}, true, false},
		{"seed", testSpec(), Axis{Kind: AxisSeed, Values: []float64{0, 1}}, false, false},
		{"seed step", testSpec(), Axis{Kind: AxisSpinThreshold, Values: []float64{30, 600}, SeedStep: 1}, false, false},
		{"rate", testSpec(), Axis{Kind: AxisArrivalRate, Values: []float64{1, 2}}, false, false},
		{"custom workload", testSpec(), custom(func(s *Spec, i int) {
			s.Workload = SyntheticWorkload(miniSynthetic(100+i, 2))
		}), false, false},
		{"custom cache", testSpec(), custom(func(s *Spec, i int) { s.CacheBytes = int64(i) * disk.GB }), true, true},
		{"custom groups", testSpec(), custom(func(s *Spec, i int) {
			p := disk.DefaultParams()
			p.CapacityBytes /= int64(i + 1)
			s.Groups = []DiskGroup{{Count: 8, Params: p}}
		}), true, false},
		// NaN never equals itself, so even identical NaN inputs do not share.
		{"custom NaN", testSpec(), custom(func(s *Spec, _ int) { s.Alloc.CapL = math.NaN() }), true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Compile(Sweep{Base: tc.base, Axes: []Axis{tc.axis}}, 7)
			if err != nil {
				t.Fatal(err)
			}
			k0, k1 := c.keys[0], c.keys[1]
			if got := k0.trace == k1.trace; got != tc.shareTrace {
				t.Errorf("trace shared = %v, want %v (keys %+v, %+v)", got, tc.shareTrace, k0, k1)
			}
			if got := k0.alloc == k1.alloc; got != tc.shareAlloc {
				t.Errorf("allocation shared = %v, want %v (keys %+v, %+v)", got, tc.shareAlloc, k0, k1)
			}
		})
	}
}

// allocInputs mirrors AllocSpec field by field: a field added to
// AllocSpec must join the key, or points differing only in it would
// share an allocation.
func TestAllocInputsMirrorAllocSpec(t *testing.T) {
	typ := reflect.TypeOf(AllocSpec{})
	var fields []string
	for i := 0; i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Name)
	}
	if got, want := strings.Join(fields, " "), "Kind CapL V Disks Assign"; got != want {
		t.Errorf("AllocSpec fields are %q; allocInputs keys %q — add the new field to allocInputs", got, want)
	}
}

// stageGrid is a threshold × L × seed grid with the seed varying
// fastest, so equal stage keys are never adjacent in index order.
func stageGrid(planOnly bool) Sweep {
	return Sweep{
		Name: "stages",
		Base: testSpec(),
		Axes: []Axis{
			{Kind: AxisSpinThreshold, Values: []float64{30, 600}},
			{Kind: AxisCapL, Values: []float64{0.5, 0.8}},
			{Kind: AxisSeed, Values: []float64{0, 1, 2}},
		},
		PlanOnly: planOnly,
	}
}

// Sharing stages changes no result: every point of a sweep equals an
// independent Run (or Plan) of its spec, byte for byte, at any worker
// count.
func TestStageSharingMatchesIndependentRuns(t *testing.T) {
	const seed = 5
	for _, planOnly := range []bool{false, true} {
		sweep := stageGrid(planOnly)
		pts, err := sweep.Points()
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]byte, len(pts))
		for i, p := range pts {
			var v any
			if planOnly {
				v, err = Plan(p.Spec, seed+p.SeedOffset)
			} else {
				v, err = Run(p.Spec, seed+p.SeedOffset)
			}
			if err != nil {
				t.Fatal(err)
			}
			want[i] = mustJSON(t, v)
		}
		for _, workers := range []int{1, 2, 4} {
			res, err := RunSweep(sweep, seed, workers)
			if err != nil {
				t.Fatal(err)
			}
			assigns := make(map[*int]string)
			for i := range res.Points {
				p := &res.Points[i]
				var got []byte
				if planOnly {
					got = mustJSON(t, p.Alloc)
					// Each plan-only point owns its allocation.
					if prev, ok := assigns[&p.Alloc.Assign[0]]; ok {
						t.Errorf("plan-only points %s and %s share one assignment", prev, p.Label)
					}
					assigns[&p.Alloc.Assign[0]] = p.Label
				} else {
					got = mustJSON(t, p.Metrics)
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("plan-only=%v workers=%d point %s differs from an independent run", planOnly, workers, p.Label)
				}
			}
		}
	}
}

// A compiled sweep keeps at most one trace and one allocation beyond
// what its running points hold, and the grouped run order shares both
// stages even when the seed axis varies fastest.
func TestStageMemoRetention(t *testing.T) {
	sweep := Sweep{
		Name: "retention",
		Base: testSpec(),
		Axes: []Axis{
			{Kind: AxisSpinThreshold, Values: []float64{30, 120, 600}},
			{Kind: AxisSeed, Values: []float64{0, 1, 2, 3}},
		},
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c, err := Compile(sweep, 3)
			if err != nil {
				t.Fatal(err)
			}
			var violations atomic.Int32
			check := func() {
				traces, traceHolds := c.traces.census()
				allocs, allocHolds := c.allocs.census()
				if traces > traceHolds+1 || allocs > allocHolds+1 || traceHolds > workers {
					violations.Add(1)
				}
			}
			// Run the grid as RunSweep does, checking after every point
			// and, from a monitor, while points are in flight.
			done := make(chan struct{})
			var monitor sync.WaitGroup
			monitor.Add(1)
			go func() {
				defer monitor.Done()
				for {
					select {
					case <-done:
						return
					default:
						check()
						time.Sleep(50 * time.Microsecond)
					}
				}
			}()
			order := runOrder(c.keys)
			err = parallelFor(context.Background(), len(order), workers, func(k int) error {
				_, err := c.RunPoint(order[k])
				check()
				return err
			})
			close(done)
			monitor.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if n := violations.Load(); n > 0 {
				t.Errorf("%d observations held more than one idle stage output or more holds than workers", n)
			}
			if traces, holds := c.traces.census(); traces != 1 || holds != 0 {
				t.Errorf("after the sweep: %d traces, %d holds; want the last one idle", traces, holds)
			}
		})
	}

	// At one worker the grouped order builds each seed's trace once.
	c, err := Compile(sweep, 3)
	if err != nil {
		t.Fatal(err)
	}
	built := make(map[*trace.Trace]bool)
	for _, i := range runOrder(c.keys) {
		if _, err := c.RunPoint(i); err != nil {
			t.Fatal(err)
		}
		built[c.traces.idle.val] = true
	}
	if len(built) != 4 {
		t.Errorf("built %d distinct traces for 4 seeds", len(built))
	}
}

// Concurrent askers of one key share one build; a key whose output was
// evicted is built again.
func TestStageMemoBuildsOncePerKey(t *testing.T) {
	var m stageMemo[int]
	var builds atomic.Int32
	build := func() (int, error) { builds.Add(1); return 42, nil }
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := m.acquire(0, build); v != 42 || err != nil {
				t.Errorf("acquire = %v, %v", v, err)
			}
			m.release(0)
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	m.acquire(1, build)
	m.release(1) // evicts key 0
	if outputs, holds := m.census(); outputs != 1 || holds != 0 {
		t.Fatalf("memo holds %d outputs (%d holds), want 1 idle", outputs, holds)
	}
	m.acquire(0, build)
	m.release(0)
	if n := builds.Load(); n != 3 {
		t.Errorf("%d builds, want 3 (key 0 rebuilt after eviction)", n)
	}
	// A nil memo builds every time.
	var none *stageMemo[int]
	none.acquire(0, build)
	none.release(0)
	if n := builds.Load(); n != 4 {
		t.Errorf("nil memo: %d builds, want 4", n)
	}
}
