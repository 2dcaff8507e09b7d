package diskpack

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"testing"
	"time"
)

// TestQuickstartFlow exercises the documented package-level workflow
// end to end through the public API only.
func TestQuickstartFlow(t *testing.T) {
	wl := Table1Workload(4, 1)
	wl.NumFiles = 1500
	wl.MaxSize = wl.MaxSize / 25 // keep per-file loads feasible at this n
	tr, err := wl.Build()
	if err != nil {
		t.Fatal(err)
	}
	items, err := ItemsFromTrace(tr, DefaultDiskParams(), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := Pack(items)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.NumDisks < LowerBoundDisks(items) {
		t.Fatalf("packed %d disks below lower bound %d", alloc.NumDisks, LowerBoundDisks(items))
	}
	farm := alloc.NumDisks + 2
	res, err := Simulate(tr, alloc.DiskOf, SimConfig{
		NumDisks:      farm,
		IdleThreshold: BreakEvenThreshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgPower <= 0 || res.Completed == 0 {
		t.Fatalf("implausible results: %+v", res)
	}
	if res.PowerSavingRatio <= 0 {
		t.Fatalf("no power saving vs no-policy baseline: %v", res.PowerSavingRatio)
	}
}

func TestPackGroupedPublicAPI(t *testing.T) {
	items := []Item{
		{ID: 0, Size: 0.1, Load: 0.3},
		{ID: 1, Size: 0.1, Load: 0.3},
		{ID: 2, Size: 0.1, Load: 0.3},
		{ID: 3, Size: 0.1, Load: 0.3},
	}
	a, err := PackGrouped(items, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.DiskOf) != 4 {
		t.Fatalf("assignment: %+v", a)
	}
	if got := Rho(items); got != 0.3 {
		t.Fatalf("Rho=%v want 0.3", got)
	}
}

func TestDefaultDiskParamsBreakEven(t *testing.T) {
	p := DefaultDiskParams()
	if be := p.BreakEvenThreshold(); math.Abs(be-53.3) > 0.05 {
		t.Fatalf("break-even %v, paper says 53.3 s", be)
	}
}

func TestNERSCTraceConfigMatchesPaperCounts(t *testing.T) {
	c := NERSCTrace(1)
	if c.NumFiles != 88631 || c.NumRequests != 115832 {
		t.Fatalf("NERSC config %d files / %d requests", c.NumFiles, c.NumRequests)
	}
}

func TestRunExperimentRegistry(t *testing.T) {
	names := ExperimentNames()
	if len(names) == 0 {
		t.Fatal("no experiments registered")
	}
	tables, err := RunExperiment("table2", ExperimentOptions{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].Name != "table2" {
		t.Fatalf("unexpected tables: %v", tables)
	}
	if _, err := RunExperiment("no-such-figure", ExperimentOptions{Scale: 1, Seed: 1}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestItemsFromTraceRejectsOversize(t *testing.T) {
	tr := &Trace{
		Files:    []FileInfo{{ID: 0, Size: DefaultDiskParams().CapacityBytes * 2, Rate: 0}},
		Duration: 1,
	}
	if _, err := ItemsFromTrace(tr, DefaultDiskParams(), 0.5); err == nil {
		t.Fatal("oversize file accepted")
	}
}

// TestShardSweepPublicAPI exercises the distributed-sweep surface end
// to end through the root package: shard a grid, pass the manifests
// through their JSON codec, run each into its point journal, merge the
// journals, and require equality with RunSweep.
func TestShardSweepPublicAPI(t *testing.T) {
	wl := Table1Workload(2, 0)
	wl.NumFiles = 300
	wl.MinSize = wl.MinSize / 125
	wl.MaxSize = wl.MaxSize / 125
	sweep := FarmSweep{
		Name: "api-grid",
		Base: FarmSpec{
			Name:     "api-grid",
			Workload: SyntheticFarmWorkload(wl),
			Alloc:    PackedAlloc(0.7),
		},
		Axes:   []FarmAxis{{Kind: AxisSpinThreshold, Values: []float64{30, 600}}},
		Select: FarmSelector{Kind: SelectKnee},
	}
	direct, err := RunSweep(sweep, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := ShardSweep(sweep, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var journals []string
	for _, m := range shards {
		var buf bytes.Buffer
		if err := EncodeSweepShard(&buf, m); err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeSweepShard(&buf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.result.jsonl", m.Index))
		if err := RunSweepShard(*dec, path, 0); err != nil {
			t.Fatal(err)
		}
		journals = append(journals, path)
	}
	merged, err := MergeSweep(journals)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("merged shard results differ from the single-process sweep")
	}
	if merged.Best < 0 {
		t.Fatal("merged sweep selected no operating point")
	}
}

// TestServeWorkSweepPublicAPI exercises the elastic-pool surface end to
// end through the root package: ServeSweep on a loopback port, one
// WorkSweep worker pulling the grid, and a result byte-identical to
// RunSweep. CompileSweep's point-at-a-time seam is checked against the
// same reference.
func TestServeWorkSweepPublicAPI(t *testing.T) {
	wl := Table1Workload(2, 0)
	wl.NumFiles = 300
	wl.MinSize = wl.MinSize / 125
	wl.MaxSize = wl.MaxSize / 125
	sweep := FarmSweep{
		Name: "api-pool",
		Base: FarmSpec{
			Name:     "api-pool",
			Workload: SyntheticFarmWorkload(wl),
			Alloc:    PackedAlloc(0.7),
		},
		Axes:   []FarmAxis{{Kind: AxisSpinThreshold, Values: []float64{30, 600}}},
		Select: FarmSelector{Kind: SelectKnee},
	}
	direct, err := RunSweep(sweep, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	comp, err := CompileSweep(sweep, 3)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := comp.RunPoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Metrics == nil || pr.Metrics.Energy != direct.Points[0].Metrics.Energy {
		t.Fatal("CompileSweep.RunPoint differs from the RunSweep point")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	addrCh := make(chan string, 1)
	type outcome struct {
		res *FarmSweepResult
		err error
	}
	servedCh := make(chan outcome, 1)
	go func() {
		res, err := ServeSweep(ctx, sweep, 3, "127.0.0.1:0", SweepCoordConfig{
			Linger:   time.Millisecond,
			OnListen: func(a net.Addr) { addrCh <- a.String() },
		})
		servedCh <- outcome{res, err}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case served := <-servedCh:
		t.Fatalf("ServeSweep exited before listening: res=%v err=%v", served.res, served.err)
	}
	stats, err := WorkSweep(ctx, "http://"+addr, SweepWorkerConfig{Name: "api-worker", Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != sweep.NumPoints() {
		t.Errorf("worker computed %d points, grid has %d", stats.Points, sweep.NumPoints())
	}
	served := <-servedCh
	if served.err != nil {
		t.Fatal(served.err)
	}
	got, err := json.Marshal(served.res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("ServeSweep result differs from the single-process RunSweep")
	}
}
