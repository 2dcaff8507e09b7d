package storage

import (
	"math"
	"runtime/debug"
	"testing"

	"diskpack/internal/disk"
	"diskpack/internal/obs"
	"diskpack/internal/trace"
)

func miniTrace() *trace.Trace {
	return &trace.Trace{
		Files: []trace.FileInfo{
			{ID: 0, Size: 72 * disk.MB, Rate: 0.01}, // 1 s transfer
			{ID: 1, Size: 720 * disk.MB, Rate: 0.001},
		},
		Requests: []trace.Request{
			{Time: 10, FileID: 0},
			{Time: 100, FileID: 1},
			{Time: 100, FileID: 0},
		},
		Duration: 1000,
	}
}

func TestRunBasic(t *testing.T) {
	tr := miniTrace()
	res, err := Run(tr, []int{0, 1}, Config{NumDisks: 2, IdleThreshold: disk.NeverSpinDown})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3 || res.Unfinished != 0 {
		t.Fatalf("completed=%d unfinished=%d", res.Completed, res.Unfinished)
	}
	// With never-spin-down, energy equals the no-saving baseline.
	if math.Abs(res.Energy-res.NoSavingEnergy) > 1e-6 {
		t.Fatalf("never-spin-down energy %v != baseline %v", res.Energy, res.NoSavingEnergy)
	}
	if math.Abs(res.PowerSavingRatio) > 1e-12 {
		t.Fatalf("saving ratio %v want 0", res.PowerSavingRatio)
	}
	if res.SpinUps != 0 || res.SpinDowns != 0 {
		t.Fatalf("spin transitions without policy: %d/%d", res.SpinUps, res.SpinDowns)
	}
	// Response time for the first request: positioning + 1 s.
	pos := disk.DefaultParams().PositioningTime()
	if math.Abs(res.RespMean-(pos+1+pos+10+pos+1)/3) > 1e-9 {
		t.Logf("mean=%v (informational)", res.RespMean)
	}
	if res.AvgPower <= 0 || res.Duration != 1000 {
		t.Fatalf("power=%v duration=%v", res.AvgPower, res.Duration)
	}
}

func TestSpinDownSavesEnergy(t *testing.T) {
	tr := miniTrace()
	always, err := Run(tr, []int{0, 0}, Config{NumDisks: 2, IdleThreshold: disk.NeverSpinDown})
	if err != nil {
		t.Fatal(err)
	}
	saving, err := Run(tr, []int{0, 0}, Config{NumDisks: 2, IdleThreshold: 53.3})
	if err != nil {
		t.Fatal(err)
	}
	if saving.Energy >= always.Energy {
		t.Fatalf("spin-down did not save energy: %v vs %v", saving.Energy, always.Energy)
	}
	if saving.PowerSavingRatio <= 0 {
		t.Fatalf("saving ratio %v want > 0", saving.PowerSavingRatio)
	}
	// Disk 1 receives no requests: it must be in standby almost the
	// whole run.
	if saving.AvgStandbyDisks < 0.9 {
		t.Fatalf("avg standby disks %v want ≈>1 (idle disk asleep)", saving.AvgStandbyDisks)
	}
	if saving.SpinDowns < 1 {
		t.Fatal("no spin-downs recorded")
	}
}

func TestSpinUpPenaltyVisibleInResponse(t *testing.T) {
	tr := &trace.Trace{
		Files:    []trace.FileInfo{{ID: 0, Size: 72 * disk.MB}},
		Requests: []trace.Request{{Time: 500, FileID: 0}},
		Duration: 1000,
	}
	res, err := Run(tr, []int{0}, Config{NumDisks: 1, IdleThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	p := disk.DefaultParams()
	want := p.SpinUpTime + p.PositioningTime() + 1.0
	if math.Abs(res.RespMean-want) > 1e-9 {
		t.Fatalf("response %v want %v (spin-up + service)", res.RespMean, want)
	}
}

func TestBreakEvenThresholdSentinel(t *testing.T) {
	tr := miniTrace()
	res, err := Run(tr, []int{0, 0}, Config{NumDisks: 1, IdleThreshold: BreakEven})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpinDowns < 1 {
		t.Fatal("break-even threshold did not spin down an idle disk in 1000 s")
	}
}

func TestCacheShortCircuitsDisk(t *testing.T) {
	// Same file requested twice, far apart; with a cache the second
	// request hits and the disk can stay asleep.
	tr := &trace.Trace{
		Files: []trace.FileInfo{{ID: 0, Size: 100 * disk.MB}},
		Requests: []trace.Request{
			{Time: 10, FileID: 0},
			{Time: 500, FileID: 0},
		},
		Duration: 1000,
	}
	cfg := Config{NumDisks: 1, IdleThreshold: 53.3, CacheBytes: disk.GB}
	res, err := Run(tr, []int{0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 1 || res.CacheMisses != 1 {
		t.Fatalf("cache hits=%d misses=%d want 1/1", res.CacheHits, res.CacheMisses)
	}
	if res.CacheHitRatio != 0.5 {
		t.Fatalf("hit ratio %v", res.CacheHitRatio)
	}
	// Second request must have zero response time.
	if res.RespMedian != 0 && res.RespMean >= res.RespMax {
		t.Fatalf("cache hit response not ≈0: mean=%v max=%v", res.RespMean, res.RespMax)
	}
	// The disk starts idle, so the t=10 miss needs no spin-up, and
	// the t=500 hit must not wake it.
	if res.SpinUps != 0 {
		t.Fatalf("spinUps=%d want 0", res.SpinUps)
	}

	noCache, err := Run(tr, []int{0}, Config{NumDisks: 1, IdleThreshold: 53.3})
	if err != nil {
		t.Fatal(err)
	}
	if noCache.SpinUps != 1 {
		t.Fatalf("without cache spinUps=%d want 1 (t=500 wakes the disk)", noCache.SpinUps)
	}
	if noCache.Energy <= res.Energy {
		t.Fatalf("cache did not reduce energy: %v vs %v", res.Energy, noCache.Energy)
	}
}

func TestUnfinishedRequestsCounted(t *testing.T) {
	// A request arriving at the very end cannot finish.
	tr := &trace.Trace{
		Files:    []trace.FileInfo{{ID: 0, Size: 7200 * disk.MB}}, // 100 s transfer
		Requests: []trace.Request{{Time: 999, FileID: 0}},
		Duration: 1000,
	}
	res, err := Run(tr, []int{0}, Config{NumDisks: 1, IdleThreshold: disk.NeverSpinDown})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 || res.Unfinished != 1 {
		t.Fatalf("completed=%d unfinished=%d", res.Completed, res.Unfinished)
	}
}

func TestDefaultsApplied(t *testing.T) {
	tr := miniTrace()
	// Zero DiskParams → Table 2 drive.
	res, err := Run(tr, []int{0, 0}, Config{NumDisks: 1, IdleThreshold: disk.NeverSpinDown})
	if err != nil {
		t.Fatal(err)
	}
	// 1 disk idling 1000 s ≈ 9.3 kJ plus service energy.
	if res.Energy < 9000 || res.Energy > 11000 {
		t.Fatalf("energy=%v not in Table 2 ballpark", res.Energy)
	}
}

func TestRunErrors(t *testing.T) {
	tr := miniTrace()
	cases := []struct {
		name   string
		assign []int
		cfg    Config
	}{
		{"short assignment", []int{0}, Config{NumDisks: 2, IdleThreshold: 1}},
		{"disk out of range", []int{0, 5}, Config{NumDisks: 2, IdleThreshold: 1}},
		{"negative disk", []int{0, -2}, Config{NumDisks: 2, IdleThreshold: 1}}, // -1 is Unplaced, -2 is invalid
		{"zero disks", []int{0, 0}, Config{NumDisks: 0, IdleThreshold: 1}},
		{"bad threshold", []int{0, 0}, Config{NumDisks: 2, IdleThreshold: -7}},
		{"negative cache", []int{0, 0}, Config{NumDisks: 2, IdleThreshold: 1, CacheBytes: -1}},
	}
	for _, c := range cases {
		if _, err := Run(tr, c.assign, c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	bad := miniTrace()
	bad.Requests[0].FileID = 99
	if _, err := Run(bad, []int{0, 0}, Config{NumDisks: 2, IdleThreshold: 1}); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestEmptyTraceRuns(t *testing.T) {
	tr := &trace.Trace{Duration: 100}
	res, err := Run(tr, nil, Config{NumDisks: 3, IdleThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 {
		t.Fatal("requests appeared from nowhere")
	}
	// All three disks idle 10 s, spin down 10 s, standby 80 s.
	want := 3 * (9.3*10 + 9.3*10 + 0.8*80)
	if math.Abs(res.Energy-want) > 1e-6 {
		t.Fatalf("energy=%v want %v", res.Energy, want)
	}
}

func TestDeterministicRuns(t *testing.T) {
	tr := miniTrace()
	cfg := Config{NumDisks: 2, IdleThreshold: 30, CacheBytes: disk.GB}
	a, err := Run(tr, []int{0, 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, []int{0, 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Energy != b.Energy || a.RespMean != b.RespMean || a.SpinUps != b.SpinUps {
		t.Fatal("simulation not deterministic")
	}
}

func TestConcentrationBeatsSpreading(t *testing.T) {
	// The paper's core claim in miniature: files on one disk (the
	// other asleep) use less energy than files spread across two, at
	// some response-time cost. 20 requests to 2 files over 2000 s.
	files := []trace.FileInfo{
		{ID: 0, Size: 72 * disk.MB},
		{ID: 1, Size: 72 * disk.MB},
	}
	var reqs []trace.Request
	for i := 0; i < 20; i++ {
		reqs = append(reqs, trace.Request{Time: float64(i) * 100, FileID: i % 2})
	}
	tr := &trace.Trace{Files: files, Requests: reqs, Duration: 2000}
	packed, err := Run(tr, []int{0, 0}, Config{NumDisks: 2, IdleThreshold: 53.3})
	if err != nil {
		t.Fatal(err)
	}
	spread, err := Run(tr, []int{0, 1}, Config{NumDisks: 2, IdleThreshold: 53.3})
	if err != nil {
		t.Fatal(err)
	}
	if packed.Energy >= spread.Energy {
		t.Fatalf("concentration did not save: packed=%v spread=%v", packed.Energy, spread.Energy)
	}
	if packed.PowerSavingRatio <= spread.PowerSavingRatio {
		t.Fatalf("saving ratios: packed=%v spread=%v", packed.PowerSavingRatio, spread.PowerSavingRatio)
	}
}

func TestPeakQueueReported(t *testing.T) {
	files := []trace.FileInfo{{ID: 0, Size: 720 * disk.MB}}
	reqs := []trace.Request{
		{Time: 1, FileID: 0}, {Time: 2, FileID: 0}, {Time: 3, FileID: 0},
	}
	tr := &trace.Trace{Files: files, Requests: reqs, Duration: 100}
	res, err := Run(tr, []int{0}, Config{NumDisks: 1, IdleThreshold: disk.NeverSpinDown})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakQueue != 3 {
		t.Fatalf("peak queue %d want 3", res.PeakQueue)
	}
}

// A shard's disks live in one slab and share their drive model and
// fixed threshold, and an idle disk's timeout and spin-down queue no
// event, so a farm's size costs no allocation per disk: 16 times the
// disks may add only a few objects, from slices sized by the farm.
// Each disk still reads its own configured drive model, at any shard
// count.
func TestRunAllocatesNothingPerDisk(t *testing.T) {
	const small, large = 1 << 12, 1 << 16
	// Past every break-even time: every disk times out and spins down.
	tr := &trace.Trace{Duration: 100}
	models := []disk.Params{disk.DefaultParams(), disk.EcoParams()}
	farm := func(n int, perDisk bool) Config {
		cfg := Config{NumDisks: n, IdleThreshold: BreakEven}
		if perDisk {
			cfg.PerDisk = make([]disk.Params, n)
			for i := range cfg.PerDisk {
				cfg.PerDisk[i] = models[i%len(models)]
			}
		}
		return cfg
	}
	// A windowed run wraps each disk's policy in a gap recorder; those
	// come from one slab per shard too.
	runs := map[string]func(Config) error{
		"Run": func(cfg Config) error {
			_, err := Run(tr, nil, cfg)
			return err
		},
		"RunStream": func(cfg Config) error {
			_, err := RunStream(tr, nil, cfg, StreamConfig{Epoch: 30})
			return err
		},
	}
	for _, perDisk := range []bool{false, true} {
		for name, run := range runs {
			allocs := func(n int) float64 {
				cfg := farm(n, perDisk)
				return testing.AllocsPerRun(2, func() {
					if err := run(cfg); err != nil {
						t.Fatal(err)
					}
				})
			}
			a, b := allocs(small), allocs(large)
			if extra, limit := b-a, 8.0; extra > limit {
				t.Errorf("%s, PerDisk=%v: %v disks allocate %v objects, %v disks %v: %v more, want at most %v",
					name, perDisk, small, a, large, b, extra, limit)
			}
		}
		cfg := farm(small, perDisk)
		for _, workers := range []int{1, 3} {
			r, err := newRunner(tr, nil, cfg, nil, ParallelConfig{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for d := 0; d < small; d++ {
				want := models[0]
				if perDisk {
					want = models[d%len(models)]
				}
				s := 0
				if r.shardOf != nil {
					s = int(r.shardOf[d])
				}
				dk := r.shards[s].localDisk(d)
				if dk.ID != d || dk.Params() != want {
					t.Fatalf("PerDisk=%v workers=%d: disk %d reads disk %d with model %q, want %q",
						perDisk, workers, d, dk.ID, dk.Params().Model, want.Model)
				}
			}
		}
	}
}

// sim.events counts an idle disk's timeout and spin-down end whether
// the kernel queues them or the disk applies them itself: a 2-disk,
// 120 s farm at break-even counts 2 per disk with no requests, and 8
// with one request arriving at 58 s, mid-spin-down — its arrival, the
// spin-down end it waits on, the spin-up, the seek and the transfer
// join the idle disk's 2 and the timeout that began the spin-down.
func TestSimEventsCountDeferredTransitions(t *testing.T) {
	events := func(reqs ...trace.Request) float64 {
		tr := &trace.Trace{Duration: 120, Requests: reqs,
			Files: []trace.FileInfo{{ID: 0, Size: 72 * disk.MB, Rate: 0.01}}}
		rm := obs.NewRunMetrics(obs.NewRegistry(), RespBuckets())
		cfg := Config{NumDisks: 2, IdleThreshold: BreakEven, Obs: &obs.RunObserver{Metrics: rm}}
		if _, err := Run(tr, []int{0}, cfg); err != nil {
			t.Fatal(err)
		}
		return rm.SimEvents.Value()
	}
	if got := events(); got != 4 {
		t.Errorf("no requests: sim.events = %v, want 4", got)
	}
	if got := events(trace.Request{Time: 58, FileID: 0}); got != 8 {
		t.Errorf("one request mid-spin-down: sim.events = %v, want 8", got)
	}
}

// TestRunAllocatesNothingPerRequest requires Run to allocate as many
// objects for 100k requests as for 10k: a lone shard's response store
// is sized from the trace once, and sorting it takes one scratch
// buffer. The collector is off while counting, so a cycle's own
// allocations do not count as the run's.
func TestRunAllocatesNothingPerRequest(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const files, disks = 8, 4
	build := func(n int) (*trace.Trace, []int) {
		tr := &trace.Trace{Duration: 2.5 * float64(n)}
		assign := make([]int, files)
		for f := range assign {
			tr.Files = append(tr.Files, trace.FileInfo{ID: f, Size: 72 * disk.MB, Rate: 0.05})
			assign[f] = f % disks
		}
		for i := 0; i < n; i++ {
			tr.Requests = append(tr.Requests, trace.Request{Time: 2.5 * float64(i), FileID: i % files})
		}
		return tr, assign
	}
	allocs := func(n int) float64 {
		tr, assign := build(n)
		return testing.AllocsPerRun(2, func() {
			res, err := Run(tr, assign, Config{NumDisks: disks, IdleThreshold: BreakEven})
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != int64(n) {
				t.Fatalf("%d of %d requests completed", res.Completed, n)
			}
		})
	}
	if a, b := allocs(10_000), allocs(100_000); a != b {
		t.Errorf("Run allocates %v objects for 10k requests and %v for 100k, want the same", a, b)
	}
}
