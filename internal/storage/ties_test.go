package storage

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"diskpack/internal/disk"
	"diskpack/internal/policy"
	"diskpack/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tieCase is one windowed run of the ties golden.
type tieCase struct {
	name   string
	tr     *trace.Trace
	assign []int
	cfg    Config
	epoch  float64
}

// quantizedParams is a drive whose positioning, transfer and spin
// times are exact binary fractions, so arrivals on a 0.5 s grid put
// completions, timeouts and spin-down ends on exact common instants.
func quantizedParams() disk.Params {
	p := disk.DefaultParams()
	p.Model = "quantized"
	p.AvgSeekTime, p.AvgRotationTime = 0.25, 0.25
	p.TransferRate = 64 * disk.MB
	return p
}

// serviceEnd returns the instant a disk that starts serving a file of
// size bytes at time at completes it, computed as the disk schedules
// it: one positioning delay, then one transfer delay.
func serviceEnd(p disk.Params, at float64, size int64) float64 {
	at += p.PositioningTime()
	return at + p.TransferTime(size)
}

// sameDiskTieCases puts arrivals exactly on one disk's idle timeout and
// spin-down end, armed at construction and during the run, and on the
// instant a service completes; windows of 10 s close on the
// construction-armed instants too.
func sameDiskTieCases() []tieCase {
	p := disk.DefaultParams()
	const size = 72 * disk.MB
	const T = 20.0
	c := serviceEnd(p, 0, size) // first service from idle at t=0
	one := func(name string, threshold float64, times ...float64) tieCase {
		tr := &trace.Trace{Duration: 200, Files: []trace.FileInfo{
			{ID: 0, Size: size, Rate: 0.01},
			{ID: 1, Size: size, Rate: 0.01},
		}}
		for i, at := range times {
			tr.Requests = append(tr.Requests, trace.Request{Time: at, FileID: i % 2})
		}
		return tieCase{name: name, tr: tr, assign: []int{0, 0},
			cfg: Config{NumDisks: 2, IdleThreshold: threshold}, epoch: 10}
	}
	be := p.BreakEvenThreshold()
	return []tieCase{
		one("arrival-at-construction-timeout", T, T),
		one("arrival-at-run-timeout", T, 0, c+T),
		one("arrival-at-construction-spindown-end", T, T+p.SpinDownTime),
		one("arrival-at-run-spindown-end", T, 0, c+T+p.SpinDownTime),
		one("two-arrivals-at-spindown-end", T, T+p.SpinDownTime, T+p.SpinDownTime),
		one("arrival-in-spindown-then-at-end", T, T+5, T+p.SpinDownTime),
		one("arrival-at-timeout-and-spindown-end", T, T, T+p.SpinDownTime),
		one("zero-gap", T, 0, c),
		one("zero-gap-then-run-timeout", T, 0, c, serviceEnd(p, c, size)+T),
		one("threshold-0-at-start", 0, 0),
		one("threshold-0-at-completion", 0, 0, c),
		one("threshold-0-at-spindown-end", 0, 0, c+p.SpinDownTime),
		one("break-even-at-timeout", be, be, be+p.SpinDownTime),
		one("break-even-at-run-timeout", be, 0, c+be, c+be+p.SpinDownTime),
	}
}

// millionDiskShapedCases scale the million-disk benchmark down: one
// equal-size file on every 8th disk, requests on a uniform time grid,
// break-even threshold, so every untouched disk spins down at the same
// instant.
func millionDiskShapedCases() []tieCase {
	var cs []tieCase
	for i, shape := range []struct {
		disks, reqs int
		epoch       float64
	}{{64, 50, 10}, {256, 200, 10}, {256, 1000, 30}, {1024, 300, 7}, {1024, 2000, 10}, {512, 120, 60}} {
		files := shape.disks / 8
		tr := &trace.Trace{Duration: 120, Files: make([]trace.FileInfo, files)}
		assign := make([]int, files)
		for f := range tr.Files {
			tr.Files[f] = trace.FileInfo{ID: f, Size: 64 * disk.MB, Rate: 0.01}
			assign[f] = f * 8
		}
		rng := rand.New(rand.NewSource(int64(i)))
		for r := 0; r < shape.reqs; r++ {
			tr.Requests = append(tr.Requests, trace.Request{Time: 120 * float64(r) / float64(shape.reqs), FileID: rng.Intn(files)})
		}
		cs = append(cs, tieCase{
			name: fmt.Sprintf("million-shaped-%d-disks-%d-reqs", shape.disks, shape.reqs),
			tr:   tr, assign: assign,
			cfg:   Config{NumDisks: shape.disks, IdleThreshold: BreakEven},
			epoch: shape.epoch,
		})
	}
	return cs
}

// twoModelCases land arrivals exactly on another drive model's
// spin-down end, with and without a request waiting on that spin-down.
func twoModelCases() []tieCase {
	fast, eco := disk.DefaultParams(), disk.EcoParams()
	const size = 72 * disk.MB
	ecoDown := eco.BreakEvenThreshold() + eco.SpinDownTime
	fastDown := fast.BreakEvenThreshold() + fast.SpinDownTime
	mk := func(name string, reqs ...trace.Request) tieCase {
		tr := &trace.Trace{Duration: 300, Files: []trace.FileInfo{
			{ID: 0, Size: size, Rate: 0.01},
			{ID: 1, Size: size, Rate: 0.01},
		}, Requests: reqs}
		return tieCase{name: name, tr: tr, assign: []int{0, 1},
			cfg: Config{NumDisks: 2, PerDisk: []disk.Params{fast, eco}, IdleThreshold: BreakEven}, epoch: 10}
	}
	return []tieCase{
		mk("two-model-arrival-at-other-spindown-end",
			trace.Request{Time: ecoDown, FileID: 0}),
		mk("two-model-arrival-at-waited-spindown-end",
			trace.Request{Time: ecoDown - 1, FileID: 1},
			trace.Request{Time: ecoDown, FileID: 0}),
		mk("two-model-crossed-spindown-ends",
			trace.Request{Time: fastDown - 2, FileID: 0},
			trace.Request{Time: fastDown, FileID: 1},
			trace.Request{Time: ecoDown - 1, FileID: 1},
			trace.Request{Time: ecoDown, FileID: 0}),
	}
}

// randomTieCase builds seeded random windowed farm s: 2–32 disks, one
// file size from {64, 72, 720} MB, a third of the farms on the
// quantized drive with arrivals on a 0.5 s grid, a third with mixed
// drive models, an LRU in a third, and thresholds of 0, break-even,
// 1–60 s, randomized or adaptive.
func randomTieCase(s int) tieCase {
	rng := rand.New(rand.NewSource(int64(s)))
	disks := 2 + rng.Intn(31)
	size := []int64{64, 72, 720}[rng.Intn(3)] * disk.MB
	files := 1 + rng.Intn(2*disks)
	tr := &trace.Trace{Duration: 600, Files: make([]trace.FileInfo, files)}
	assign := make([]int, files)
	for f := range tr.Files {
		tr.Files[f] = trace.FileInfo{ID: f, Size: size, Rate: 0.01}
		assign[f] = rng.Intn(disks)
	}
	quantized := s%3 == 0
	cfg := Config{NumDisks: disks}
	models := []disk.Params{disk.DefaultParams()}
	switch {
	case quantized:
		models = []disk.Params{quantizedParams()}
	case s%3 == 1:
		models = []disk.Params{disk.DefaultParams(), disk.EcoParams()}
	}
	cfg.PerDisk = make([]disk.Params, disks)
	for d := range cfg.PerDisk {
		cfg.PerDisk[d] = models[rng.Intn(len(models))]
	}
	if rng.Intn(3) == 0 {
		cfg.CacheBytes = size * int64(1+rng.Intn(4))
	}
	kind := rng.Intn(5)
	fixed := float64(1 + rng.Intn(60))
	seed := rng.Int63()
	switch kind {
	case 0:
		cfg.IdleThreshold = 0
	case 1:
		cfg.IdleThreshold = BreakEven
	case 2:
		cfg.IdleThreshold = fixed
	case 3:
		cfg.PolicyFactory = func(d int) disk.SpinPolicy { return policy.NewRandomized(cfg.PerDisk[d], seed+int64(d)) }
	case 4:
		cfg.PolicyFactory = func(d int) disk.SpinPolicy { return policy.NewAdaptive(cfg.PerDisk[d]) }
	}
	reqs := 10 + rng.Intn(300)
	at := 0.0
	for r := 0; r < reqs && at < tr.Duration; r++ {
		if r == 0 || rng.Intn(5) != 0 { // a fifth repeat the previous instant
			at += rng.ExpFloat64() * tr.Duration / float64(reqs)
			if quantized {
				at = math.Round(at*2) / 2
			}
		}
		tr.Requests = append(tr.Requests, trace.Request{Time: at, FileID: rng.Intn(files)})
	}
	for len(tr.Requests) > 0 && tr.Requests[len(tr.Requests)-1].Time >= tr.Duration {
		tr.Requests = tr.Requests[:len(tr.Requests)-1]
	}
	epoch := float64(5 + rng.Intn(60))
	return tieCase{name: fmt.Sprintf("random-%d", s), tr: tr, assign: assign, cfg: cfg, epoch: epoch}
}

// tieLine runs c windowed and renders its golden line: hashes of the
// Results JSON and of every window's JSON in order.
func tieLine(t *testing.T, c tieCase) string {
	t.Helper()
	wins := sha256.New()
	n := 0
	res, err := RunStream(c.tr, c.assign, c.cfg, StreamConfig{
		Epoch: c.epoch,
		OnWindow: func(w *Window, _ *RunControl) error {
			b, err := json.Marshal(w)
			if err != nil {
				return err
			}
			wins.Write(b)
			wins.Write([]byte{'\n'})
			n++
			return nil
		},
	})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%s completed=%d spinups=%d spindowns=%d results=%x windows=%d:%x",
		c.name, res.Completed, res.SpinUps, res.SpinDowns, sum[:8], n, wins.Sum(nil)[:8])
}

// TestTiesGolden pins runs whose events coincide exactly — arrivals on
// idle timeouts and spin-down ends, simultaneous spin-downs across a
// farm, spin-down ends of two drive models, and seeded random farms
// full of ties — against testdata/ties.golden, recorded while idle
// timeouts and spin-down ends were still queued as kernel events.
// Which of two simultaneous events goes first moves response-time
// samples, Welford means and energy segments, so any rank a deferred
// transition gets wrong shows up here. Regenerate with -update.
func TestTiesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("ties golden compared only on amd64 (GOARCH=%s: Go may fuse multiply-adds)", runtime.GOARCH)
	}
	cases := append(sameDiskTieCases(), millionDiskShapedCases()...)
	cases = append(cases, twoModelCases()...)
	for s := 0; s < 300; s++ {
		cases = append(cases, randomTieCase(s))
	}
	var lines []string
	for _, c := range cases {
		lines = append(lines, tieLine(t, c))
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "ties.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := ""
				if i < len(wl) {
					w = wl[i]
				}
				t.Errorf("ties drifted from %s at line %d (regenerate with -update):\ngot  %s\nwant %s", path, i+1, gl[i], w)
				return
			}
		}
		t.Errorf("ties drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
