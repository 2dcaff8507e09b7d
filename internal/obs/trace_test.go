package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// diskStateNames are internal/disk's StateNames, in state-value order.
var diskStateNames = []string{"idle", "standby", "spinup", "spindown", "seek", "active"}

// diskCycle is a disk's typical state sequence: serve a request, idle,
// spin down, sleep, spin up for the next one.
var diskCycle = []int{0, 4, 5, 0, 3, 1, 2, 4, 5}

// diurnalShapedTrace records a trace shaped like controlled-diurnal's:
// disk tracks (controlled-diurnal has 18) of points state changes each
// at irregular simulated times, and for each of 192 windows two counter
// events plus, every other window, a controller instant, all with args.
func diurnalShapedTrace(tracks, points int) *TraceRecorder {
	const windows, epoch = 192, 1800.0
	horizon := windows * epoch
	rec := NewTraceRecorder()
	rec.InitTracks(tracks, diskStateNames)
	rng := rand.New(rand.NewSource(1))
	for d := 0; d < tracks; d++ {
		at := 0.0
		for i := 0; i < points; i++ {
			rec.StateChange(d, at, diskCycle[i%len(diskCycle)])
			at += rng.ExpFloat64() * horizon / float64(points)
		}
	}
	for w := 1; w <= windows; w++ {
		end := float64(w) * epoch
		rec.Emit(TraceEvent{Phase: 'C', Track: "windows", Name: "load", At: end,
			Args: map[string]any{"arrivals": int64(rng.Intn(5000)), "completed": int64(rng.Intn(5000))}})
		rec.Emit(TraceEvent{Phase: 'C', Track: "windows", Name: "power+tail", At: end,
			Args: map[string]any{"p95_s": rng.Float64() * 2, "power_w": 100 + rng.Float64()*400}})
		if w%2 == 0 {
			rec.Emit(TraceEvent{Phase: 'i', Track: "control", Name: "set-threshold", At: end,
				Args: map[string]any{"window": w - 1, "applied": true, "note": "threshold 26.6s"}})
		}
	}
	rec.SetHorizon(horizon)
	return rec
}

// BenchmarkWriteChromeTrace renders a controlled-diurnal-shaped
// recording (18 disks × 4096 state changes, 480 run events) to
// io.Discard: the cost of -trace-out per event and per byte.
func BenchmarkWriteChromeTrace(b *testing.B) {
	rec := diurnalShapedTrace(18, 4096)
	var out bytes.Buffer
	if err := rec.WriteChromeTrace(&out); err != nil {
		b.Fatal(err)
	}
	// One event per line, between the container's first and last line.
	events := bytes.Count(out.Bytes(), []byte("\n")) - 2
	b.SetBytes(int64(out.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rec.WriteChromeTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
}

// TestTraceRenderAllocsConstant guards the encoder's allocation-free
// event path: rendering allocates the same number of times whether
// each track holds a thousand state changes or sixty-four thousand.
func TestTraceRenderAllocsConstant(t *testing.T) {
	render := func(rec *TraceRecorder) float64 {
		return testing.AllocsPerRun(2, func() {
			if err := rec.WriteChromeTrace(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := render(diurnalShapedTrace(4, 1<<10)), render(diurnalShapedTrace(4, 1<<16))
	if small != large {
		t.Errorf("rendering 4×1k points allocates %v times, 4×64k points %v times; want equal", small, large)
	}
}

// TestTraceSegmentHeads holds disk segments written from their
// pre-encoded heads to encoding/json: two tracks in different states,
// one state whose name json escapes, and a state value without a name,
// which renders as state-N. Every event line must be json.Marshal of
// the chromeEvent built from the same values.
func TestTraceSegmentHeads(t *testing.T) {
	names := []string{"idle", "spin<up>", "standby"}
	const horizon = 5.0
	tracks := [][]statePoint{
		{{0, 0}, {1.5, 2}, {4.25, 0}},
		nil,
		{{0.5, 1}, {2, 7}, {3.1, 1}, {3.75, 7}},
	}
	rec := NewTraceRecorder()
	rec.InitTracks(len(tracks), names)
	for tid, pts := range tracks {
		for _, p := range pts {
			rec.StateChange(tid, p.at, int(p.state))
		}
	}
	rec.SetHorizon(horizon)

	want := []chromeEvent{{Name: "process_name", Ph: "M", Pid: diskPid, Args: map[string]any{"name": "disks"}}}
	for tid, pts := range tracks {
		if len(pts) == 0 {
			continue
		}
		want = append(want, chromeEvent{Name: "thread_name", Ph: "M", Pid: diskPid, Tid: tid,
			Args: map[string]any{"name": fmt.Sprintf("disk %d", tid)}})
		for i, p := range pts {
			end := horizon
			if i+1 < len(pts) {
				end = pts[i+1].at
			}
			name := fmt.Sprintf("state-%d", p.state)
			if int(p.state) < len(names) {
				name = names[p.state]
			}
			dur := usec(end - p.at)
			want = append(want, chromeEvent{Name: name, Ph: "X", Pid: diskPid, Tid: tid, Ts: usec(p.at), Dur: &dur})
		}
	}

	var out bytes.Buffer
	if err := rec.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	// One event per line, between the container's first and last line.
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	got := lines[1 : len(lines)-1]
	if len(got) != len(want) {
		t.Fatalf("rendered %d events, want %d:\n%s", len(got), len(want), out.String())
	}
	for i := range want {
		line, err := json.Marshal(&want[i])
		if err != nil {
			t.Fatal(err)
		}
		if g := strings.TrimSuffix(got[i], ","); g != string(line) {
			t.Errorf("event %d:\n got %s\nwant %s", i, g, line)
		}
	}
	if !strings.Contains(out.String(), `{"name":"state-7","ph":"X","pid":1,"tid":2,"ts":2000000,"dur":1100000}`) {
		t.Errorf("no state-7 segment on track 2:\n%s", out.String())
	}
}

// TestTraceRecordingAllocatesOnce guards the chunked timeline: n state
// changes allocate about n points' worth of memory, not the several
// times that a regrowing slice allocates and copies.
func TestTraceRecordingAllocatesOnce(t *testing.T) {
	const n = 1 << 16
	rec := NewTraceRecorder()
	rec.InitTracks(1, diskStateNames)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		rec.StateChange(0, float64(i), diskCycle[i%len(diskCycle)])
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	want := uint64(n * unsafe.Sizeof(statePoint{}))
	if got > want+want/8 {
		t.Errorf("recording %d points allocated %d bytes, want at most %d (%d points' worth + 1/8)", n, got, want+want/8, n)
	}
}

// FuzzChromeEvent holds the encoder to encoding/json: for any event,
// appendEvent writes exactly the bytes json.Marshal does, or both fail.
// The seeds cover strings json escapes (<>&, control bytes, invalid
// UTF-8, U+2028), the float formatting boundaries (±0, the smallest
// subnormal, 1e-6 and 1e21 and the floats just below them, the largest
// float), the values JSON cannot hold (NaN, ±Inf), and every arg type
// the simulator and decoded span logs carry.
func FuzzChromeEvent(f *testing.F) {
	type seed struct {
		name, ph, s, key, str string
		ts, dur, num          float64
		n                     int64
		flags                 uint8
	}
	negZero, spanStart := math.Copysign(0, -1), 1e303
	seeds := []seed{
		{"idle", "X", "", "", "", 135668.7388973053, 12660.000000000005, 0, 1, hasDur},
		{"set-threshold", "i", "g", "note", "threshold 6.66s", 6e8, 0, 26.6, 3, hasArgs | boolArg},
		{"power+tail", "C", "", "p95_s", "", 3e8, 0, 8.65429783735686, 0, hasArgs},
		{"<b>&amp;</b>", "X", "t", "a<b>&c", "\x00\x01\x1f\x7f\"\\\b\f\n\r\t", negZero, 0, negZero, -1, hasDur | hasArgs},
		{"\xff\xfe bad utf8", "i", "\u2028\u2029", "\xc3\x28", "line\u2028sep", 5e-324, -5e-324, 1e-6, math.MaxInt64, hasDur | hasArgs},
		{"edges", "X", "", "k", "v", math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e21, 0), math.MinInt64, hasDur | hasArgs},
		{"edges", "X", "", "k", "v", 1e21, math.Nextafter(1e21, 0), math.MaxFloat64, 0, hasDur | hasArgs | boolArg},
		{"big", "C", "", "k", "", -math.MaxFloat64, 1e-7, 1.5e-300, 0, hasDur | hasArgs},
		{"nan", "X", "", "", "", math.NaN(), 0, 0, 0, hasDur},
		{"inf dur", "X", "", "", "", 0, math.Inf(1), 0, 0, hasDur},
		{"inf arg", "C", "", "k", "", 0, 0, math.Inf(-1), 0, hasArgs},
		// -merge-trace reading a span log whose Start is 1e303: the
		// span's ts, off + Start*1e6, overflows to +Inf, and the merged
		// trace must fail rather than hold +Inf.
		{"point", "X", "", "id", "0123456789abcdef", 0 + spanStart*1e6, 1e6, 0, 1, hasDur | hasArgs},
	}
	for _, s := range seeds {
		f.Add(s.name, s.ph, s.s, s.key, s.str, s.ts, s.dur, s.num, s.n, s.flags)
	}
	f.Fuzz(func(t *testing.T, name, ph, s, key, str string, ts, dur, num float64, n int64, flags uint8) {
		ev := chromeEvent{Name: name, Ph: ph, Pid: int(n), Tid: int(n >> 32), Ts: ts, S: s}
		if flags&hasDur != 0 {
			ev.Dur = &dur
		}
		if flags&hasArgs != 0 {
			ev.Args = map[string]any{
				key:        str,
				key + "_f": num,
				"int":      int(n),
				"int64":    n,
				"bool":     flags&boolArg != 0,
				"nil":      nil,
				"nested":   map[string]any{str: []any{num, n, str, nil, flags&boolArg != 0}},
				"uint8":    flags,
				" <&>":     key,
			}
		}
		want, werr := json.Marshal(&ev)
		got, gerr := appendEvent(nil, &ev)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("json.Marshal error %v, encoder error %v", werr, gerr)
		}
		if werr == nil && !bytes.Equal(got, want) {
			t.Fatalf("encoder wrote\n%s\njson.Marshal wrote\n%s", got, want)
		}
	})
}

// Fuzz input flags: which optional parts of the event are present.
const (
	hasDur uint8 = 1 << iota
	hasArgs
	boolArg
)
