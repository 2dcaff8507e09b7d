package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestNormalise(t *testing.T) {
	if got := normalise(1.5, refNominalS); got != 1.5 {
		t.Errorf("op beside a nominal-speed reference: got %v, want it unchanged", got)
	}
	// A host running everything at half speed doubles both the op and
	// the reference; the normalised time must not move.
	if a, b := normalise(0.8, 0.2), normalise(1.6, 0.4); math.Abs(a-b) > 1e-12 {
		t.Errorf("uniform slowdown moved the normalised time: %v vs %v", a, b)
	}
	if got, want := normalise(0.8, 0.2), 0.8/0.2*refNominalS; got != want {
		t.Errorf("normalise(0.8, 0.2) = %v, want %v", got, want)
	}
	// Each sample is divided by the mean of the reference runs either
	// side of it, across the set-up/op boundary and up to the tail run.
	setups := []sample{{cpuS: 1, refS: 0.2}}
	timed := []sample{{cpuS: 2, refS: 0.3}, {cpuS: 3, refS: 0.2}}
	bracket(0.4, setups, timed)
	for i, s := range []sample{setups[0], timed[0], timed[1]} {
		want := []float64{1 / 0.25, 2 / 0.25, 3 / 0.3}[i] * refNominalS
		if got := s.norm(); math.Abs(got-want) > 1e-12 {
			t.Errorf("sample %d: norm %v, want %v", i, got, want)
		}
	}
	lt := layerTimes{op: 2, workload: 1, requests: 10, events: 7, fixedNsPerDisk: 3, windows: 4}.scaleTimes(0.5)
	if lt.op != 1 || lt.workload != 0.5 || lt.fixedNsPerDisk != 1.5 {
		t.Errorf("scaleTimes left a time unscaled: %+v", lt)
	}
	if lt.requests != 10 || lt.events != 7 || lt.windows != 4 {
		t.Errorf("scaleTimes scaled a count: %+v", lt)
	}
}

// TestQuartilesMatchPython pins quartiles to the values
// statistics.quantiles(data, n=4) prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data        []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
		{[]float64{0.51, 0.55, 0.49, 0.6, 0.52}, 0.5, 0.52, 0.575},
	} {
		q1, q3 := quartiles(c.data)
		med := median(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 || math.Abs(med-c.med) > 1e-12 {
			t.Errorf("%v: got q1 %v median %v q3 %v, want %v %v %v", c.data, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

var (
	nameGrammar = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitGrammar = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	var widest metric
	for i, ms := range [][]metric{endToEnd, perLayer} {
		for _, m := range ms {
			if !nameGrammar.MatchString(m.name) {
				t.Errorf("metric name %q outside [A-Za-z0-9_.-]", m.name)
			}
			if seen[m.name] {
				t.Errorf("metric name %q used twice", m.name)
			}
			seen[m.name] = true
			if !unitGrammar.MatchString(m.unit) {
				t.Errorf("metric %s: unit %q outside [A-Za-z0-9_/%%.-]{1,16}", m.name, m.unit)
			}
			if m.better != "lower" && m.better != "higher" {
				t.Errorf("metric %s: better %q", m.name, m.better)
			}
			if i == 0 {
				if !(m.bound > 0 && m.bound <= 0.25) {
					t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.name, m.bound)
				}
				if m.bound > widest.bound {
					widest = m
				}
			}
		}
	}
	if widest.name != "setup_s" {
		t.Errorf("setup_s must carry the widest bound; %s has %v", widest.name, widest.bound)
	}
	for _, w := range workloads {
		if !nameGrammar.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q", w.name)
		}
		seen[w.name] = true
		why := w.why + normalisedNote
		if len(why) > 200 || strings.ContainsAny(why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.name, len(why))
		}
	}
}

// TestContractIsCommitted keeps BENCHMARK.json the output of
// --contract, so the metric tables here are the one source of truth.
func TestContractIsCommitted(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeContract(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: bash perfbench/run.sh --contract > BENCHMARK.json")
	}
}

func TestDigest(t *testing.T) {
	type inner struct{ X []float64 }
	type outer struct {
		A int
		B *inner
		C string
	}
	d := func(v any) digest {
		h := newDigest()
		if err := h.add(v); err != nil {
			t.Fatal(err)
		}
		return h
	}
	base := outer{1, &inner{[]float64{1, 2}}, "x"}
	same := outer{1, &inner{[]float64{1, 2}}, "x"}
	if d(base) != d(same) {
		t.Error("equal values digest differently")
	}
	ulp := outer{1, &inner{[]float64{1, math.Nextafter(2, 3)}}, "x"}
	if d(base) == d(ulp) {
		t.Error("a one-ulp difference was not detected")
	}
	if d(outer{1, nil, "x"}) == d(outer{1, &inner{}, "x"}) {
		t.Error("nil and empty pointers digest alike")
	}
	h := newDigest()
	if err := h.add(map[int]int{1: 1}); err == nil {
		t.Error("a map (no deterministic order) was digested")
	}
}

func TestTracerSelfTimeAndChromeTrace(t *testing.T) {
	tr := newTracer()
	tr.op = 7
	root := tr.begin("op")
	a := tr.begin("a")
	tr.end(a)
	b := tr.begin("b")
	tr.end(b)
	tr.end(root)
	// Replace the measured clocks with known ones: op 10 s, a 3 s, b 4 s.
	for i, c := range [][2]float64{{0, 10}, {1, 4}, {5, 9}} {
		tr.spans[i].cpu0, tr.spans[i].cpu1 = c[0], c[1]
	}
	self := tr.self()
	if self[root] != 3 || self[a] != 3 || self[b] != 4 {
		t.Errorf("self times %v, want [3 3 4]", self)
	}
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Args     map[string]any
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans++
			if e.Args["op"] != float64(7) {
				t.Errorf("span %s: op id %v, want 7", e.Name, e.Args["op"])
			}
		}
	}
	if spans != 3 {
		t.Errorf("%d complete events, want 3", spans)
	}
}

// TestSmoke runs one op of every workload in both modes and checks
// that every listed metric is printed, with its unit, and no op failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full scale")
	}
	for _, w := range workloads {
		for _, mode := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+mode, func(t *testing.T) {
				var out bytes.Buffer
				spans := filepath.Join(t.TempDir(), "spans.json")
				args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0", "--trace", mode, "--trace-out", spans}
				if err := run(args, &out); err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				ms := endToEnd
				if mode == "1" {
					ms = perLayer
					b, err := os.ReadFile(spans)
					if err != nil || !json.Valid(b) || !bytes.Contains(b, []byte(`"traceEvents"`)) {
						t.Errorf("no Chrome-trace JSON at %s (%v)", spans, err)
					}
				}
				checkOutput(t, out.String(), ms)
			})
		}
	}
}

func checkOutput(t *testing.T, out string, ms []metric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
		t.Errorf("correct %v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(ms) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(ms))
	}
	rows := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		if m := rowPattern.FindStringSubmatch(sc.Text()); m != nil {
			rows[m[1]] = m[3]
		}
	}
	for _, m := range ms {
		got, ok := res.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			t.Errorf("result: metric %s = %+v, want unit %s", m.name, got, m.unit)
		}
		if rows[m.name] != m.unit {
			t.Errorf("printed rows: metric %s has unit %q, want %q", m.name, rows[m.name], m.unit)
		}
	}
	if _, ok := res.Metrics["trace.op_s"]; ok {
		sum := res.Metrics["farm.residual_s"].Value
		for _, k := range attributedLayers {
			sum += res.Metrics[k].Value
		}
		if op := res.Metrics["trace.op_s"].Value; math.Abs(sum-op) > 1e-9*op {
			t.Errorf("layers plus residual %v do not add up to the traced op %v", sum, op)
		}
	}
}
