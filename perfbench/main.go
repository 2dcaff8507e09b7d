// Command perfbench is the repository's benchmark. It runs one
// workload single-threaded through the entry points users call
// (farm.RunSweep, farm.Run, control.RunSpec with obs sinks), checks
// every op's output, and prints every metric by name and unit, ending
// with one JSON line:
//
//	bash perfbench/run.sh --workload nersc-sweep --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics (CPU seconds per op and per
// set-up, heap allocated per op, peak RSS); --trace 1 is a separate
// run that also times each layer from the benchmark's own spans and
// writes them as Chrome-trace JSON. --repeat N runs the workload N
// times in fresh processes and prints each metric's median, quartiles
// and spread. --contract prints BENCHMARK.json. NOTES.md explains the
// workloads and how host time is measured.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// setupReps is how many times a timed run sets up; setup_s is the
// median.
const setupReps = 3

type options struct {
	workload *workload
	seed     int64
	seconds  float64
	traced   bool
	traceOut string
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (nersc-sweep, million-disk, diurnal-control, diurnal-trace)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", runSeconds, "seconds to keep starting timed ops (at least one op runs)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	traceOut := fs.String("trace-out", "", "Chrome-trace JSON file for --trace 1 (default .bench_build/perfbench/WORKLOAD-seedN.trace.json)")
	repeat := fs.Int("repeat", 0, "run the workload N times, each in a fresh process with seeds seed..seed+N-1, and print each metric's spread")
	contract := fs.Bool("contract", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *contract {
		return writeContract(stdout)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace is 0 or 1, not %d", *trace)
	}
	if *seconds < 0 || math.IsNaN(*seconds) {
		return fmt.Errorf("--seconds %v must be non-negative", *seconds)
	}
	if *repeat < 0 || (*repeat > 0 && *trace != 0) {
		return fmt.Errorf("--repeat N (N >= 1) repeats --trace 0 runs")
	}
	if *repeat > 0 {
		return repeatRuns(stdout, w, *seed, *seconds, *repeat)
	}
	o := options{workload: w, seed: *seed, seconds: *seconds, traced: *trace == 1, traceOut: *traceOut}
	if o.traced && o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-seed%d.trace.json", w.name, *seed))
	}
	return measureRun(stdout, o)
}

// verdict counts ops and their failures. Every op execution counts:
// warm-ups, timed ops, check runs and traced ops.
type verdict struct {
	attempted, failed int
}

func (v *verdict) op(err error) {
	v.attempted++
	if err != nil {
		v.failed++
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
	}
}

// checkOp applies the output checks to one op's result: it must equal
// the reference result bit for bit, and every simulation must account
// for every request as completed or unfinished.
func checkOp(inst *instance, want digest, res result, err error) error {
	if err != nil {
		return err
	}
	if res.digest != want {
		return fmt.Errorf("result differs from the warm-up op's")
	}
	n, err := inst.requests()
	if err != nil {
		return err
	}
	for i, m := range res.runs {
		if got := m.Completed + m.Unfinished; got != n {
			return fmt.Errorf("simulation %d: completed %d + unfinished %d = %d, trace has %d requests", i, m.Completed, m.Unfinished, got, n)
		}
	}
	return nil
}

// ops is the timed section's samples.
type ops struct {
	samples []sample
	stealS  float64
	last    result
}

func (o ops) median(f func(sample) float64) float64 {
	xs := make([]float64, len(o.samples))
	for i, s := range o.samples {
		xs[i] = f(s)
	}
	return median(xs)
}

func (o ops) mean(f func(sample) float64) float64 {
	var sum float64
	for _, s := range o.samples {
		sum += f(s)
	}
	return sum / float64(len(o.samples))
}

func measureRun(out io.Writer, o options) error {
	w := o.workload
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g traced=%v\n", w.name, o.seed, o.seconds, o.traced)
	var v verdict

	// Set-up: building inputs plus one untimed warm-up op, the cold
	// first result a CLI user waits for. The warm-up's result is the
	// reference every later op must reproduce.
	reps := setupReps
	if o.traced {
		reps = 1
	}
	var setups []sample
	var inst *instance
	var want digest
	for i := range reps {
		var res result
		var err error
		s := measure(func() {
			if inst, err = w.setup(o.seed); err == nil {
				res, err = inst.op()
			}
		})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if i == 0 {
			want = res.digest
		}
		v.op(checkOp(inst, want, res, nil))
		setups = append(setups, s)
	}
	if inst.obsCheck != nil {
		d, err := inst.obsCheck()
		if err == nil && d != want {
			err = fmt.Errorf("the run without obs sinks differs from the run with them")
		}
		v.op(err)
	}

	// Timed ops, each from a settled heap beside a reference-kernel run.
	var t ops
	steal0 := stealSeconds()
	start := time.Now()
	for len(t.samples) == 0 || time.Since(start).Seconds() < o.seconds {
		var res result
		var opErr error
		s := measure(func() { res, opErr = inst.op() })
		v.op(checkOp(inst, want, res, opErr))
		if opErr == nil {
			t.last = res
		}
		t.samples = append(t.samples, s)
	}
	t.stealS = stealSeconds() - steal0
	bracket(timeRef(), setups, t.samples)
	rss, err := peakRSSBytes()
	if err != nil {
		return err
	}

	var metrics map[string]float64
	if o.traced {
		if metrics, err = tracedRun(out, o, inst, want, &v, t); err != nil {
			return err
		}
	} else {
		setupS, setupCPU := make([]float64, len(setups)), make([]float64, len(setups))
		for i, s := range setups {
			setupS[i], setupCPU[i] = s.norm(), s.cpuS
		}
		metrics = map[string]float64{
			"setup_s":         median(setupS),
			"op_s_p50":        t.median(sample.norm),
			"alloc_mb_per_op": t.mean(func(s sample) float64 { return float64(s.allocBytes) }) / 1e6,
			"peak_rss_mb":     float64(rss) / 1e6,
		}
		printRows(out, endToEnd, metrics)
		fmt.Fprintf(out, "# %d set-ups, %d timed ops; times are CPU seconds / reference kernel × %g s. Raw (not gated):\n",
			len(setups), len(t.samples), refNominalS)
		row(out, "setup_s.cpu", median(setupCPU), "s", "raw CPU seconds")
		row(out, "op_s_p50.cpu", t.median(func(s sample) float64 { return s.cpuS }), "s", "raw CPU seconds")
		fmt.Fprintln(out, "# noise report (not gated):")
		printNoise(out, t)
	}
	return writeResult(out, v, metrics, o.traced)
}

// printNoise prints the figures that explain a noisy run.
func printNoise(out io.Writer, t ops) {
	row(out, "host.wall_s_p50", t.median(func(s sample) float64 { return s.wallS }), "s", "wall seconds per op")
	row(out, "host.ref_s", t.median(func(s sample) float64 { return s.refS }), "s", "reference kernel CPU seconds")
	row(out, "host.steal_s", t.stealS, "s", "hypervisor steal during the timed ops, all CPUs")
	row(out, "runtime.page_faults_per_op", t.mean(func(s sample) float64 { return float64(s.faults) }), "count", "")
	fmt.Fprint(out, "# per op: cpu_s/ref_s")
	for _, s := range t.samples {
		fmt.Fprintf(out, " %.3f/%.3f", s.cpuS, s.refS)
	}
	fmt.Fprintln(out)
}

func row(out io.Writer, name string, v float64, unit, note string) {
	fmt.Fprintf(out, "%-28s %16.9g %-6s %s\n", name, v, unit, note)
}

func printRows(out io.Writer, ms []metric, values map[string]float64) {
	for _, m := range ms {
		row(out, m.name, values[m.name], m.unit, "")
	}
}

// writeResult prints the contract's last line: correctness, op counts
// and the mode's metrics with their units.
func writeResult(out io.Writer, v verdict, values map[string]float64, traced bool) error {
	ms := endToEnd
	if traced {
		ms = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{v.failed == 0, v.attempted, v.failed, map[string]value{}}
	for _, m := range ms {
		x, ok := values[m.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("metric %s has no finite value (%v)", m.name, x)
		}
		res.Metrics[m.name] = value{x, m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// tracedRun runs the traced ops after the timed section, prints the
// per-layer metrics and the span self-time table, and writes the
// spans as Chrome-trace JSON.
func tracedRun(out io.Writer, o options, inst *instance, want digest, v *verdict, t ops) (map[string]float64, error) {
	w := o.workload
	tr := newTracer()
	var runs []map[string]float64
	refs := []float64{timeRef()}
	for r := range w.tracedReps {
		tr.op = r
		lt, err := inst.traced(tr, want)
		v.op(err)
		// Each traced op is normalised like a timed one, by the
		// reference runs before and after it.
		refs = append(refs, timeRef())
		if err == nil {
			runs = append(runs, layerMetrics(lt.scaleTimes(refNominalS/((refs[r]+refs[r+1])/2))))
		}
	}
	if len(runs) == 0 {
		return nil, errors.New("every traced op failed")
	}
	m := map[string]float64{}
	for k := range runs[0] {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = r[k]
		}
		m[k] = median(xs)
	}
	// The residual is what the op took beyond its layers' medians, so
	// the printed layers add up to the traced op time exactly.
	m["farm.residual_s"] = m["trace.op_s"]
	for _, k := range attributedLayers {
		m["farm.residual_s"] -= m[k]
	}

	chosen := t.last.chosen
	if chosen == nil {
		return nil, errors.New("every timed op failed")
	}
	m["cache.hit_ratio"] = chosen.CacheHitRatio
	m["disk.spin_ups"] = float64(chosen.SpinUps)
	m["model.power_saving"] = chosen.PowerSavingRatio
	m["model.resp_p95_s"] = chosen.RespP95
	m["runtime.allocs_per_op"] = t.mean(func(s sample) float64 { return float64(s.mallocs) })
	m["runtime.gc_cycles_per_op"] = t.mean(func(s sample) float64 { return float64(s.gcCycles) })
	m["runtime.page_faults_per_op"] = t.mean(func(s sample) float64 { return float64(s.faults) })
	m["host.wall_s_p50"] = t.median(func(s sample) float64 { return s.wallS })
	m["host.ref_s"] = t.median(func(s sample) float64 { return s.refS })
	m["host.steal_s"] = t.stealS
	m["trace.overhead_share"] = m["trace.op_s"] / t.median(sample.norm)

	printRows(out, perLayer, m)
	fmt.Fprintf(out, "# trace.op_s %.6f s = %s + farm.residual_s %.6f s\n", m["trace.op_s"], joinLayers(m, attributedLayers), m["farm.residual_s"])
	printSelfTimes(out, tr)
	if err := os.MkdirAll(filepath.Dir(o.traceOut), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(o.traceOut)
	if err != nil {
		return nil, err
	}
	err = tr.writeChrome(f, "perfbench "+w.name)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("writing %s: %w", o.traceOut, err)
	}
	fmt.Fprintf(out, "# wrote %s (%d spans; open in https://ui.perfetto.dev)\n", o.traceOut, len(tr.spans))
	return m, nil
}

func joinLayers(m map[string]float64, layers []string) string {
	s := ""
	for i, k := range layers {
		if i > 0 {
			s += " + "
		}
		s += fmt.Sprintf("%s %.6f", k, m[k])
	}
	return s
}

// attributedLayers are the per-layer times that, with
// farm.residual_s, add up to trace.op_s.
var attributedLayers = []string{"workload.build_s", "core.pack_s", "storage.run_s", "control.overhead_s",
	"obs.metrics_s", "obs.telemetry_s", "obs.trace_record_s", "obs.trace_render_s"}

// layerMetrics turns one traced op into the per-layer metrics it
// measures directly.
func layerMetrics(l layerTimes) map[string]float64 {
	per := func(t, n float64) float64 {
		if n == 0 {
			return 0
		}
		return t / n * 1e9
	}
	return map[string]float64{
		"trace.op_s":                l.op,
		"workload.build_s":          l.workload,
		"workload.ns_per_request":   per(l.workload, l.requests),
		"core.pack_s":               l.core,
		"core.ns_per_item":          per(l.core, l.items),
		"storage.run_s":             l.storage,
		"storage.ns_per_request":    per(l.storage, l.requests),
		"storage.fixed_ns_per_disk": l.fixedNsPerDisk,
		"sim.events":                l.events,
		"sim.ns_per_event":          l.simNsPerEvent,
		"farm.point_s_p50":          l.pointS,
		"control.overhead_s":        l.control,
		"control.windows":           l.windows,
		"control.actions":           l.actions,
		"obs.metrics_s":             l.obsMetrics,
		"obs.telemetry_s":           l.obsTelemetry,
		"obs.trace_record_s":        l.obsTraceRecord,
		"obs.trace_render_s":        l.obsTraceRender,
		"obs.trace_mb":              l.traceBytes / 1e6,
	}
}

// printSelfTimes prints each span name's count, total and self CPU
// seconds across the traced ops.
func printSelfTimes(out io.Writer, tr *tracer) {
	type agg struct {
		n           int
		total, self float64
	}
	by := map[string]*agg{}
	var names []string
	self := tr.self()
	for i, s := range tr.spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
			names = append(names, s.name)
		}
		a.n++
		a.total += s.cpu()
		a.self += self[i]
	}
	sort.Strings(names)
	fmt.Fprintln(out, "# spans (CPU seconds, raw):")
	for _, name := range names {
		a := by[name]
		fmt.Fprintf(out, "#   %-44s n=%-3d total %10.6f  self %10.6f\n", name, a.n, a.total, a.self)
	}
}
