package main

import (
	"fmt"
	"math/rand"

	"diskpack/internal/control"
	"diskpack/internal/disk"
	"diskpack/internal/farm"
	"diskpack/internal/obs"
	"diskpack/internal/trace"
	wgen "diskpack/internal/workload"
)

// A workload is one set of inputs the benchmark runs. Every op calls
// the entry point a user of the repository calls (farm.RunSweep,
// farm.Run, control.RunSpec with obs sinks), single-threaded: sweeps
// run with one worker and farm.SimWorkers stays at its default of 1.
// NOTES.md records why each workload exists and what it stresses.
type workload struct {
	name string
	why  string
	// tracedReps is how many times the traced run repeats its layer
	// measurements; per-layer values are medians over them.
	tracedReps int
	// setup builds the op's inputs from the seed.
	setup func(seed int64) (*instance, error)
}

// instance is a workload set up for one seed.
type instance struct {
	// op runs one op through the public entry point.
	op func() (result, error)
	// requests returns the trace's request count per simulation, the
	// conservation check's expected Completed + Unfinished. It may
	// build the trace, so it runs outside every timed window.
	requests func() (int64, error)
	// obsCheck, when set, re-runs the op with no obs sinks attached and
	// returns that run's digest: sinks must not change results.
	obsCheck func() (digest, error)
	// traced runs one traced op, recording spans into t, and checks
	// its results against the timed ops' digest.
	traced func(t *tracer, want digest) (layerTimes, error)
}

// result is what one op produced, reduced to what the checks compare.
type result struct {
	digest digest
	// runs holds every simulation's metrics (one per sweep point).
	runs []*farm.Metrics
	// chosen is the op's answer: the sweep's selected point, or the run.
	chosen           *farm.Metrics
	windows, actions int
}

var workloads = []*workload{nerscSweep, millionDisk, diurnalControl, diurnalTrace}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// fig56Hours is the spin-down threshold grid of the paper's Figures 5
// and 6, in hours.
var fig56Hours = []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.0}

// nerscP95Budget is the sweep's selector budget: the min-energy point
// with p95 response within 20 s lands mid-grid (0.35–0.75 h on seeds
// 1–3), so the selector has points on both sides of it.
const nerscP95Budget = 20

func nerscSweepDecl() farm.Sweep {
	th := make([]float64, len(fig56Hours))
	for i, h := range fig56Hours {
		th[i] = h * 3600
	}
	return farm.Sweep{
		Name: "nersc-sweep",
		Base: farm.Spec{
			Name:       "nersc-sweep",
			Workload:   farm.NERSCWorkload(wgen.DefaultNERSC(0)),
			Alloc:      farm.AllocSpec{Kind: farm.AllocPackV, CapL: 0.8, V: 4},
			Spin:       farm.SpinSpec{Kind: farm.SpinBreakEven}, // every point overrides it
			CacheBytes: 16 * disk.GB,
		},
		Axes:   []farm.Axis{{Kind: farm.AxisSpinThreshold, Values: th}},
		Select: farm.Selector{Kind: farm.SelectMinEnergySLO, MaxP95: nerscP95Budget},
	}
}

var nerscSweep = &workload{
	name:       "nersc-sweep",
	why:        "Figures 5-6 at paper scale: 9-threshold sweep re-synthesising and re-packing the NERSC trace per point; workload, core and storage carry it",
	tracedReps: 1,
	setup: func(seed int64) (*instance, error) {
		sweep := nerscSweepDecl()
		return &instance{
			op: func() (result, error) {
				res, err := farm.RunSweep(sweep, seed, 1)
				if err != nil {
					return result{}, err
				}
				return sweepResult(res)
			},
			// The threshold axis has no seed step, so every point
			// replays the base workload at the sweep seed.
			requests: traceRequests(sweep.Base.Workload, seed),
			traced: func(t *tracer, want digest) (layerTimes, error) {
				return traceSweep(t, sweep, seed, want)
			},
		}, nil
	},
}

// sweepResult digests every point's metrics plus the selector's verdict.
func sweepResult(res *farm.SweepResult) (result, error) {
	r := result{digest: newDigest()}
	for i := range res.Points {
		m := res.Points[i].Metrics
		if err := r.digest.add(m); err != nil {
			return result{}, err
		}
		r.runs = append(r.runs, m)
	}
	if res.Best < 0 {
		return result{}, fmt.Errorf("sweep %s: no threshold meets the p95 budget", res.Sweep.Name)
	}
	r.chosen = res.Points[res.Best].Metrics
	if err := r.digest.add([]any{res.Best, res.Front}); err != nil {
		return result{}, err
	}
	return r, nil
}

func runResult(m *farm.Metrics, windows, actions int) (result, error) {
	r := result{digest: newDigest(), runs: []*farm.Metrics{m}, chosen: m, windows: windows, actions: actions}
	if err := r.digest.add([]any{m, windows, actions}); err != nil {
		return result{}, err
	}
	return r, nil
}

// traceRequests returns a lazy request count for the workload at seed.
func traceRequests(w farm.WorkloadSpec, seed int64) func() (int64, error) {
	var n int64 = -1
	return func() (int64, error) {
		if n >= 0 {
			return n, nil
		}
		tr, err := farm.BuildTrace(w, seed)
		if err != nil {
			return 0, err
		}
		n = int64(len(tr.Requests))
		return n, nil
	}
}

// The million-disk farm: the ROADMAP scale target, shaped like
// millionDiskSetup in the repository's bench_test.go.
const (
	mdDisks    = 1 << 20
	mdFiles    = 1 << 17 // one file on every 8th disk
	mdRequests = 100_000
	mdHorizon  = 120.0 // seconds: past break-even (53.3 s) plus the spin-up tail
)

// millionDiskInputs builds the trace and file→disk map from the seed.
func millionDiskInputs(seed int64) (*trace.Trace, []int) {
	tr := &trace.Trace{Duration: mdHorizon}
	tr.Files = make([]trace.FileInfo, mdFiles)
	assign := make([]int, mdFiles)
	for i := range tr.Files {
		tr.Files[i] = trace.FileInfo{ID: i, Size: 64 * disk.MB, Rate: 0.01}
		assign[i] = i * (mdDisks / mdFiles)
	}
	rng := rand.New(rand.NewSource(seed))
	tr.Requests = make([]trace.Request, mdRequests)
	for r := range tr.Requests {
		tr.Requests[r] = trace.Request{Time: mdHorizon * float64(r) / mdRequests, FileID: rng.Intn(mdFiles)}
	}
	return tr, assign
}

var millionDisk = &workload{
	name:       "million-disk",
	why:        "2^20 disks, 10^5 requests over 120 s at break-even: per-disk construction, idle timers and metrics assembly dominate",
	tracedReps: 3,
	setup: func(seed int64) (*instance, error) {
		tr, assign := millionDiskInputs(seed)
		spec := farm.Spec{
			Name:     "million-disk",
			FarmSize: mdDisks,
			Workload: farm.TraceWorkload(tr),
			Alloc:    farm.Explicit(assign),
			Spin:     farm.SpinSpec{Kind: farm.SpinBreakEven},
		}
		return &instance{
			op: func() (result, error) {
				m, err := farm.Run(spec, seed)
				if err != nil {
					return result{}, err
				}
				return runResult(m, 0, 0)
			},
			requests: func() (int64, error) { return int64(len(tr.Requests)), nil },
			traced: func(t *tracer, want digest) (layerTimes, error) {
				return traceMillionDisk(t, spec, tr, assign, seed, want)
			},
		}, nil
	},
}

// sinks selects which obs sinks a controlled run attaches.
type sinks struct{ metrics, telemetry, trace bool }

// countingWriter counts bytes and discards them, standing in for the
// files -telemetry-out and -trace-out write. It has no Close, so the
// telemetry writer does not try to close it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// controlled is one control.RunSpec with the chosen sinks attached as
// disksim's -metrics-addr, -telemetry-out and -trace-out attach them.
type controlled struct {
	res     *control.Result
	rec     *obs.TraceRecorder // nil unless the trace sink was attached
	metrics *obs.RunMetrics
}

func runControlled(spec farm.Spec, seed int64, s sinks) (*controlled, error) {
	out := &controlled{}
	o := &obs.RunObserver{}
	if s.metrics {
		out.metrics = obs.NewRunMetrics(obs.NewRegistry(), farm.RespBuckets())
		o.Metrics = out.metrics
	}
	var tw *obs.TelemetryWriter
	if s.telemetry {
		tw = obs.NewTelemetryWriter(&countingWriter{})
		o.Telemetry = tw
		if err := tw.WriteHeader(obs.TelemetryHeader{
			Spec:           spec.Name,
			Seed:           seed,
			Epoch:          spec.Control.Epoch,
			IdleGapBuckets: farm.IdleGapBuckets(),
			RespBuckets:    farm.RespBuckets(),
		}); err != nil {
			return nil, err
		}
	}
	if s.trace {
		out.rec = obs.NewTraceRecorder()
		o.Trace = out.rec
	}
	if s.metrics || s.telemetry || s.trace {
		prev := farm.SetRunObserver(o)
		defer farm.SetRunObserver(prev)
	}
	res, err := control.RunSpec(spec, seed)
	if err != nil {
		return nil, err
	}
	if err := tw.Close(); err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	out.res = res
	return out, nil
}

// renderTrace renders the recorded timeline as -trace-out does, into
// a byte counter, and returns the byte count.
func renderTrace(rec *obs.TraceRecorder) (int64, error) {
	var c countingWriter
	if err := rec.WriteChromeTrace(&c); err != nil {
		return 0, err
	}
	return c.n, nil
}

func controlledResult(c *controlled) (result, error) {
	return runResult(c.res.Metrics, len(c.res.Windows), len(c.res.Actions))
}

// diurnalSpec is the registered controlled-diurnal scenario.
func diurnalSpec() (farm.Spec, error) {
	sc, ok := farm.Lookup("controlled-diurnal")
	if !ok {
		return farm.Spec{}, fmt.Errorf("scenario controlled-diurnal is not registered")
	}
	return sc.Spec, nil
}

// diurnalWorkload builds the controlled-diurnal workload with the
// given sinks on every op; withTrace also renders the trace.
func diurnalWorkload(name, why string, withTrace bool, reps int) *workload {
	opSinks := sinks{metrics: true, telemetry: true, trace: withTrace}
	return &workload{
		name:       name,
		why:        why,
		tracedReps: reps,
		setup: func(seed int64) (*instance, error) {
			spec, err := diurnalSpec()
			if err != nil {
				return nil, err
			}
			return &instance{
				op: func() (result, error) {
					c, err := runControlled(spec, seed, opSinks)
					if err != nil {
						return result{}, err
					}
					if withTrace {
						if _, err := renderTrace(c.rec); err != nil {
							return result{}, err
						}
					}
					return controlledResult(c)
				},
				requests: traceRequests(spec.Workload, seed),
				obsCheck: func() (digest, error) {
					c, err := runControlled(spec, seed, sinks{})
					if err != nil {
						return 0, err
					}
					r, err := controlledResult(c)
					return r.digest, err
				},
				traced: func(t *tracer, want digest) (layerTimes, error) {
					return traceDiurnal(t, spec, seed, opSinks, want)
				},
			}, nil
		},
	}
}

var diurnalControl = diurnalWorkload("diurnal-control",
	"controlled-diurnal via control.RunSpec (~692k requests, 18 disks, 192 windows) with metrics and telemetry sinks: windowed storage and the control loop carry it",
	false, 3)

var diurnalTrace = diurnalWorkload("diurnal-trace",
	"diurnal-control plus the per-disk trace recorder rendered as Chrome-trace JSON: the obs sink does most of the work",
	true, 3)
