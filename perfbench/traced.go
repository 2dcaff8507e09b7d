package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"diskpack/internal/core"
	"diskpack/internal/farm"
	"diskpack/internal/obs"
	"diskpack/internal/storage"
	"diskpack/internal/trace"
)

// The traced run. It is a separate run from the timed one: spans are
// recorded by the benchmark around its own calls into each layer (the
// program itself carries no spans), kept in memory, and written out
// at exit as Chrome-trace JSON that Perfetto opens next to
// `disksim -trace-out` output. Span times are process CPU seconds, the
// clock the timed run uses; wall offsets only place spans on the
// timeline.

// span is one timed call. All spans of one traced op share op.
type span struct {
	name         string
	op           int
	parent       int // index into tracer.spans; -1 for a root
	wall0, wall1 time.Duration
	cpu0, cpu1   float64
}

func (s *span) cpu() float64 { return s.cpu1 - s.cpu0 }

type tracer struct {
	t0    time.Time
	op    int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, wall0: time.Since(t.t0), cpu0: cpuSeconds()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i, which must be the innermost open span, and
// returns its CPU seconds.
func (t *tracer) end(i int) float64 {
	if top := t.open[len(t.open)-1]; top != i {
		panic(fmt.Sprintf("tracer: closing span %q while %q is open", t.spans[i].name, t.spans[top].name))
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.cpu1 = cpuSeconds()
	s.wall1 = time.Since(t.t0)
	return s.cpu()
}

// do runs fn inside a span and returns the span's CPU seconds.
func (t *tracer) do(name string, fn func() error) (float64, error) {
	i := t.begin(name)
	err := fn()
	d := t.end(i)
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// self returns each span's self time: its CPU seconds minus its
// children's.
func (t *tracer) self() []float64 {
	self := make([]float64, len(t.spans))
	for i := range t.spans {
		self[i] += t.spans[i].cpu()
		if p := t.spans[i].parent; p >= 0 {
			self[p] -= t.spans[i].cpu()
		}
	}
	return self
}

// writeChrome writes the spans as Chrome-trace complete events, one
// track, nested by time; args carry the op id and CPU figures.
func (t *tracer) writeChrome(w io.Writer, process string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": process}}}
	self := t.self()
	for i, s := range t.spans {
		parent := ""
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.wall0.Microseconds()),
			Dur: float64((s.wall1 - s.wall0).Microseconds()),
			Args: map[string]any{
				"op": s.op, "parent": parent,
				"cpu_ms": s.cpu() * 1e3, "self_cpu_ms": self[i] * 1e3,
			},
		})
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return err
	}
	return bw.Flush()
}

// layerTimes is one traced op split by layer. Times are CPU seconds;
// counts are per op.
type layerTimes struct {
	op                                    float64 // the traced op
	workload, core, storage, control      float64
	obsMetrics, obsTelemetry              float64
	obsTraceRecord, obsTraceRender        float64
	requests, items, events               float64
	fixedNsPerDisk, simNsPerEvent, pointS float64
	windows, actions, traceBytes          float64
}

// scaleTimes multiplies every time field by f (the reference-kernel
// normalisation); counts are left alone.
func (l layerTimes) scaleTimes(f float64) layerTimes {
	for _, p := range []*float64{&l.op, &l.workload, &l.core, &l.storage, &l.control, &l.obsMetrics,
		&l.obsTelemetry, &l.obsTraceRecord, &l.obsTraceRender, &l.fixedNsPerDisk, &l.simNsPerEvent, &l.pointS} {
		*p *= f
	}
	return l
}

// storageConfig is the storage.Config farm.Run derives for the plain
// specs the layer path replays: homogeneous farm, no reliability, a
// fixed or break-even threshold.
func storageConfig(spec farm.Spec, farmSize int, o *obs.RunObserver) (storage.Config, error) {
	cfg := storage.Config{NumDisks: farmSize, CacheBytes: spec.CacheBytes, WriteBestFit: spec.WriteBestFit, Obs: o}
	switch spec.Spin.Kind {
	case farm.SpinFixed:
		cfg.IdleThreshold = spec.Spin.Threshold
	case farm.SpinBreakEven:
		cfg.IdleThreshold = storage.BreakEven
	default:
		return cfg, fmt.Errorf("layer path replays fixed and break-even spin only, not %v", spec.Spin.Kind)
	}
	if len(spec.Groups) > 0 || spec.Reliability != nil {
		return cfg, fmt.Errorf("layer path replays homogeneous farms without reliability only")
	}
	return cfg, nil
}

func single(label string) storage.ParallelConfig {
	return storage.ParallelConfig{Workers: 1, Label: label}
}

// same checks that a traced run's result equals the timed ops' bit
// for bit.
func (r result) same(want digest) error {
	if r.digest != want {
		return fmt.Errorf("traced run's result differs from the timed ops'")
	}
	return nil
}

// sameSim checks that the layer path reproduced the op's simulation.
func sameSim(want *farm.Metrics, got *storage.Results, where string) error {
	dw, dg := newDigest(), newDigest()
	if err := dw.add(want.Sim); err != nil {
		return err
	}
	if err := dg.add(got); err != nil {
		return err
	}
	if dw != dg {
		return fmt.Errorf("%s: layer path (BuildTrace → allocation → storage.RunParallel) diverges from farm.Run", where)
	}
	return nil
}

// fixedNsPerDisk times storage.RunParallel on the farm with no
// requests and the given horizon, repeated inside one span until it
// has used 50 ms of CPU, and returns CPU ns per disk per run and the
// events one run fires.
func fixedNsPerDisk(t *tracer, files []trace.FileInfo, assign []int, cfg storage.Config, horizon float64) (ns, events float64, err error) {
	empty := &trace.Trace{Duration: horizon, Files: files}
	m := obs.NewRunMetrics(obs.NewRegistry(), farm.RespBuckets())
	cfg.Obs = &obs.RunObserver{Metrics: m}
	reps := 0
	d, err := t.do(fmt.Sprintf("storage.RunParallel[no requests, %gs]", horizon), func() error {
		for c0 := cpuSeconds(); reps == 0 || cpuSeconds()-c0 < 0.05; reps++ {
			if _, err := storage.RunParallel(empty, assign, cfg, single("no-requests")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return d / float64(reps) / float64(cfg.NumDisks) * 1e9, m.SimEvents.Value(), nil
}

// traceSweep: the op is farm.RunSweep driven point by point through
// its own seam (Compile, RunPoint, Assemble), then every point is
// replayed layer by layer.
func traceSweep(t *tracer, sweep farm.Sweep, seed int64, want digest) (layerTimes, error) {
	var lt layerTimes
	settle()
	root := t.begin("farm.RunSweep")
	var c *farm.CompiledSweep
	if _, err := t.do("farm.Compile", func() (err error) { c, err = farm.Compile(sweep, seed); return }); err != nil {
		return lt, err
	}
	results := make([]farm.ShardPointResult, c.NumPoints())
	var pointS []float64
	for i := range results {
		d, err := t.do("farm.RunPoint", func() (err error) { results[i], err = c.RunPoint(i); return })
		if err != nil {
			return lt, err
		}
		pointS = append(pointS, d)
	}
	var res *farm.SweepResult
	if _, err := t.do("farm.Assemble", func() (err error) { res, err = c.Assemble(results); return }); err != nil {
		return lt, err
	}
	lt.op = t.end(root)
	lt.pointS = median(pointS)
	if r, err := sweepResult(res); err != nil {
		return lt, err
	} else if err := r.same(want); err != nil {
		return lt, err
	}

	points, err := sweep.Points()
	if err != nil {
		return lt, err
	}
	settle()
	root = t.begin("layers")
	var lastFiles []trace.FileInfo
	var lastAssign []int
	var lastCfg storage.Config
	for i, p := range points {
		pseed := seed + p.SeedOffset
		var tr *trace.Trace
		d, err := t.do("workload.BuildTrace", func() (err error) { tr, err = farm.BuildTrace(p.Spec.Workload, pseed); return })
		if err != nil {
			return lt, err
		}
		lt.workload += d
		var a *core.Assignment
		var items []core.Item
		d, err = t.do("core.Items+PackDisksV", func() (err error) {
			if items, err = p.Spec.Items(tr); err != nil {
				return err
			}
			a, err = core.PackDisksV(items, p.Spec.Alloc.V)
			return err
		})
		if err != nil {
			return lt, err
		}
		lt.core += d
		m := obs.NewRunMetrics(obs.NewRegistry(), farm.RespBuckets())
		cfg, err := storageConfig(p.Spec, a.NumDisks, &obs.RunObserver{Metrics: m})
		if err != nil {
			return lt, err
		}
		var sim *storage.Results
		d, err = t.do("storage.RunParallel", func() (err error) { sim, err = storage.RunParallel(tr, a.DiskOf, cfg, single(p.Label)); return })
		if err != nil {
			return lt, err
		}
		lt.storage += d
		if err := sameSim(res.Points[i].Metrics, sim, p.Label); err != nil {
			return lt, err
		}
		lt.requests += float64(len(tr.Requests))
		lt.items += float64(len(items))
		lt.events += m.SimEvents.Value()
		lastFiles, lastAssign, lastCfg = tr.Files, a.DiskOf, cfg
	}
	t.end(root)
	lt.simNsPerEvent = lt.storage / lt.events * 1e9
	settle()
	lt.fixedNsPerDisk, _, err = fixedNsPerDisk(t, lastFiles, lastAssign, lastCfg, 1)
	return lt, err
}

// traceMillionDisk: the op is one farm.Run; the layer path replays it,
// and two no-request probes split the per-disk fixed cost from the
// idle timers.
func traceMillionDisk(t *tracer, spec farm.Spec, tr *trace.Trace, assign []int, seed int64, want digest) (layerTimes, error) {
	var lt layerTimes
	settle()
	var m *farm.Metrics
	var err error
	if lt.op, err = t.do("farm.Run", func() (err error) { m, err = farm.Run(spec, seed); return }); err != nil {
		return lt, err
	}
	lt.pointS = lt.op
	if r, err := runResult(m, 0, 0); err != nil {
		return lt, err
	} else if err := r.same(want); err != nil {
		return lt, err
	}

	settle()
	root := t.begin("layers")
	var built *trace.Trace
	if lt.workload, err = t.do("workload.BuildTrace", func() (err error) { built, err = farm.BuildTrace(spec.Workload, seed); return }); err != nil {
		return lt, err
	}
	// An explicit allocation makes no call into core.
	rm := obs.NewRunMetrics(obs.NewRegistry(), farm.RespBuckets())
	cfg, err := storageConfig(spec, spec.FarmSize, &obs.RunObserver{Metrics: rm})
	if err != nil {
		return lt, err
	}
	var sim *storage.Results
	if lt.storage, err = t.do("storage.RunParallel", func() (err error) { sim, err = storage.RunParallel(built, assign, cfg, single(spec.Name)); return }); err != nil {
		return lt, err
	}
	t.end(root)
	if err := sameSim(m, sim, spec.Name); err != nil {
		return lt, err
	}
	lt.requests = float64(len(tr.Requests))
	lt.events = rm.SimEvents.Value()

	settle()
	var fixedEvents float64
	if lt.fixedNsPerDisk, fixedEvents, err = fixedNsPerDisk(t, tr.Files, assign, cfg, 1); err != nil {
		return lt, err
	}
	settle()
	timersNs, timerEvents, err := fixedNsPerDisk(t, tr.Files, assign, cfg, mdHorizon)
	if err != nil {
		return lt, err
	}
	// The idle timers are what the 120 s no-request run adds over the
	// 1 s one: every disk arms one at t=0 and spins down at 53.3 s.
	lt.simNsPerEvent = (timersNs - lt.fixedNsPerDisk) * float64(cfg.NumDisks) / (timerEvents - fixedEvents)
	return lt, nil
}

// traceDiurnal: the op is control.RunSpec with its sinks (plus the
// trace rendering on diurnal-trace, timed as its own span). The layers
// inside RunSpec are timed as differences of runs that add one stage
// at a time: the open-loop farm.RunStream (storage, after subtracting
// the workload and core spans), the controller, then each sink alone.
func traceDiurnal(t *tracer, spec farm.Spec, seed int64, opSinks sinks, want digest) (layerTimes, error) {
	var lt layerTimes
	var err error
	settle()
	root := t.begin("op")
	var op *controlled
	if lt.pointS, err = t.do("control.RunSpec", func() (err error) { op, err = runControlled(spec, seed, opSinks); return }); err != nil {
		return lt, err
	}
	if opSinks.trace {
		var n int64
		if lt.obsTraceRender, err = t.do("obs.WriteChromeTrace", func() (err error) { n, err = renderTrace(op.rec); return }); err != nil {
			return lt, err
		}
		lt.traceBytes = float64(n)
	}
	lt.op = t.end(root)
	if r, err := controlledResult(op); err != nil {
		return lt, err
	} else if err := r.same(want); err != nil {
		return lt, err
	}

	settle()
	root = t.begin("layers")
	var tr *trace.Trace
	if lt.workload, err = t.do("workload.BuildTrace", func() (err error) { tr, err = farm.BuildTrace(spec.Workload, seed); return }); err != nil {
		return lt, err
	}
	var a *core.Assignment
	var items []core.Item
	if lt.core, err = t.do("core.Items+PackDisks", func() (err error) {
		if items, err = spec.Items(tr); err != nil {
			return err
		}
		a, err = core.PackDisks(items)
		return err
	}); err != nil {
		return lt, err
	}
	t.end(root)
	lt.requests, lt.items = float64(len(tr.Requests)), float64(len(items))

	open := spec
	open.Control = nil
	settle()
	stream, err := t.do("farm.RunStream[open loop]", func() error { _, err := farm.RunStream(open, seed, spec.Control.Epoch, nil); return err })
	if err != nil {
		return lt, err
	}
	lt.storage = stream - lt.workload - lt.core

	variant := func(name string, s sinks) (float64, *controlled, error) {
		settle()
		var c *controlled
		d, err := t.do(name, func() (err error) { c, err = runControlled(spec, seed, s); return })
		if err != nil {
			return 0, nil, err
		}
		r, err := controlledResult(c)
		if err == nil {
			err = r.same(want)
		}
		if err != nil {
			return 0, nil, fmt.Errorf("%s: %w", name, err)
		}
		return d, c, nil
	}
	bare, c, err := variant("control.RunSpec[bare]", sinks{})
	if err != nil {
		return lt, err
	}
	lt.control = bare - stream
	lt.windows, lt.actions = float64(len(c.res.Windows)), float64(len(c.res.Actions))
	withMetrics, c, err := variant("control.RunSpec[+metrics]", sinks{metrics: true})
	if err != nil {
		return lt, err
	}
	lt.obsMetrics = withMetrics - bare
	lt.events = c.metrics.SimEvents.Value()
	lt.simNsPerEvent = lt.storage / lt.events * 1e9
	withTel, _, err := variant("control.RunSpec[+telemetry]", sinks{telemetry: true})
	if err != nil {
		return lt, err
	}
	lt.obsTelemetry = withTel - bare
	if opSinks.trace {
		withRec, _, err := variant("control.RunSpec[+trace]", sinks{trace: true})
		if err != nil {
			return lt, err
		}
		lt.obsTraceRecord = withRec - bare
	}

	settle()
	cfg := storage.Config{NumDisks: a.NumDisks, IdleThreshold: storage.BreakEven}
	lt.fixedNsPerDisk, _, err = fixedNsPerDisk(t, tr.Files, a.DiskOf, cfg, 1)
	return lt, err
}
