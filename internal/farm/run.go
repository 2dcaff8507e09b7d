package farm

import (
	"fmt"
	"math/rand"

	"diskpack/internal/core"
	"diskpack/internal/disk"
	"diskpack/internal/obs"
	"diskpack/internal/policy"
	"diskpack/internal/storage"
	"diskpack/internal/trace"
)

// Metrics is the unified result of one scenario run: the power and
// response-time quantities the paper trades off, the packing-quality
// numbers of Theorem 1, and per-disk utilization. Sim retains the full
// storage.Results (per-disk breakdowns, write accounting) for callers
// that need more.
type Metrics struct {
	Spec string // Spec.Name
	Seed int64

	// Farm shape.
	FarmSize  int // simulated disks, including never-used ones
	DisksUsed int // disks the allocation actually populated
	// Packing quality (zero for AllocExplicit, which has no items).
	LowerBound int
	Rho        float64

	// Energy and power.
	Duration         float64
	Energy           float64 // joules
	AvgPower         float64 // watts
	NoSavingEnergy   float64 // joules, spin-down disabled baseline
	PowerSavingRatio float64 // 1 − Energy/NoSavingEnergy

	// Response-time distribution, seconds.
	RespMean, RespMedian, RespP95, RespP99, RespMax float64

	// Request and activity counts.
	Completed, Unfinished int64
	SpinUps, SpinDowns    int
	AvgStandbyDisks       float64
	CacheHitRatio         float64

	// Reliability. Failures, DataLossEvents, Rebuilds, RebuildTime
	// (seconds spent rebuilding), and RebuildBytes are nonzero only for
	// specs with Reliability set; CyclesPerDay (farm-average start/stop
	// cycles per disk-day) and AFR (the wear model's annual failure
	// rate, extrapolated from the observed duty cycle) are modeled for
	// every run so sweeps can select under a durability budget.
	Failures       int
	DataLossEvents int
	Rebuilds       int
	RebuildTime    float64
	CyclesPerDay   float64
	AFR            float64

	// Utilization[i] is disk i's busy fraction (seek + transfer time
	// over the horizon).
	Utilization []float64

	Sim *storage.Results
}

// BuildTrace materializes the spec's workload. Generated workloads use
// the given seed in place of the config's; a pre-built trace is
// returned as-is.
func BuildTrace(w WorkloadSpec, seed int64) (*trace.Trace, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	if g := w.generator(seed); g != nil {
		return g.Build()
	}
	return w.Trace, nil
}

// buildFiles is BuildTrace without the requests: a trace holding only
// the workload's file population, which is all the allocation stage
// reads. A pre-built trace is returned as-is.
func buildFiles(w WorkloadSpec, seed int64) (*trace.Trace, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	g := w.generator(seed)
	if g == nil {
		return w.Trace, nil
	}
	files, err := g.Files()
	if err != nil {
		return nil, err
	}
	return &trace.Trace{Files: files}, nil
}

// generator is a workload config that synthesizes a trace.
type generator interface {
	Build() (*trace.Trace, error)
	Files() ([]trace.FileInfo, error)
}

// generator returns the validated spec's config reseeded at seed, or
// nil for a pre-built trace.
func (w WorkloadSpec) generator(seed int64) generator {
	switch w.Kind {
	case WorkloadSynthetic:
		cfg := *w.Synthetic
		cfg.Seed = seed
		return cfg
	case WorkloadNERSC:
		cfg := *w.NERSC
		cfg.Seed = seed
		return cfg
	case WorkloadBursty:
		cfg := *w.Bursty
		cfg.Seed = seed
		return cfg
	}
	return nil
}

// Items converts a trace's file population into packing items
// normalized against the spec's reference drive and the alloc spec's
// load constraint.
func (s Spec) Items(tr *trace.Trace) ([]core.Item, error) {
	ref := s.ReferenceParams()
	sizes := make([]int64, len(tr.Files))
	rates := make([]float64, len(tr.Files))
	for i, f := range tr.Files {
		sizes[i] = f.Size
		rates[i] = f.Rate
	}
	return core.BuildItems(sizes, rates, ref.ServiceTime, ref.CapacityBytes, s.Alloc.CapL)
}

// Allocation is the output of the allocation stage: the file→disk map
// plus the packing-quality numbers of Theorem 1 (zero for
// AllocExplicit, which has no items).
type Allocation struct {
	Assign     []int
	DisksUsed  int
	LowerBound int
	Rho        float64
	// Bound is the Theorem 1 guarantee evaluated on the instance (+Inf
	// at rho = 1).
	Bound float64
}

// Plan runs only the allocation stage of a spec, over the workload's
// file population — no requests are synthesized and nothing is
// simulated. Use it to size a shared farm across a sweep of specs
// before the real runs; like Run it is a pure function of (spec, seed),
// and its allocation is the one Run simulates.
func Plan(spec Spec, seed int64) (*Allocation, error) {
	return plan(spec, seed, pointStages{})
}

// plan is Plan, drawing the stage outputs from the given source.
func plan(spec Spec, seed int64, from pointStages) (*Allocation, error) {
	_, alloc, err := prepare(spec, seed, from, buildFiles)
	if err != nil {
		return nil, err
	}
	from.release()
	return alloc, nil
}

// allocate runs the spec's allocation strategy over the trace's files.
func (s Spec) allocate(tr *trace.Trace, seed int64) (*Allocation, error) {
	if s.Alloc.Kind == AllocExplicit {
		used := 0
		for _, d := range s.Alloc.Assign {
			if d+1 > used {
				used = d + 1
			}
		}
		return &Allocation{Assign: s.Alloc.Assign, DisksUsed: used}, nil
	}
	items, err := s.Items(tr)
	if err != nil {
		return nil, err
	}
	var a *core.Assignment
	switch s.Alloc.Kind {
	case AllocPack:
		a, err = core.PackDisks(items)
	case AllocPackV:
		a, err = core.PackDisksV(items, s.Alloc.V)
	case AllocRandom:
		n := s.Alloc.Disks
		if n == 0 {
			ref, err2 := core.PackDisks(items)
			if err2 != nil {
				return nil, err2
			}
			n = ref.NumDisks
		}
		a, err = core.RandomAssignCapacity(items, n, rand.New(rand.NewSource(seed)))
	case AllocFirstFit:
		a, err = core.FirstFit(items)
	case AllocFirstFitDecreasing:
		a, err = core.FirstFitDecreasing(items)
	case AllocBestFit:
		a, err = core.BestFit(items)
	case AllocChangHwangPark:
		a, err = core.ChangHwangPark(items)
	default:
		return nil, fmt.Errorf("farm: unknown allocation kind %d", int(s.Alloc.Kind))
	}
	if err != nil {
		return nil, err
	}
	return &Allocation{
		Assign:     a.DiskOf,
		DisksUsed:  a.NumDisks,
		LowerBound: core.LowerBoundDisks(items),
		Rho:        core.Rho(items),
		Bound:      core.ApproxBound(items),
	}, nil
}

// spinConfig maps the spin spec onto storage.Config fields. perDisk is
// the heterogeneous parameter slice and groupOf its disk→group map
// (both nil for homogeneous farms); adaptive and randomized policies
// are centred on each disk's own break-even time. SpinTailAware farms
// share one policy.Tunable per disk group, returned as tuners, so one
// Set moves the whole group; a knob nobody retunes is a fixed threshold
// at its initial value. Every other kind returns nil tuners.
func (s Spec) spinConfig(perDisk []disk.Params, seed int64, groupOf []int) (threshold float64, factory func(int) disk.SpinPolicy, tuners []*policy.Tunable, err error) {
	paramsAt := func(i int) disk.Params {
		if len(perDisk) > 0 {
			return perDisk[i]
		}
		return disk.DefaultParams()
	}
	switch s.Spin.Kind {
	case SpinBreakEven:
		return storage.BreakEven, nil, nil, nil
	case SpinFixed:
		return s.Spin.Threshold, nil, nil, nil
	case SpinNever:
		return disk.NeverSpinDown, nil, nil, nil
	case SpinImmediate:
		return 0, nil, nil, nil
	case SpinAdaptive:
		return 0, func(i int) disk.SpinPolicy { return policy.NewAdaptive(paramsAt(i)) }, nil, nil
	case SpinRandomized:
		return 0, func(i int) disk.SpinPolicy { return policy.NewRandomized(paramsAt(i), seed+int64(i)) }, nil, nil
	case SpinTailAware:
		for _, p := range GroupParams(s) {
			tuners = append(tuners, policy.NewTunable(p, s.Spin.Threshold))
		}
		return 0, func(i int) disk.SpinPolicy {
			if groupOf == nil {
				return tuners[0]
			}
			return tuners[groupOf[i]]
		}, tuners, nil
	case SpinCycleBudget:
		return 0, func(i int) disk.SpinPolicy {
			return policy.NewCycleBudget(paramsAt(i), s.Spin.Threshold, s.Spin.CycleBudget)
		}, nil, nil
	default:
		return 0, nil, nil, fmt.Errorf("farm: unknown spin kind %d", int(s.Spin.Kind))
	}
}

// reliabilityConfig maps the spec's reliability stage onto the
// storage config: the failure clocks are seeded at seed+3, after the
// trace (seed), allocation (seed+1), and spin policies (seed+2).
func (s Spec) reliabilityConfig(seed int64) *storage.ReliabilityConfig {
	if s.Reliability == nil {
		return nil
	}
	rc := &storage.ReliabilityConfig{
		GroupSize:    s.Reliability.GroupSize,
		RebuildBytes: s.Reliability.RebuildBytes,
		CheckEvery:   s.Reliability.CheckEvery,
		Seed:         seed + 3,
	}
	if s.Reliability.Wear != nil {
		rc.Wear = *s.Reliability.Wear
	}
	return rc
}

// resolveFarmSize settles the simulated farm size against the
// allocation and the spec's layout.
func resolveFarmSize(spec Spec, alloc *Allocation) (int, error) {
	farmSize := alloc.DisksUsed
	if len(spec.Groups) > 0 {
		farmSize = spec.groupTotal()
		if alloc.DisksUsed > farmSize {
			return 0, fmt.Errorf("farm %s: allocation uses %d disks but groups provide only %d",
				spec.Name, alloc.DisksUsed, farmSize)
		}
	} else if spec.FarmSize > farmSize {
		farmSize = spec.FarmSize
	}
	if farmSize < 1 {
		farmSize = 1
	}
	return farmSize, nil
}

// assembleMetrics folds a simulation result into the unified Metrics.
func assembleMetrics(spec Spec, seed int64, farmSize int, alloc *Allocation, res *storage.Results) *Metrics {
	m := &Metrics{
		Spec:             spec.Name,
		Seed:             seed,
		FarmSize:         farmSize,
		DisksUsed:        alloc.DisksUsed,
		LowerBound:       alloc.LowerBound,
		Rho:              alloc.Rho,
		Duration:         res.Duration,
		Energy:           res.Energy,
		AvgPower:         res.AvgPower,
		NoSavingEnergy:   res.NoSavingEnergy,
		PowerSavingRatio: res.PowerSavingRatio,
		RespMean:         res.RespMean,
		RespMedian:       res.RespMedian,
		RespP95:          res.RespP95,
		RespP99:          res.RespP99,
		RespMax:          res.RespMax,
		Completed:        res.Completed,
		Unfinished:       res.Unfinished,
		SpinUps:          res.SpinUps,
		SpinDowns:        res.SpinDowns,
		AvgStandbyDisks:  res.AvgStandbyDisks,
		CacheHitRatio:    res.CacheHitRatio,
		Failures:         res.Failures,
		DataLossEvents:   res.DataLossEvents,
		Rebuilds:         res.Rebuilds,
		RebuildTime:      res.RebuildTime,
		CyclesPerDay:     res.CyclesPerDay,
		AFR:              res.AFR,
		Utilization:      make([]float64, farmSize),
		Sim:              res,
	}
	if res.Duration > 0 {
		for i, b := range res.PerDisk {
			m.Utilization[i] = (b.Durations[disk.Seeking] + b.Durations[disk.Transferring]) / res.Duration
		}
	}
	return m
}

// buildController turns a controlled spec (Spec.Control != nil) into
// the window sink its controller runs as. The farm engine cannot
// depend on internal/control — control sits above it — so control
// registers the factory here at init time. A controlled run is the
// stripped spec run windowed with that sink, through the same body as
// every other run, so sweeps, shards and the coordinator execute
// controlled specs unchanged.
var buildController func(Spec) (StreamSink, error)

// RegisterController installs the factory of controlled specs' window
// sinks (called by internal/control's init).
func RegisterController(fn func(Spec) (StreamSink, error)) { buildController = fn }

// Run compiles the spec into a simulation and executes it. It is a pure
// function of (spec, seed): the same inputs always produce identical
// Metrics. A controlled spec (Spec.Control != nil) runs windowed at its
// epoch under the sink internal/control builds for its controller;
// everything else runs open-loop.
func Run(spec Spec, seed int64) (*Metrics, error) {
	return run(spec, seed, pointStages{}, runObserver.Load())
}

// run is Run, drawing the spec's stage outputs from the given source
// and publishing to o (nil: unobserved).
func run(spec Spec, seed int64, from pointStages, o *obs.RunObserver) (*Metrics, error) {
	cs := spec.Control
	if cs == nil {
		return simulate(spec, seed, from, o, 0, nil)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if buildController == nil {
		return nil, fmt.Errorf("farm %s: spec asks for controller %q but no controller is registered (import internal/control)",
			spec.Name, cs.Controller)
	}
	sink, err := buildController(spec)
	if err != nil {
		return nil, err
	}
	spec.Control = nil
	return simulate(spec, seed, from, o, cs.Epoch, sink)
}

// simulate is the one simulation body under Run, RunStream,
// CompiledSweep.RunPoint, controlled specs and Actuator.WhatIf: it
// prepares the stages, sizes the farm, wires the spin policies, runs
// the storage kernel and assembles Metrics. A nil sink runs open-loop;
// otherwise the run is windowed every epoch seconds and sink sees each
// window with an Actuator. The run publishes to o (nil: unobserved),
// which the public entry read, so a what-if replay nested inside an
// observed run publishes nothing into that run's sinks.
func simulate(spec Spec, seed int64, from pointStages, o *obs.RunObserver, epoch float64, sink StreamSink) (*Metrics, error) {
	tr, alloc, err := prepare(spec, seed, from, BuildTrace)
	if err != nil {
		return nil, err
	}
	defer from.release()
	farmSize, err := resolveFarmSize(spec, alloc)
	if err != nil {
		return nil, err
	}
	perDisk, groupOf := spec.layout()
	threshold, factory, tuners, err := spec.spinConfig(perDisk, seed+2, groupOf)
	if err != nil {
		return nil, err
	}
	cfg := storage.Config{
		NumDisks:      farmSize,
		PerDisk:       perDisk,
		IdleThreshold: threshold,
		PolicyFactory: factory,
		CacheBytes:    spec.CacheBytes,
		WriteBestFit:  spec.WriteBestFit,
		Reliability:   spec.reliabilityConfig(seed),
		Obs:           o,
	}
	par := storage.ParallelConfig{Workers: SimWorkers(), Label: spec.Name}
	var res *storage.Results
	if sink == nil {
		res, err = storage.RunParallel(tr, alloc.Assign, cfg, par)
	} else {
		act := &Actuator{tuners: tuners, live: spec, tr: tr, farm: farmSize, seed: seed, o: o}
		res, err = storage.RunStreamParallel(tr, alloc.Assign, cfg, storage.StreamConfig{
			Epoch:   epoch,
			GroupOf: groupOf,
			OnWindow: func(w *Window, ctl *storage.RunControl) error {
				act.ctl = ctl
				for g := range w.Groups {
					if t, ok := act.GroupThreshold(g); ok {
						w.Groups[g].Threshold = t
					}
				}
				return sink(w, act)
			},
		}, par)
	}
	if err != nil {
		return nil, fmt.Errorf("farm %s: simulation: %w", spec.Name, err)
	}
	return assembleMetrics(spec, seed, farmSize, alloc, res), nil
}
