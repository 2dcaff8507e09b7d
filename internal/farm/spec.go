// Package farm is the declarative scenario engine for the paper's
// trade-off grid. A Spec names every axis of one experiment point —
// farm layout (homogeneous or mixed drive groups), allocation strategy,
// spin-down policy, workload source, and optional front cache — and
// Run(spec, seed) compiles it into a simulation and returns one unified
// Metrics struct. Run is a pure function of (spec, seed): repeated runs
// are byte-identical, which is what lets the experiment harness fan
// thousands of points across workers and lets a regression test pin any
// scenario's output.
//
// Scenarios — named, documented Specs, optionally with a
// threshold-sweep stage — live in a registry (Register / Scenarios) so
// that the CLI, the experiment harness, and the examples all draw from
// the same catalogue. Adding a new experiment point to the grid is one
// registered Spec, not a new file of hand-wired setup.
//
// Grids of specs are first-class: a Sweep (see sweep.go) crosses a base
// Spec with declarative axes (spin threshold, farm size, cache, load
// constraint, group size, workload intensity, allocator, seed) and
// RunSweep fans the points across a bounded worker pool, with pluggable
// Selectors choosing the operating point. Specs and Sweeps serialize to
// JSON (see persist.go), so whole grids run without recompiling.
package farm

import (
	"fmt"
	"math"

	"diskpack/internal/disk"
	"diskpack/internal/trace"
	"diskpack/internal/workload"
)

// DiskGroup is a run of identical drives within a farm. Disks are
// numbered group by group: the first group's drives get the lowest IDs,
// which — because every allocator fills low-numbered disks first — makes
// the first group the "hot" tier of a heterogeneous farm.
type DiskGroup struct {
	Count  int
	Params disk.Params
}

// WorkloadKind selects the workload source of a Spec.
type WorkloadKind int

const (
	// WorkloadTrace replays a pre-built trace verbatim (the seed does
	// not affect it).
	WorkloadTrace WorkloadKind = iota
	// WorkloadSynthetic generates the paper's Table 1 workload
	// (optionally diurnally modulated via Synthetic.Diurnal).
	WorkloadSynthetic
	// WorkloadNERSC synthesizes the Section 5.1 NERSC-like log.
	WorkloadNERSC
	// WorkloadBursty generates ON/OFF Markov-modulated arrivals.
	WorkloadBursty
)

// WorkloadSpec is a declarative workload source. Exactly the field
// matching Kind must be set; Run overrides the config's Seed with its
// own seed argument so a Spec stays reusable across seeds.
type WorkloadSpec struct {
	Kind      WorkloadKind
	Trace     *trace.Trace        `json:",omitempty"`
	Synthetic *workload.Synthetic `json:",omitempty"`
	NERSC     *workload.NERSC     `json:",omitempty"`
	Bursty    *workload.Bursty    `json:",omitempty"`
}

// TraceWorkload wraps a pre-built trace as a workload source.
func TraceWorkload(tr *trace.Trace) WorkloadSpec {
	return WorkloadSpec{Kind: WorkloadTrace, Trace: tr}
}

// SyntheticWorkload wraps a Table 1-style generator config.
func SyntheticWorkload(cfg workload.Synthetic) WorkloadSpec {
	return WorkloadSpec{Kind: WorkloadSynthetic, Synthetic: &cfg}
}

// NERSCWorkload wraps a NERSC synthesizer config.
func NERSCWorkload(cfg workload.NERSC) WorkloadSpec {
	return WorkloadSpec{Kind: WorkloadNERSC, NERSC: &cfg}
}

// BurstyWorkload wraps an ON/OFF generator config.
func BurstyWorkload(cfg workload.Bursty) WorkloadSpec {
	return WorkloadSpec{Kind: WorkloadBursty, Bursty: &cfg}
}

// validate reports the first inconsistency.
func (w WorkloadSpec) validate() error {
	switch w.Kind {
	case WorkloadTrace:
		if w.Trace == nil {
			return fmt.Errorf("farm: trace workload without a trace")
		}
		return w.Trace.Validate()
	case WorkloadSynthetic:
		if w.Synthetic == nil {
			return fmt.Errorf("farm: synthetic workload without a config")
		}
		return w.Synthetic.Validate()
	case WorkloadNERSC:
		if w.NERSC == nil {
			return fmt.Errorf("farm: nersc workload without a config")
		}
		return w.NERSC.Validate()
	case WorkloadBursty:
		if w.Bursty == nil {
			return fmt.Errorf("farm: bursty workload without a config")
		}
		return w.Bursty.Validate()
	default:
		return fmt.Errorf("farm: unknown workload kind %d", int(w.Kind))
	}
}

// AllocKind selects the file→disk allocation strategy.
type AllocKind int

const (
	// AllocPack is the paper's Pack_Disks (Algorithm 3).
	AllocPack AllocKind = iota
	// AllocPackV is the Pack_Disks_v group round-robin variant.
	AllocPackV
	// AllocRandom is capacity-respecting random placement.
	AllocRandom
	// AllocFirstFit, AllocFirstFitDecreasing, AllocBestFit are the
	// classical bin-packing comparison allocators.
	AllocFirstFit
	AllocFirstFitDecreasing
	AllocBestFit
	// AllocChangHwangPark is the O(n²) algorithm Pack_Disks improves on.
	AllocChangHwangPark
	// AllocExplicit uses a caller-provided file→disk map verbatim.
	AllocExplicit
)

// AllocSpec parameterizes the allocation stage.
type AllocSpec struct {
	Kind AllocKind
	// CapL is the paper's load constraint L in (0, 1] — the fraction of
	// one disk's service capability a packing may load onto it. Ignored
	// by AllocExplicit.
	CapL float64 `json:",omitempty"`
	// V is the group size for AllocPackV (>= 1).
	V int `json:",omitempty"`
	// Disks is the farm size for AllocRandom (0 = size of the Pack_Disks
	// packing of the same items, the paper's convention).
	Disks int `json:",omitempty"`
	// Assign is the explicit file→disk map for AllocExplicit.
	Assign []int `json:",omitempty"`
}

// Explicit wraps a precomputed assignment.
func Explicit(assign []int) AllocSpec { return AllocSpec{Kind: AllocExplicit, Assign: assign} }

// Packed returns the paper's default allocation at load constraint L.
func Packed(capL float64) AllocSpec { return AllocSpec{Kind: AllocPack, CapL: capL} }

// validate reports the first inconsistency.
func (a AllocSpec) validate() error {
	switch a.Kind {
	case AllocExplicit:
		if a.Assign == nil {
			return fmt.Errorf("farm: explicit allocation without an assignment")
		}
		return nil
	case AllocPack, AllocPackV, AllocRandom, AllocFirstFit,
		AllocFirstFitDecreasing, AllocBestFit, AllocChangHwangPark:
		if !(a.CapL > 0 && a.CapL <= 1) || math.IsNaN(a.CapL) {
			return fmt.Errorf("farm: load constraint %v outside (0,1]", a.CapL)
		}
		if a.Kind == AllocPackV && a.V < 1 {
			return fmt.Errorf("farm: pack group size %d must be >= 1", a.V)
		}
		if a.Disks < 0 {
			return fmt.Errorf("farm: negative random farm size %d", a.Disks)
		}
		return nil
	default:
		return fmt.Errorf("farm: unknown allocation kind %d", int(a.Kind))
	}
}

// SpinKind selects the spin-down policy family.
type SpinKind int

const (
	// SpinBreakEven uses each drive's break-even idleness threshold
	// (the paper's policy; 53.3 s for the Table 2 drive).
	SpinBreakEven SpinKind = iota
	// SpinFixed uses a constant threshold (SpinSpec.Threshold seconds).
	SpinFixed
	// SpinNever disables spin-down (the "no power-saving" baseline).
	SpinNever
	// SpinImmediate spins down the moment the queue drains.
	SpinImmediate
	// SpinAdaptive doubles/halves the threshold from observed gaps.
	SpinAdaptive
	// SpinRandomized draws each timeout from the e/(e−1)-competitive
	// distribution.
	SpinRandomized
	// SpinTailAware is a threshold an online controller retunes while
	// the simulation runs (one shared knob per disk group, actuated at
	// epoch boundaries — see RunStream and internal/control). Without a
	// controller it behaves as a fixed threshold at SpinSpec.Threshold,
	// or the drive's break-even time when Threshold is zero.
	SpinTailAware
	// SpinCycleBudget is a fixed threshold (SpinSpec.Threshold seconds,
	// or the drive's break-even time when zero) capped at
	// SpinSpec.CycleBudget spin-downs per disk-day: once a disk exhausts
	// its continuously refilling cycle budget it stays spinning,
	// trading energy for start/stop drive lifetime
	// (policy.CycleBudget).
	SpinCycleBudget
)

// SpinSpec parameterizes the spin-down policy.
type SpinSpec struct {
	Kind SpinKind
	// Threshold is the fixed idleness threshold in seconds (SpinFixed
	// only).
	Threshold float64 `json:",omitempty"`
	// CycleBudget is the allowed spin-downs per disk-day
	// (SpinCycleBudget only, > 0).
	CycleBudget float64 `json:",omitempty"`
}

// FixedSpin returns a constant-threshold policy spec.
func FixedSpin(seconds float64) SpinSpec { return SpinSpec{Kind: SpinFixed, Threshold: seconds} }

// CycleCapSpin returns a cycle-capped policy spec: threshold seconds
// (0 = break-even) capped at perDay spin-downs per disk-day.
func CycleCapSpin(seconds, perDay float64) SpinSpec {
	return SpinSpec{Kind: SpinCycleBudget, Threshold: seconds, CycleBudget: perDay}
}

// parameterized reports whether the kind reads SpinSpec.Threshold;
// every other kind takes no parameter.
func (k SpinKind) parameterized() bool {
	return k == SpinFixed || k == SpinTailAware || k == SpinCycleBudget
}

// validate reports the first inconsistency.
func (s SpinSpec) validate() error {
	switch {
	case !spinKinds.has(s.Kind):
		return fmt.Errorf("farm: unknown spin kind %d", int(s.Kind))
	case !s.Kind.parameterized() && s.Threshold != 0:
		return fmt.Errorf("farm: spin threshold %v set but policy is %v", s.Threshold, s.Kind)
	case s.Threshold < 0 || math.IsNaN(s.Threshold):
		return fmt.Errorf("farm: invalid %v spin threshold %v", s.Kind, s.Threshold)
	case s.Kind == SpinCycleBudget:
		if !(s.CycleBudget > 0) || math.IsNaN(s.CycleBudget) || math.IsInf(s.CycleBudget, 0) {
			return fmt.Errorf("farm: cycle budget %v must be positive", s.CycleBudget)
		}
	case s.CycleBudget != 0:
		return fmt.Errorf("farm: cycle budget %v set but policy is %v", s.CycleBudget, s.Kind)
	}
	return nil
}

// ControlSpec asks for a closed-loop run: the simulation is windowed
// into Epoch-length telemetry snapshots and the named controller
// (resolved by internal/control through the factory registered with
// RegisterController) observes each window and actuates — retuning
// SpinTailAware group thresholds, re-planning the allocation against
// the observed arrival rate, or re-placing files by the rates measured
// over the window. It is pure data, so controlled
// specs serialize, sweep, shard, and coordinate exactly like static
// ones; controllers themselves are deterministic, keeping
// Run(spec, seed) a pure function.
type ControlSpec struct {
	// Controller names the controller kind ("tail-budget",
	// "rate-respec", "reorg-full", ...; internal/control owns the
	// vocabulary).
	Controller string
	// Epoch is the telemetry window length in seconds.
	Epoch float64
	// BudgetP95 is the response-time budget in seconds the tail-budget
	// controller defends (0 = the controller's default).
	BudgetP95 float64 `json:",omitempty"`
	// RespecFactor is the observed/planned rate ratio beyond which the
	// rate-respec controller re-plans the allocation (0 = default).
	RespecFactor float64 `json:",omitempty"`
	// Alpha is the rate-respec controller's EWMA weight in (0, 1]
	// (0 = default).
	Alpha float64 `json:",omitempty"`
	// CycleBudget caps the tail-budget controller's spin-down spending
	// at this many cycles per disk-day (0 = unlimited): the controller
	// observes each group's cumulative spin-downs from the windows and
	// only raises thresholds once a group runs ahead of its budget —
	// still a deterministic pure function of spec+seed.
	CycleBudget float64 `json:",omitempty"`
}

// validate reports the first inconsistency.
func (c ControlSpec) validate() error {
	switch {
	case c.Controller == "":
		return fmt.Errorf("farm: control spec without a controller name")
	case !(c.Epoch > 0) || math.IsNaN(c.Epoch):
		return fmt.Errorf("farm: control epoch %v must be positive", c.Epoch)
	case c.BudgetP95 < 0 || math.IsNaN(c.BudgetP95):
		return fmt.Errorf("farm: invalid control budget %v", c.BudgetP95)
	case c.RespecFactor != 0 && (c.RespecFactor <= 1 || math.IsNaN(c.RespecFactor)):
		return fmt.Errorf("farm: respec factor %v must exceed 1 (or 0 for the default)", c.RespecFactor)
	case c.Alpha < 0 || c.Alpha > 1 || math.IsNaN(c.Alpha):
		return fmt.Errorf("farm: EWMA weight %v outside [0,1]", c.Alpha)
	case c.CycleBudget < 0 || math.IsNaN(c.CycleBudget) || math.IsInf(c.CycleBudget, 0):
		return fmt.Errorf("farm: invalid control cycle budget %v", c.CycleBudget)
	}
	return nil
}

// ReliabilitySpec enables wear-driven disk failures and rebuild
// traffic (storage.ReliabilityConfig): disks accumulate hazard from
// start/stop cycles and powered-on hours, failures are detected at
// CheckEvery boundaries, and each failure injects rebuild streams on
// the failed disk's redundancy group. Pure data, so reliability specs
// serialize, sweep, shard, and coordinate like everything else.
type ReliabilitySpec struct {
	// GroupSize is the redundancy-group width (consecutive disk IDs,
	// >= 2).
	GroupSize int
	// RebuildBytes fixes the reconstructed volume per failure; 0
	// derives it from the failed disk's used capacity.
	RebuildBytes int64 `json:",omitempty"`
	// CheckEvery is the failure-check period in simulated seconds
	// (0 = 3600).
	CheckEvery float64 `json:",omitempty"`
	// Wear overrides the spin-cycle wear model (nil = the reference
	// drive's: 50,000 rated cycles, 0.34% base AFR). Scenarios that
	// want failures within a short simulated horizon use accelerated
	// wear (small RatedCycles).
	Wear *disk.WearParams `json:",omitempty"`
}

// validate reports the first inconsistency.
func (r ReliabilitySpec) validate() error {
	if r.GroupSize < 2 {
		return fmt.Errorf("farm: reliability group size %d must be >= 2", r.GroupSize)
	}
	if r.RebuildBytes < 0 {
		return fmt.Errorf("farm: negative rebuild volume %d", r.RebuildBytes)
	}
	if r.CheckEvery < 0 || math.IsNaN(r.CheckEvery) || math.IsInf(r.CheckEvery, 0) {
		return fmt.Errorf("farm: invalid reliability check period %v", r.CheckEvery)
	}
	if r.Wear != nil {
		return r.Wear.Validate()
	}
	return nil
}

// Spec declares one simulation scenario. The zero value is not valid;
// at minimum Workload must be set (the other stages have usable
// defaults: Pack at L=0.7 would not be a safe silent default, so Alloc
// must carry a CapL for the packing kinds — see AllocSpec).
type Spec struct {
	// Name labels the run in Metrics and error messages.
	Name string `json:",omitempty"`
	// Groups lays out a heterogeneous farm. Empty means a homogeneous
	// farm of DefaultParams drives sized to max(FarmSize, disks the
	// allocation uses).
	Groups []DiskGroup `json:",omitempty"`
	// FarmSize forces a minimum homogeneous farm size (the paper
	// charges both algorithms for the full 100- or 96-disk farm).
	// Must be zero when Groups is set — group counts fix the size.
	FarmSize int `json:",omitempty"`
	// Workload is the request source.
	Workload WorkloadSpec
	// Alloc is the allocation strategy.
	Alloc AllocSpec
	// Spin is the spin-down policy.
	Spin SpinSpec
	// CacheBytes enables a front LRU cache when positive.
	CacheBytes int64 `json:",omitempty"`
	// WriteBestFit switches write placement from first-fit to best-fit
	// among spinning disks.
	WriteBestFit bool `json:",omitempty"`
	// Control, when non-nil, runs the scenario closed-loop: windowed
	// telemetry feeds the named online controller (internal/control),
	// which actuates at epoch boundaries. Run executes such specs like
	// any other, windowed, with the sink the registered factory
	// returns for the controller.
	Control *ControlSpec `json:",omitempty"`
	// Reliability, when non-nil, adds wear-driven disk failures and
	// rebuild traffic to the run.
	Reliability *ReliabilitySpec `json:",omitempty"`
}

// Validate reports the first invalid field.
func (s Spec) Validate() error {
	if err := s.Workload.validate(); err != nil {
		return err
	}
	if err := s.Alloc.validate(); err != nil {
		return err
	}
	if err := s.Spin.validate(); err != nil {
		return err
	}
	for i, g := range s.Groups {
		if g.Count <= 0 {
			return fmt.Errorf("farm: group %d has count %d", i, g.Count)
		}
		if err := g.Params.Validate(); err != nil {
			return fmt.Errorf("farm: group %d: %w", i, err)
		}
	}
	if len(s.Groups) > 0 && s.FarmSize != 0 {
		return fmt.Errorf("farm: FarmSize %d set alongside Groups (group counts fix the size)", s.FarmSize)
	}
	if s.FarmSize < 0 {
		return fmt.Errorf("farm: negative farm size %d", s.FarmSize)
	}
	if s.CacheBytes < 0 {
		return fmt.Errorf("farm: negative cache size %d", s.CacheBytes)
	}
	if s.Control != nil {
		if err := s.Control.validate(); err != nil {
			return err
		}
	}
	if s.Reliability != nil {
		if err := s.Reliability.validate(); err != nil {
			return err
		}
	}
	return nil
}

// groupTotal returns the summed group counts.
func (s Spec) groupTotal() int {
	n := 0
	for _, g := range s.Groups {
		n += g.Count
	}
	return n
}

// ReferenceParams returns the drive model used to normalize packing
// items. Homogeneous farms use their (default) drive. Heterogeneous
// farms normalize conservatively, taking each worst-case field
// independently — the smallest capacity, the slowest transfer rate,
// and the longest seek and rotation times across the groups — so the
// reference service time is an upper bound for every drive and no
// drive in any group can be overfilled by the allocation.
func (s Spec) ReferenceParams() disk.Params {
	if len(s.Groups) == 0 {
		return disk.DefaultParams()
	}
	ref := s.Groups[0].Params
	for _, g := range s.Groups[1:] {
		if g.Params.CapacityBytes < ref.CapacityBytes {
			ref.CapacityBytes = g.Params.CapacityBytes
		}
		if g.Params.TransferRate < ref.TransferRate {
			ref.TransferRate = g.Params.TransferRate
		}
		if g.Params.AvgSeekTime > ref.AvgSeekTime {
			ref.AvgSeekTime = g.Params.AvgSeekTime
		}
		if g.Params.AvgRotationTime > ref.AvgRotationTime {
			ref.AvgRotationTime = g.Params.AvgRotationTime
		}
	}
	return ref
}

// layout expands Groups into per-disk drive parameters and a
// disk→group map, both nil for a homogeneous farm (every disk a
// default drive in group 0).
func (s Spec) layout() (perDisk []disk.Params, groupOf []int) {
	if len(s.Groups) == 0 {
		return nil, nil
	}
	n := s.groupTotal()
	perDisk, groupOf = make([]disk.Params, 0, n), make([]int, 0, n)
	for g, grp := range s.Groups {
		for range grp.Count {
			perDisk = append(perDisk, grp.Params)
			groupOf = append(groupOf, g)
		}
	}
	return perDisk, groupOf
}
