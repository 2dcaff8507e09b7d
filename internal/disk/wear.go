package disk

import (
	"fmt"
	"math"
	"math/rand"
)

// Spin-cycle wear model. The paper's energy/response trade-off is
// silent about the third axis: every spin-down/spin-up cycle consumes
// part of the drive's rated start/stop life, and powered-on hours
// consume the rest. This file models that as a deterministic hazard
// process so reliability is — like everything else in the simulator —
// a pure function of (spec, seed).
//
// The hazard of a disk after c start/stop cycles and h powered-on
// hours is
//
//	H(c, h) = h·hb + c·(CycleWear/RatedCycles)
//
// where hb = −ln(1−BaseAFR)/8760 is the hourly base hazard implied by
// the drive's spec-sheet annual failure rate. A disk fails when its
// accumulated hazard crosses an Exp(1)-distributed threshold drawn
// from a per-disk seeded stream (inverse-transform sampling of an
// inhomogeneous Poisson process). The draw is fixed at construction,
// so whether and when a disk fails depends only on its own trajectory
// — never on shard layout or worker count.

// WearParams parameterizes the spin-cycle wear model of a drive.
type WearParams struct {
	// RatedCycles is the drive's rated start/stop cycle count
	// (50,000 for the reference Seagate drive).
	RatedCycles float64
	// BaseAFR is the annual failure rate of a drive that spins 24/7
	// and never cycles — the spec-sheet AFR (0.34% for the reference
	// drive).
	BaseAFR float64
	// CycleWear is the cumulative hazard consumed by RatedCycles
	// start/stop cycles. At the default 1.0, a drive that spends its
	// whole rated cycle life has survival probability e^−1 ≈ 37%
	// from cycling alone.
	CycleWear float64
}

// DefaultWear returns the wear model of the reference drive
// (Seagate ST3500630AS): 50,000 rated start/stop cycles, 0.34%
// spec-sheet AFR.
func DefaultWear() WearParams {
	return WearParams{RatedCycles: 50000, BaseAFR: 0.0034, CycleWear: 1.0}
}

// normalized fills zero fields with the reference-drive defaults.
func (w WearParams) normalized() WearParams {
	d := DefaultWear()
	if w.RatedCycles == 0 {
		w.RatedCycles = d.RatedCycles
	}
	if w.BaseAFR == 0 {
		w.BaseAFR = d.BaseAFR
	}
	if w.CycleWear == 0 {
		w.CycleWear = d.CycleWear
	}
	return w
}

// Validate rejects non-physical wear parameters. Zero fields are
// allowed (they mean "use the reference-drive default").
func (w WearParams) Validate() error {
	if w.RatedCycles < 0 || math.IsNaN(w.RatedCycles) || math.IsInf(w.RatedCycles, 0) {
		return fmt.Errorf("disk: rated cycles %v must be positive", w.RatedCycles)
	}
	if w.BaseAFR < 0 || w.BaseAFR >= 1 || math.IsNaN(w.BaseAFR) {
		return fmt.Errorf("disk: base AFR %v must be in [0, 1)", w.BaseAFR)
	}
	if w.CycleWear < 0 || math.IsNaN(w.CycleWear) || math.IsInf(w.CycleWear, 0) {
		return fmt.Errorf("disk: cycle wear %v must be non-negative", w.CycleWear)
	}
	return nil
}

// BaseHazardPerHour is the hourly hazard implied by BaseAFR.
func (w WearParams) BaseHazardPerHour() float64 {
	w = w.normalized()
	return -math.Log(1-w.BaseAFR) / 8760
}

// CycleHazard is the hazard one start/stop cycle consumes.
func (w WearParams) CycleHazard() float64 {
	w = w.normalized()
	return w.CycleWear / w.RatedCycles
}

// Hazard is the cumulative hazard of a disk after cycles start/stop
// cycles and poweredHours powered-on (non-standby) hours.
func (w WearParams) Hazard(cycles, poweredHours float64) float64 {
	return w.Rates().Hazard(cycles, poweredHours)
}

// AFR extrapolates an observed duty profile — start/stop cycles per
// day and powered-on fraction — to the modeled annual failure rate:
// 1 − exp(−H(365·cyclesPerDay, 8760·poweredFrac)). This is the
// smooth, deterministic figure sweeps and selectors compare; the
// sampled failure process realizes the same hazard.
func (w WearParams) AFR(cyclesPerDay, poweredFrac float64) float64 {
	return w.Rates().AFR(cyclesPerDay, poweredFrac)
}

// WearRates holds a wear model's hourly base hazard and per-cycle
// hazard, derived once, for callers that evaluate the model on every
// disk of a farm.
type WearRates struct {
	perHour, perCycle float64
}

// Rates derives w's two hazard rates.
func (w WearParams) Rates() WearRates {
	return WearRates{perHour: w.BaseHazardPerHour(), perCycle: w.CycleHazard()}
}

// Hazard is WearParams.Hazard on the derived rates.
func (r WearRates) Hazard(cycles, poweredHours float64) float64 {
	return poweredHours*r.perHour + cycles*r.perCycle
}

// AFR is WearParams.AFR on the derived rates.
func (r WearRates) AFR(cyclesPerDay, poweredFrac float64) float64 {
	h := r.Hazard(cyclesPerDay*365, poweredFrac*8760)
	return 1 - math.Exp(-h)
}

// FailureProcess is one disk's sampled failure clock: an Exp(1)
// threshold the disk's accumulated hazard races against. The stream
// is seeded per (seed, disk), so the realization is a pure function
// of the run inputs and independent of shard layout.
type FailureProcess struct {
	rng  *rand.Rand
	base float64 // hazard already consumed by replaced drives
	next float64 // Exp(1) threshold of the current drive
}

// NewFailureProcess seeds disk diskID's failure clock.
func NewFailureProcess(seed int64, diskID int) *FailureProcess {
	const golden = int64(-0x61C8864680B583EB) // 2^64 / φ as a signed constant
	mixed := seed + int64(diskID+1)*golden
	f := &FailureProcess{rng: rand.New(rand.NewSource(mixed))}
	f.next = f.rng.ExpFloat64()
	return f
}

// Crossed reports whether the drive has failed by the time its
// cumulative hazard reaches hazard.
func (f *FailureProcess) Crossed(hazard float64) bool {
	return hazard-f.base >= f.next
}

// Replace models swapping in a fresh replacement drive at the given
// cumulative hazard: the consumed hazard is written off and a new
// Exp(1) threshold is drawn for the new spindle.
func (f *FailureProcess) Replace(hazard float64) {
	f.base = hazard
	f.next = f.rng.ExpFloat64()
}
