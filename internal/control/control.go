// Package control is the decide half of the online control plane: it
// closes the observe→decide→actuate loop inside a running simulation.
// The paper evaluates its power/response trade-off offline — sweep a
// static spin-down threshold, pick the point whose p95 stays under the
// SLO — which is the wrong answer half the day under drifting load.
// Controllers here consume the windowed telemetry farm.RunStream emits
// and actuate at epoch boundaries:
//
//   - TailBudget (after TimeTrader, arXiv:1503.05338) retunes each
//     disk group's spin-down threshold against the remaining p95
//     budget: windows that breach the budget buy latency back by
//     spinning down later; windows with slack spend it on energy by
//     spinning down sooner.
//   - RateRespec (after online adaptive storage management,
//     arXiv:1703.02591) tracks the observed arrival rate with an EWMA
//     and, when it drifts from the rate the live allocation was
//     planned for, rewrites the workload field of the live spec,
//     re-plans the packing at the observed rate, and migrates the
//     difference — consolidating onto fewer spindles when load falls,
//     spreading out before the tail degrades when it rises.
//   - Reorg is the paper's semi-dynamic mode (Section 1): at every
//     window boundary it measures each file's rate over the window just
//     closed and re-places files by it — a full repack (reorg-full),
//     the Section 6 rule that migrates only rate-deviant files
//     (reorg-incremental), or whichever of keep, incremental and full
//     a what-if replay of the window scores cheapest (reorg-adaptive).
//
// Controllers are deterministic functions of what they observe,
// so a controlled run stays a pure function of (spec, seed,
// controller): byte-identical across repeats, worker counts, shards,
// and coordinator pools. At init the package registers with farm a
// factory that turns a controlled spec (farm.Spec with Control set)
// into its controller's window sink, so farm runs the spec through the
// same body as an open-loop one, and every executor — Run, sweeps,
// shards, and the work-stealing coordinator — takes it unchanged.
package control

import (
	"fmt"
	"math"
	"strings"

	"diskpack/internal/disk"
	"diskpack/internal/farm"
	"diskpack/internal/policy"
)

// Kind enumerates the built-in controllers.
type Kind int

const (
	// KindTailBudget retunes spin thresholds against the p95 budget.
	KindTailBudget Kind = iota
	// KindRateRespec re-plans the allocation against the observed rate.
	KindRateRespec
	// KindReorgFull repacks every file at its measured rate each
	// window.
	KindReorgFull
	// KindReorgIncremental migrates only files whose measured rate
	// deviates from the placement-time estimate (the paper's Section
	// 6).
	KindReorgIncremental
	// KindReorgAdaptive adopts, each window, the cheapest of keeping
	// the allocation, the incremental move and the full repack.
	KindReorgAdaptive
)

var kindNames = map[Kind]string{
	KindTailBudget:       "tail-budget",
	KindRateRespec:       "rate-respec",
	KindReorgFull:        "reorg-full",
	KindReorgIncremental: "reorg-incremental",
	KindReorgAdaptive:    "reorg-adaptive",
}

// String names the kind — the vocabulary of farm.ControlSpec.Controller
// and the -control flag.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("ControllerKind(%d)", int(k))
}

// Kinds lists the controller vocabulary in a stable order.
func Kinds() []Kind {
	return []Kind{KindTailBudget, KindRateRespec, KindReorgFull, KindReorgIncremental, KindReorgAdaptive}
}

// KindList spells the vocabulary for messages: "tail-budget,
// rate-respec, ...".
func KindList() string {
	names := make([]string, 0, len(Kinds()))
	for _, k := range Kinds() {
		names = append(names, k.String())
	}
	return strings.Join(names, ", ")
}

// ParseKind resolves a controller name.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("control: unknown controller %q (have %s)", s, KindList())
}

// ActionKind enumerates what a controller can ask the actuator to do.
type ActionKind int

const (
	// ActionSetThreshold retunes one group's spin-down threshold.
	ActionSetThreshold ActionKind = iota
	// ActionRespec rewrites the live spec's workload rate and re-plans
	// the allocation against it, migrating the difference.
	ActionRespec
	// ActionRealloc swaps in a file→disk map the controller proposes,
	// migrating the difference.
	ActionRealloc
)

// String names the action kind.
func (k ActionKind) String() string {
	switch k {
	case ActionSetThreshold:
		return "set-threshold"
	case ActionRespec:
		return "respec"
	case ActionRealloc:
		return "realloc"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is one actuation a controller requests at an epoch boundary.
type Action struct {
	Kind ActionKind
	// Group targets one disk group (ActionSetThreshold).
	Group int `json:",omitempty"`
	// Threshold is the new spin-down threshold in seconds
	// (ActionSetThreshold; the actuator clamps it).
	Threshold float64 `json:",omitempty"`
	// Rate is the newly planned workload rate in requests per second
	// (ActionRespec).
	Rate float64 `json:",omitempty"`
	// Assign is the proposed file→disk map (ActionRealloc; nil proposes
	// nothing). The action log records what moved, not the map.
	Assign []int `json:"-"`
	// Plan names where an ActionRealloc map came from ("keep",
	// "incremental", "full-repack"), or why there is none; the log's
	// Note carries it.
	Plan string `json:"-"`
}

// Controller observes one closed telemetry window and returns the
// actions to apply at its boundary. act is the run as it stands at the
// boundary: controllers read it (the live spec and map, the trace
// before w.End) but actuate only through the returned actions.
// Implementations must be deterministic functions of what they observe
// — no clocks, no unseeded randomness — or controlled runs lose their
// byte-identity guarantee. An error aborts the run.
type Controller interface {
	Observe(w *farm.Window, act *farm.Actuator) ([]Action, error)
}

// OutcomeObserver is optionally implemented by controllers whose state
// depends on whether an action actually landed — the executor reports
// every action's fate right after actuating it. RateRespec needs this:
// committing the new planned rate on a re-plan the actuator skipped
// (say, one that outgrew the farm) would silently desync the
// controller from the live allocation and suppress every retry.
type OutcomeObserver interface {
	ActionOutcome(a Action, applied bool)
}

// Defaults for zero ControlSpec knobs.
const (
	// DefaultEpoch is the telemetry window length the CLI falls back to
	// when -control is given without -epoch.
	DefaultEpoch = 1800.0
	// DefaultBudgetP95 is the tail budget when the spec leaves it zero:
	// one spin-up (15 s on the Table 2 drive) plus modest queueing fits
	// under it, so night-time spin-downs are affordable while day-time
	// queue pileups behind a spin-up breach it.
	DefaultBudgetP95 = 20.0
	// DefaultRespecFactor is the observed/planned rate ratio that
	// triggers a re-plan.
	DefaultRespecFactor = 1.5
	// DefaultAlpha is the rate EWMA weight.
	DefaultAlpha = 0.3
)

// New builds the controller a control spec names, resolving defaults.
// spec is the full scenario the run starts from (rate-respec reads its
// planned workload rate).
func New(cs farm.ControlSpec, spec farm.Spec) (Controller, error) {
	kind, err := ParseKind(cs.Controller)
	if err != nil {
		return nil, err
	}
	switch kind {
	case KindTailBudget:
		budget := cs.BudgetP95
		if budget == 0 {
			budget = DefaultBudgetP95
		}
		tb := NewTailBudget(budget, farm.GroupParams(spec))
		tb.CycleBudget = cs.CycleBudget
		return tb, nil
	case KindRateRespec:
		planned, err := farm.WorkloadRate(spec)
		if err != nil {
			return nil, fmt.Errorf("control: rate-respec: %w", err)
		}
		factor := cs.RespecFactor
		if factor == 0 {
			factor = DefaultRespecFactor
		}
		alpha := cs.Alpha
		if alpha == 0 {
			alpha = DefaultAlpha
		}
		return &RateRespec{Factor: factor, Alpha: alpha, planned: planned}, nil
	case KindReorgFull, KindReorgIncremental, KindReorgAdaptive:
		return &Reorg{kind: kind}, nil
	default:
		return nil, fmt.Errorf("control: kind %v has no constructor", kind)
	}
}

// TailBudget manages each disk group's spin-down threshold against the
// remaining p95 budget, in TimeTrader's currency: a p95 SLO of B
// seconds is an allowance — up to 5% of completions may run over B —
// and every spin-up stall spends from it. Each window, per group, the
// controller solves the ski-rental problem against the observed
// idle-gap histogram: every candidate threshold is scored with the
// analytic per-gap energy model (policy.GapEnergy) summed over the
// histogram, and the cheapest candidate whose predicted stalls (gaps
// it would sleep through) fit the remaining allowance wins. By night
// the histogram is all long gaps, aggressive thresholds score cheapest,
// and the rare stalled request is latency nobody was owed; by day the
// histogram mass sits below break-even, where spin cycles cost more
// than idling, so the chosen threshold rises above the gaps on energy
// grounds alone — and if the budget ever runs dry, only stall-free
// candidates remain eligible. The knob clamps to [break-even/8,
// 64×break-even] (policy.Tunable), so the controller cannot leave the
// sane range.
type TailBudget struct {
	// Budget is the p95 response-time budget in seconds. Spending is
	// counted from the response histogram, so the effective budget is
	// the first RespBuckets bound >= Budget; pick a bound (15, 20,
	// 30...) to make them equal.
	Budget float64
	// TailFrac is the allowed over-budget fraction (0.05 for a p95
	// SLO).
	TailFrac float64
	// SpendTarget is how much of the allowance the controller dares to
	// spend (< 1, the safety margin under the SLO).
	SpendTarget float64
	// CycleBudget, when positive, adds the reliability constraint of
	// farm.ControlSpec.CycleBudget: start/stop cycles per disk-day. The
	// controller tracks each group's cumulative spin-downs and, once a
	// group runs ahead of its pro-rated allowance, only candidates that
	// sleep through no observed gaps (and so cycle no further) remain
	// eligible — the same wear arithmetic policy.CycleBudget enforces
	// per disk, applied here at the group level from telemetry alone,
	// keeping controlled runs deterministic.
	CycleBudget float64

	params    []disk.Params // per group drive model
	completed []int64       // per group, cumulative
	over      []int64       // per group, cumulative completions over Budget
	spins     []int64       // per group, cumulative spin-downs
}

// NewTailBudget returns the controller at its defaults: p95 semantics,
// spending up to 80% of the allowance. params is the per-group drive
// model (farm.GroupParams derives it from a spec).
func NewTailBudget(budget float64, params []disk.Params) *TailBudget {
	return &TailBudget{Budget: budget, TailFrac: 0.05, SpendTarget: 0.8, params: params}
}

// overBudget counts the histogram's completions over the budget: the
// buckets whose lower edge is at or above the first bound >= Budget.
func (c *TailBudget) overBudget(hist []int64) int64 {
	bounds := farm.RespBuckets()
	first := len(bounds) // overflow bucket only, if Budget > every bound
	for i, b := range bounds {
		if b >= c.Budget {
			first = i + 1 // responses > bounds[i] live in buckets i+1...
			break
		}
	}
	var n int64
	for i := first; i < len(hist); i++ {
		n += hist[i]
	}
	return n
}

// gapMids returns a representative gap length per histogram bucket:
// the midpoint, with twice the last bound standing in for the
// unbounded overflow bucket.
func gapMids() []float64 {
	bounds := farm.IdleGapBuckets()
	mids := make([]float64, len(bounds)+1)
	lo := 0.0
	for i, hi := range bounds {
		mids[i] = (lo + hi) / 2
		lo = hi
	}
	mids[len(bounds)] = 2 * bounds[len(bounds)-1]
	return mids
}

// pickThreshold scores every candidate threshold against the window's
// idle-gap histogram — modeled energy to serve those gaps, and how
// many would end in a stall — and returns the cheapest candidate whose
// stalls fit the remaining tail allowance and whose spin cycles fit
// the remaining cycle allowance (every slept-through gap is one
// start/stop cycle), or 0 when the histogram is empty (no gaps
// closed, nothing learned).
func (c *TailBudget) pickThreshold(p disk.Params, gaps []int64, remaining, cycleRemaining float64) float64 {
	mids := gapMids()
	var total int64
	for _, n := range gaps {
		total += n
	}
	if total == 0 {
		return 0
	}
	// Candidates: the histogram bounds themselves plus the drive's
	// break-even time (the paper's static choice must always be in the
	// running).
	candidates := append(append([]float64(nil), farm.IdleGapBuckets()...), p.BreakEvenThreshold())
	best, bestEnergy := 0.0, math.Inf(1)
	for _, t := range candidates {
		var energy float64
		var stalls int64
		for b, n := range gaps {
			if n == 0 {
				continue
			}
			energy += float64(n) * policy.GapEnergy(p, t, mids[b])
			if mids[b] > t {
				stalls += n
			}
		}
		if float64(stalls) > remaining && stalls > 0 {
			continue
		}
		if float64(stalls) > cycleRemaining && stalls > 0 {
			continue
		}
		if energy < bestEnergy {
			best, bestEnergy = t, energy
		}
	}
	if math.IsInf(bestEnergy, 1) {
		// Even stall-free candidates were excluded (cannot happen with
		// a finite histogram, but be safe): never spin down.
		return math.MaxFloat64
	}
	return best
}

// Observe implements Controller.
func (c *TailBudget) Observe(w *farm.Window, _ *farm.Actuator) ([]Action, error) {
	if c.completed == nil {
		c.completed = make([]int64, len(w.Groups))
		c.over = make([]int64, len(w.Groups))
		c.spins = make([]int64, len(w.Groups))
	}
	var acts []Action
	for _, g := range w.Groups {
		c.completed[g.Group] += g.Completed
		c.over[g.Group] += c.overBudget(g.RespHist)
		c.spins[g.Group] += int64(g.SpinDowns)
		if g.Threshold <= 0 {
			continue // group is not tunable
		}
		p := disk.DefaultParams()
		if g.Group < len(c.params) {
			p = c.params[g.Group]
		}
		remaining := c.SpendTarget*c.TailFrac*float64(c.completed[g.Group]) - float64(c.over[g.Group])
		cycleRemaining := math.Inf(1)
		if c.CycleBudget > 0 {
			allowance := c.CycleBudget * (w.End / 86400) * float64(g.Disks)
			cycleRemaining = allowance - float64(c.spins[g.Group])
		}
		t := c.pickThreshold(p, g.IdleGaps, remaining, cycleRemaining)
		if t <= 0 {
			continue
		}
		acts = append(acts, Action{Kind: ActionSetThreshold, Group: g.Group, Threshold: t})
	}
	return acts, nil
}

// RateRespec folds observed load back into the live spec: an EWMA of
// the per-window arrival rate, and a re-plan (repack at the observed
// rate, migrate the difference) whenever the EWMA drifts from the rate
// the current allocation was planned for by more than Factor in either
// direction. Falling load consolidates files onto fewer spindles so
// the rest sleep; rising load spreads them out before queues build.
type RateRespec struct {
	// Factor is the drift ratio (> 1) that triggers a re-plan.
	Factor float64
	// Alpha is the EWMA weight of the newest window.
	Alpha float64

	planned float64 // rate the live allocation was planned for
	ewma    float64
	primed  bool
}

// Observe implements Controller.
func (c *RateRespec) Observe(w *farm.Window, _ *farm.Actuator) ([]Action, error) {
	dur := w.End - w.Start
	if dur <= 0 {
		return nil, nil
	}
	obs := float64(w.Total.Arrivals) / dur
	if !c.primed {
		c.ewma = obs
		c.primed = true
	} else {
		c.ewma = c.Alpha*obs + (1-c.Alpha)*c.ewma
	}
	if c.planned <= 0 {
		return nil, nil
	}
	// A planned rate of zero would divide away; the EWMA is floored at
	// a hundredth of the planned rate so dead-quiet stretches still
	// compare meaningfully.
	target := math.Max(c.ewma, c.planned/100)
	ratio := target / c.planned
	if ratio < c.Factor && ratio > 1/c.Factor {
		return nil, nil
	}
	// planned moves only on ActionOutcome: a skipped re-plan leaves the
	// allocation where it was, so the drift persists and the next
	// window retries.
	return []Action{{Kind: ActionRespec, Rate: target}}, nil
}

// ActionOutcome implements OutcomeObserver: the planned rate tracks
// the allocation that actually exists.
func (c *RateRespec) ActionOutcome(a Action, applied bool) {
	if a.Kind == ActionRespec && applied {
		c.planned = a.Rate
	}
}
