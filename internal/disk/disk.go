// Package disk models a single hard disk drive with the multi-mode
// power behaviour the paper simulates (Figure 1, Table 2): active
// read/write, seek, idle, standby, and the timed spin-up / spin-down
// transitions between them, plus the fixed idleness-threshold spin-down
// policy used by MAID-style systems.
//
// The default parameter set is the Seagate ST3500630AS (Barracuda
// 7200.10) exactly as listed in the paper's Table 2. With those numbers
// the break-even idleness threshold — the standby duration whose power
// saving repays one spin-down + spin-up cycle — evaluates to 53.3 s,
// matching the paper.
package disk

import (
	"fmt"
	"math"

	"diskpack/internal/obs"
	"diskpack/internal/sim"
)

// Params describes a disk drive's performance and power envelope.
// All times are seconds, powers are watts, sizes are bytes, and
// TransferRate is bytes per second.
type Params struct {
	Model           string
	RotationalRPM   int
	AvgSeekTime     float64
	AvgRotationTime float64
	CapacityBytes   int64
	TransferRate    float64
	IdlePower       float64
	StandbyPower    float64
	ActivePower     float64
	SeekPower       float64
	SpinUpPower     float64
	SpinDownPower   float64
	SpinUpTime      float64
	SpinDownTime    float64
}

// MB and GB are decimal byte units, matching the disk-vendor convention
// the paper uses (72 MB/s transfer, 188 MB minimum file size, ...).
const (
	KB = 1000
	MB = 1000 * KB
	GB = 1000 * MB
	TB = 1000 * GB
)

// DefaultParams returns the Seagate ST3500630AS parameters from the
// paper's Table 2.
func DefaultParams() Params {
	return Params{
		Model:           "Seagate ST3500630AS",
		RotationalRPM:   7200,
		AvgSeekTime:     8.5e-3,
		AvgRotationTime: 4.16e-3,
		CapacityBytes:   500 * GB,
		TransferRate:    72 * MB,
		IdlePower:       9.3,
		StandbyPower:    0.8,
		ActivePower:     13,
		SeekPower:       12.6,
		SpinUpPower:     24,
		SpinDownPower:   9.3,
		SpinUpTime:      15,
		SpinDownTime:    10,
	}
}

// EcoParams returns a 5400 RPM nearline-class drive: bigger and far
// cheaper to keep spinning than the Table 2 drive, but slower to
// position and transfer. Mixing these with DefaultParams drives in one
// farm is the heterogeneous scenario the paper's homogeneous evaluation
// cannot express — cold data on eco spindles, hot data on fast ones.
func EcoParams() Params {
	return Params{
		Model:           "Eco 5400rpm nearline",
		RotationalRPM:   5400,
		AvgSeekTime:     12e-3,
		AvgRotationTime: 5.55e-3,
		CapacityBytes:   1 * TB,
		TransferRate:    45 * MB,
		IdlePower:       5.0,
		StandbyPower:    0.6,
		ActivePower:     8.0,
		SeekPower:       7.5,
		SpinUpPower:     20,
		SpinDownPower:   5.0,
		SpinUpTime:      12,
		SpinDownTime:    8,
	}
}

// Validate reports the first implausible parameter, or nil.
func (p Params) Validate() error {
	switch {
	case p.TransferRate <= 0:
		return fmt.Errorf("disk: TransferRate %v must be positive", p.TransferRate)
	case p.CapacityBytes <= 0:
		return fmt.Errorf("disk: CapacityBytes %d must be positive", p.CapacityBytes)
	case p.AvgSeekTime < 0 || p.AvgRotationTime < 0:
		return fmt.Errorf("disk: negative positioning time")
	case p.SpinUpTime < 0 || p.SpinDownTime < 0:
		return fmt.Errorf("disk: negative transition time")
	case p.IdlePower < 0 || p.StandbyPower < 0 || p.ActivePower < 0 ||
		p.SeekPower < 0 || p.SpinUpPower < 0 || p.SpinDownPower < 0:
		return fmt.Errorf("disk: negative power")
	case p.StandbyPower > p.IdlePower:
		return fmt.Errorf("disk: standby power %v exceeds idle power %v — spin-down would never save energy",
			p.StandbyPower, p.IdlePower)
	}
	return nil
}

// PositioningTime returns the average positioning overhead per request
// (seek + rotational latency).
func (p Params) PositioningTime() float64 { return p.AvgSeekTime + p.AvgRotationTime }

// TransferTime returns the time to stream size bytes at the sustained
// rate.
func (p Params) TransferTime(size int64) float64 {
	return float64(size) / p.TransferRate
}

// ServiceTime returns positioning plus transfer time for a whole-file
// read of size bytes; this is the µ_i = f(s_i) of the paper's load
// definition l_i = R·p_i·µ_i.
func (p Params) ServiceTime(size int64) float64 {
	return p.PositioningTime() + p.TransferTime(size)
}

// TransitionEnergy returns the energy in joules consumed by one
// spin-down followed by one spin-up.
func (p Params) TransitionEnergy() float64 {
	return p.SpinDownPower*p.SpinDownTime + p.SpinUpPower*p.SpinUpTime
}

// BreakEvenThreshold returns the idleness threshold used by the paper
// (after Pinheiro & Bianchini): the time the disk must remain in standby
// for the idle-vs-standby power difference to pay back one
// spin-down+spin-up cycle. For Table 2 parameters this is
// (9.3·10 + 24·15) / (9.3 − 0.8) = 453/8.5 = 53.29… ≈ 53.3 s.
func (p Params) BreakEvenThreshold() float64 {
	saving := p.IdlePower - p.StandbyPower
	if saving <= 0 {
		return math.Inf(1)
	}
	return p.TransitionEnergy() / saving
}

// State enumerates the power states of the simulated drive.
type State int

// Disk power states. Seeking covers seek + rotational positioning (at
// seek power); Transferring is the sustained read (at active power).
const (
	Idle State = iota
	Standby
	SpinningUp
	SpinningDown
	Seeking
	Transferring
	numStates
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Standby:
		return "standby"
	case SpinningUp:
		return "spinup"
	case SpinningDown:
		return "spindown"
	case Seeking:
		return "seek"
	case Transferring:
		return "active"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Power returns the wattage drawn in state s under params p. It reads
// p in place: a disk charges every state change through it.
func (p *Params) Power(s State) float64 {
	switch s {
	case Idle:
		return p.IdlePower
	case Standby:
		return p.StandbyPower
	case SpinningUp:
		return p.SpinUpPower
	case SpinningDown:
		return p.SpinDownPower
	case Seeking:
		return p.SeekPower
	case Transferring:
		return p.ActivePower
	default:
		panic(fmt.Sprintf("disk: unknown state %d", int(s)))
	}
}

// NeverSpinDown disables the spin-down policy when used as the idleness
// threshold: the disk idles at full idle power forever, which is the
// paper's "no power-saving mechanism" normalization baseline.
var NeverSpinDown = math.Inf(1)

// SpinPolicy decides how long a disk dwells in the idle state before
// spinning down. The paper uses a fixed break-even threshold (Section
// 4, after Pinheiro & Bianchini); the dynamic-power-management
// literature it surveys (Section 2) studies adaptive and randomized
// timeout policies, implemented in internal/policy.
type SpinPolicy interface {
	// Timeout returns the idleness timeout in seconds to use for the
	// next idle period. math.Inf(1) means never spin down; 0 means
	// spin down immediately.
	Timeout() float64
	// ObserveIdle reports the length of a completed idle gap — the
	// time from entering idle (service completion) to the next
	// request arrival — letting adaptive policies learn. Gaps that
	// are still open when the simulation ends are not reported.
	ObserveIdle(gap float64)
}

// fixedPolicy is the paper's fixed idleness threshold.
type fixedPolicy float64

func (f fixedPolicy) Timeout() float64  { return float64(f) }
func (fixedPolicy) ObserveIdle(float64) {}

// Request is a whole-file read submitted to a disk. Done, if non-nil,
// runs at completion time with the request itself; response time is
// completion minus Arrival (queueing + spin-up penalty + service).
// Callers that pool Requests may recycle the struct from inside Done —
// the disk holds no reference past that call.
type Request struct {
	FileID  int
	Size    int64
	Arrival sim.Time
	Done    func(*Request, sim.Time)

	// Tag is caller-owned context carried through to Done (the storage
	// layer stores the disk index here so one shared Done function can
	// serve every request without a per-request closure).
	Tag int

	// ServiceStart records when the disk began positioning for this
	// request, for wait-time decomposition.
	ServiceStart sim.Time
}

// Disk is a simulated drive bound to a sim.Env. Submit requests with
// Submit; spin-down policy, queueing, and energy accounting are
// internal. Metrics accessors are valid any time; call Finalize once at
// the end of the run to close the last accounting segment.
//
// Deferred transitions. An idle disk queues no event: its idle timeout
// and the end of the spin-down it starts happen at instants fixed when
// the disk goes idle, so the disk records them (spinAt, and the FIFO
// rank armSeq the timeout event would have taken) and applies them
// itself when next touched — by Submit, Finalize or an accessor — at
// the instants and in the order the kernel would have fired them, and
// counts each through sim.Env.Deferred. A farm of idle disks therefore
// costs the event queue nothing. A timeout due at the current instant
// counts as fired when its rank is below sim.Env.CurrentSeq; a
// spin-down end due then counts as fired only once RunUntil has
// reached that instant (CurrentSeq is sim.NoEvent), after every event
// at it. That tie rule is exact for the storage
// layer: the only callbacks that touch a disk are trace arrivals, whose
// ranks are reserved when the run is built, ahead of any spin-down end
// the kernel could have queued, and a Submit at a window boundary (a
// rebuild stream) comes after every event at that instant.
//
// A Submit during a deferred spin-down queues its end as a real event
// (the request waits on it), ranked after every ordinary event at that
// instant and, among spin-down ends, in the order their timeouts were
// armed. A kernel that queued every timeout ranks a spin-down end by
// when its timeout fired instead, which differs in two known cases: an
// event scheduled after a spin-down began that falls exactly on its
// end now fires before that end instead of after it; and two
// spin-downs begun at different instants that end at the same one
// (drive models with different spin-down times) can swap order. No
// result pinned by the repository's goldens, its tie-case golden
// included, moves.
type Disk struct {
	ID     int
	env    *sim.Env
	params *Params // shared with the farm's other disks of this model
	policy SpinPolicy

	state      State
	lastChange sim.Time
	idleSince  sim.Time // start of the current idle gap
	inGap      bool
	finalized  bool
	pending    deferred // the deferred transition due next, if any
	spinAt     sim.Time // when the idle timeout fires
	armSeq     uint64   // the FIFO rank the timeout event would take
	energy     float64
	stateDur   [numStates]float64

	queue []*Request // head-indexed deque: live entries are queue[qhead:]
	qhead int

	spinUps   int
	spinDowns int
	served    int64
	bytesRead int64
	peakQueue int

	// rec, when non-nil, receives every state transition (observation
	// only — tracing never alters behaviour). The nil check is the
	// entire disabled-path cost.
	rec *obs.TraceRecorder
}

// deferred names the transition a disk applies itself when next
// touched (see Disk).
type deferred uint8

const (
	noneDeferred     deferred = iota
	timeoutDeferred           // the idle timeout at spinAt
	spinDownDeferred          // the spin-down end at spinAt + SpinDownTime
)

// spinDownRank is the high bit of a queued spin-down end's FIFO rank:
// ordinary ranks never reach it, so the event fires after every
// ordinary event at its instant.
const spinDownRank uint64 = 1 << 63

// New returns a disk in the Idle (spinning) state with its idle
// timeout armed, matching the paper's simulation start condition.
// threshold is the fixed idleness threshold in seconds; use
// params.BreakEvenThreshold() for the paper's policy or NeverSpinDown to
// disable spin-down. New panics on invalid params or negative threshold.
func New(env *sim.Env, id int, params Params, threshold float64) *Disk {
	if threshold < 0 || math.IsNaN(threshold) {
		panic(fmt.Sprintf("disk: invalid idleness threshold %v", threshold))
	}
	return NewWithPolicy(env, id, params, fixedPolicy(threshold))
}

// NewWithPolicy returns a disk whose spin-down timing is governed by an
// arbitrary SpinPolicy (see internal/policy for adaptive and randomized
// implementations).
func NewWithPolicy(env *sim.Env, id int, params Params, pol SpinPolicy) *Disk {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	d := new(Disk)
	d.Init(env, id, &params, pol)
	return d
}

// Init readies d in place as the disk NewWithPolicy returns, so a farm
// can keep its disks in one slice instead of allocating each; d must
// not be a disk with events still pending. params must be valid (see
// Params.Validate) and is read in place, not copied: it must not change
// while the disk runs, and disks of one drive model can share it. Init
// arms the idle timeout, taking the next FIFO rank from env, so
// initialising disks in order ranks their timeouts in that order.
func (d *Disk) Init(env *sim.Env, id int, params *Params, pol SpinPolicy) {
	if pol == nil {
		panic("disk: nil SpinPolicy")
	}
	// Field by field: a composite literal would be built aside and
	// copied, which a million-disk farm pays for a million times.
	*d = Disk{}
	d.ID = id
	d.env = env
	d.params = params
	d.policy = pol
	d.state = Idle
	d.lastChange = env.Now()
	d.idleSince = env.Now()
	d.inGap = true
	d.armIdleTimer()
}

// SetRecorder attaches a state-timeline recorder (nil detaches). The
// disk's current state is recorded as the timeline's opening segment,
// so attach at construction time, before any simulated time passes.
func (d *Disk) SetRecorder(r *obs.TraceRecorder) {
	d.rec = r
	if r != nil {
		r.StateChange(d.ID, float64(d.env.Now()), int(d.state))
	}
}

// StateNames returns the State display names indexed by state value
// (the vocabulary trace timelines are rendered with).
func StateNames() []string {
	names := make([]string, numStates)
	for s := State(0); s < numStates; s++ {
		names[s] = s.String()
	}
	return names
}

// Params returns the drive parameters.
func (d *Disk) Params() Params { return *d.params }

// State returns the current power state.
func (d *Disk) State() State {
	d.settle()
	return d.state
}

// QueueLen returns the number of requests waiting or in service.
func (d *Disk) QueueLen() int { return len(d.queue) - d.qhead }

// Served returns the number of completed requests.
func (d *Disk) Served() int64 { return d.served }

// BytesRead returns the total bytes transferred.
func (d *Disk) BytesRead() int64 { return d.bytesRead }

// SpinUps returns the number of spin-up transitions performed.
func (d *Disk) SpinUps() int { return d.spinUps }

// SpinDowns returns the number of spin-down transitions performed.
func (d *Disk) SpinDowns() int {
	d.settle()
	return d.spinDowns
}

// PeakQueueLen returns the largest queue length observed (including the
// request in service).
func (d *Disk) PeakQueueLen() int { return d.peakQueue }

// Submit enqueues a whole-file read. If the disk is in standby it begins
// spinning up; if it is mid-spin-down the spin-down completes first and
// a spin-up follows immediately (a drive cannot abort a spin-down).
func (d *Disk) Submit(req *Request) {
	if d.finalized {
		panic("disk: Submit after Finalize")
	}
	d.settle()
	if d.inGap {
		// The idle gap that began at the last service completion ends
		// now; adaptive policies learn from its length.
		d.policy.ObserveIdle(d.env.Now() - d.idleSince)
		d.inGap = false
	}
	if d.qhead > 0 && len(d.queue) == cap(d.queue) {
		// Reclaim the dequeued prefix instead of growing: the queue is a
		// head-indexed deque precisely so steady-state traffic reuses one
		// backing array (a [1:] re-slice leaks its front capacity and
		// reallocates every ~cap requests).
		n := copy(d.queue, d.queue[d.qhead:])
		for i := n; i < len(d.queue); i++ {
			d.queue[i] = nil
		}
		d.queue = d.queue[:n]
		d.qhead = 0
	}
	d.queue = append(d.queue, req)
	if d.QueueLen() > d.peakQueue {
		d.peakQueue = d.QueueLen()
	}
	switch d.state {
	case Idle:
		d.pending = noneDeferred // cancel the idle timeout
		d.startNext()
	case Standby:
		d.beginSpinUp()
	case SpinningDown:
		if d.pending == spinDownDeferred {
			// The request waits on the spin-down's end: queue it, and
			// the spin-up that follows, as events.
			d.pending = noneDeferred
			d.env.AtArgSeq(d.spinAt+d.params.SpinDownTime, spinDownDoneCB, d, spinDownRank|d.armSeq)
		}
	case SpinningUp, Seeking, Transferring:
		// Queued; the in-flight transition or service will drain it.
	}
}

// settle applies the deferred transitions the kernel would already
// have fired by now, had they been queued as events (see Disk).
func (d *Disk) settle() {
	if d.pending == noneDeferred {
		return
	}
	now, cur := d.env.Now(), d.env.CurrentSeq()
	if d.pending == timeoutDeferred {
		if d.spinAt > now || d.spinAt == now && d.armSeq > cur {
			return
		}
		d.env.Deferred()
		d.transitionAt(d.spinAt, SpinningDown)
		d.spinDowns++
		d.pending = spinDownDeferred
	}
	downAt := d.spinAt + d.params.SpinDownTime
	if downAt > now || downAt == now && cur != sim.NoEvent {
		return
	}
	d.env.Deferred()
	d.transitionAt(downAt, Standby)
	d.pending = noneDeferred
}

// transition moves to state s now, charging the elapsed segment to the
// previous state.
func (d *Disk) transition(s State) { d.transitionAt(d.env.Now(), s) }

// transitionAt moves to state s at time at, no earlier than the last
// change, charging the elapsed segment to the previous state.
func (d *Disk) transitionAt(at sim.Time, s State) {
	dt := at - d.lastChange
	d.energy += d.params.Power(d.state) * dt
	d.stateDur[d.state] += dt
	if d.rec != nil && s != d.state {
		d.rec.StateChange(d.ID, float64(at), int(s))
	}
	d.state = s
	d.lastChange = at
}

// enterIdle transitions to Idle with an empty queue, opening a new
// idle gap and arming the policy's timeout.
func (d *Disk) enterIdle() {
	d.transition(Idle)
	d.idleSince = d.env.Now()
	d.inGap = true
	d.armIdleTimer()
}

// Event callbacks are package-level functions taking the disk as the
// boxed argument: sim.ScheduleArg with a static func and a pointer arg
// performs no per-event allocation, unlike method values or closures.
func spinDownDoneCB(a any) { a.(*Disk).onSpinDownComplete() }
func spinUpDoneCB(a any)   { a.(*Disk).onSpinUpComplete() }
func seekDoneCB(a any)     { a.(*Disk).onSeekDone() }
func transferDoneCB(a any) { a.(*Disk).onTransferDone() }

// armIdleTimer arms the policy's idle timeout as a deferred transition:
// the instant ScheduleArg would compute and the rank it would take.
func (d *Disk) armIdleTimer() {
	t := d.policy.Timeout()
	if math.IsInf(t, 1) {
		return
	}
	if t < 0 || math.IsNaN(t) {
		panic(fmt.Sprintf("disk: policy returned invalid timeout %v", t))
	}
	d.spinAt = d.env.Now() + t
	d.armSeq = d.env.ReserveSeqs(1)
	d.pending = timeoutDeferred
}

// onSpinDownComplete ends a spin-down a request waits on (only those
// are queued as events): charge the spin-down segment, then spin
// straight back up.
func (d *Disk) onSpinDownComplete() { d.beginSpinUp() }

func (d *Disk) beginSpinUp() {
	d.transition(SpinningUp)
	d.spinUps++
	d.env.ScheduleArg(d.params.SpinUpTime, spinUpDoneCB, d)
}

func (d *Disk) onSpinUpComplete() {
	if d.QueueLen() > 0 {
		d.startNext()
		return
	}
	d.enterIdle()
}

// startNext begins servicing the queue head. Caller guarantees the disk
// is spinning (Idle or just finished SpinningUp/Transferring). The
// in-service request stays at the queue head until completion (FIFO
// single-server), so the seek and transfer callbacks need no captured
// request — and therefore no closure.
func (d *Disk) startNext() {
	d.queue[d.qhead].ServiceStart = d.env.Now()
	d.transition(Seeking)
	d.env.ScheduleArg(d.params.PositioningTime(), seekDoneCB, d)
}

func (d *Disk) onSeekDone() {
	d.transition(Transferring)
	d.env.ScheduleArg(d.params.TransferTime(d.queue[d.qhead].Size), transferDoneCB, d)
}

func (d *Disk) onTransferDone() {
	req := d.queue[d.qhead]
	// Dequeue head (must be req: FIFO single-server).
	d.queue[d.qhead] = nil
	d.qhead++
	if d.qhead == len(d.queue) {
		d.queue = d.queue[:0]
		d.qhead = 0
	}
	d.served++
	d.bytesRead += req.Size
	if req.Done != nil {
		req.Done(req, d.env.Now())
	}
	if d.QueueLen() > 0 {
		d.startNext()
		return
	}
	d.enterIdle()
}

// Finalize closes the open accounting segment at the current simulated
// time. Further Submits panic; metrics accessors return final values.
// Calling Finalize more than once is a no-op after the first.
func (d *Disk) Finalize() {
	if d.finalized {
		return
	}
	d.settle()
	d.transition(d.state) // charge the tail segment
	d.pending = noneDeferred
	d.finalized = true
}

// Energy returns the energy consumed so far in joules (up to the last
// state change; call Finalize for an exact end-of-run figure).
func (d *Disk) Energy() float64 {
	d.settle()
	return d.energy
}

// EnergyAt returns the energy consumed through simulated time t >= the
// last state change, extending the current state.
func (d *Disk) EnergyAt(t sim.Time) float64 {
	d.settle()
	return d.energy + d.params.Power(d.state)*(t-d.lastChange)
}

// StateDuration returns the cumulative time spent in state s (up to the
// last state change).
func (d *Disk) StateDuration(s State) float64 {
	d.settle()
	return d.stateDur[s]
}

// StateDurationAt returns the cumulative time spent in state s through
// simulated time t >= the last state change, extending the open segment
// — the mid-run counterpart of StateDuration, which misses the segment
// still in progress.
func (d *Disk) StateDurationAt(s State, t sim.Time) float64 {
	d.settle()
	dur := d.stateDur[s]
	if d.state == s {
		dur += t - d.lastChange
	}
	return dur
}

// Breakdown summarizes where a disk's time and energy went.
type Breakdown struct {
	Durations [numStates]float64
	Energy    float64
	SpinUps   int
	SpinDowns int
	Served    int64
	BytesRead int64
}

// Breakdown returns the current accounting snapshot.
func (d *Disk) Breakdown() Breakdown {
	d.settle()
	return Breakdown{
		Durations: d.stateDur,
		Energy:    d.energy,
		SpinUps:   d.spinUps,
		SpinDowns: d.spinDowns,
		Served:    d.served,
		BytesRead: d.bytesRead,
	}
}
