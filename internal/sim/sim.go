// Package sim implements a deterministic discrete-event simulation
// kernel. It is the Go substitute for the SimPy framework the paper used
// to evaluate the Pack_Disks file-allocation strategy: an event list
// ordered by simulated time, a virtual clock, and cancellable timers.
//
// Determinism: events scheduled for the same instant fire in scheduling
// order (FIFO tie-breaking via a sequence number), so a simulation run is
// a pure function of its inputs and random seeds. The pending events sit
// in one binary min-heap on (time, sequence number).
//
// The kernel is callback-based rather than coroutine-based: model
// entities (disks, dispatchers, caches) are state machines that schedule
// follow-up events. Steady-state scheduling is allocation-free: event
// records are recycled through a per-Env free list, and the ScheduleArg
// and AtArg entry points take a static function plus a pre-boxed
// argument so no closure is created per event. This matters because the
// experiment harness fans thousands of runs, each firing millions of
// events, across a worker pool.
//
// An entity may also carry out a transition it can predict without
// queueing it — an idle disk's timeout fires at a known instant unless
// a request comes first — and apply it when next touched: CurrentSeq
// tells it which events at the current instant the kernel has already
// fired, and Deferred keeps the transition in the Steps count.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of the run.
type Time = float64

// Forever is a time later than any event the simulator will fire.
const Forever Time = math.MaxFloat64

// NoEvent is what CurrentSeq returns once RunUntil has carried the
// clock to the current instant: a rank after every event's, as every
// event at that instant has fired.
const NoEvent uint64 = math.MaxUint64

// node is the pooled event record. Nodes are owned by the Env: freed at
// fire or cancel time, recycled by the next Schedule, with gen bumped
// on every recycle so stale Event handles can detect reuse.
type node struct {
	at  Time
	seq uint64
	fn  func(any)
	arg any
	env *Env
	gen uint32
	// slot is the node's index in the heap while it is queued, for
	// eager removal.
	slot int32
}

// Event is a handle to a scheduled callback, returned by
// Env.Schedule/At and friends. It is a small value (copyable, zero
// value inert) rather than a pointer: the underlying event record is
// recycled the moment the event fires or is cancelled, and the handle's
// generation stamp is what keeps it safe afterwards — a handle held
// across recycling can never cancel or observe a *different* event that
// now occupies the same record.
type Event struct {
	n        *node
	at       Time
	gen      uint32
	canceled bool
}

// When returns the simulated time the event is (or was) scheduled for.
func (e *Event) When() Time { return e.at }

// Cancel prevents the event from firing and reclaims its queue slot
// immediately. Cancelling an event that has already fired or was
// already cancelled is a no-op — in particular, a stale handle whose
// record has been recycled to a newer event never cancels that newer
// event. Cancel is safe to call from inside event callbacks.
func (e *Event) Cancel() {
	if e.canceled || e.n == nil || e.gen != e.n.gen {
		return
	}
	e.canceled = true
	env := e.n.env
	env.remove(int(e.n.slot))
	env.recycle(e.n)
}

// Canceled reports whether Cancel was called on this handle before the
// event fired.
func (e *Event) Canceled() bool { return e.canceled }

// Fired reports whether the event callback has run.
func (e *Event) Fired() bool {
	if e.canceled || e.n == nil {
		return false
	}
	if e.gen != e.n.gen {
		// The record moved on: this event left the queue, and not via
		// this handle's Cancel — it fired.
		return true
	}
	return false
}

// Env is a simulation environment: a clock plus a pending-event queue.
// The zero value is not usable; call NewEnv.
type Env struct {
	now       Time
	heap      []*node // pending events, a binary min-heap on (at, seq)
	seq       uint64
	cur       uint64 // see CurrentSeq
	stepCount uint64 // fired events plus Deferred transitions
	free      []*node
	slab      []node // current allocation block, carved into nodes
}

// NewEnv returns an environment with the clock at zero and no pending
// events.
func NewEnv() *Env { return &Env{} }

// Now returns the current simulated time.
func (env *Env) Now() Time { return env.now }

// Pending returns the number of live (scheduled, not yet fired or
// cancelled) events. Cancelled events are reclaimed eagerly and never
// counted.
func (env *Env) Pending() int { return len(env.heap) }

// Steps returns the number of simulated events so far: the events
// fired plus the transitions entities applied themselves and reported
// through Deferred. It reads the same whether an entity queues a
// transition or defers it, once the entity has applied it.
func (env *Env) Steps() uint64 { return env.stepCount }

// Deferred counts one transition an entity carried out itself instead
// of queueing it as an event, so Steps keeps counting it.
func (env *Env) Deferred() { env.stepCount++ }

// CurrentSeq tells which events at the current instant have fired:
// those ranked below it have, those ranked above it have not. Inside a
// callback it is the firing event's FIFO rank; after RunUntil it is
// NoEvent, as RunUntil fires every event up to its deadline; after a
// bare Step it is the rank of the event Step fired; before the first
// Step it is 0, below every rank.
func (env *Env) CurrentSeq() uint64 { return env.cur }

// slabSize is the number of event records allocated per free-list
// refill. One refill covers a disk group's worth of concurrent timers;
// steady state never allocates again.
const slabSize = 64

// alloc returns a free node, refilling the pool from a fresh slab when
// empty.
func (env *Env) alloc() *node {
	if len(env.free) == 0 {
		if len(env.slab) == 0 {
			env.slab = make([]node, slabSize)
		}
		n := &env.slab[0]
		env.slab = env.slab[1:]
		n.env = env
		return n
	}
	n := env.free[len(env.free)-1]
	env.free = env.free[:len(env.free)-1]
	return n
}

// recycle returns a node to the free list, bumping its generation so
// outstanding handles observe the reuse, and dropping callback
// references so the pool does not pin dead objects.
func (env *Env) recycle(n *node) {
	n.gen++
	n.fn = nil
	n.arg = nil
	env.free = append(env.free, n)
}

// Schedule arranges for fn to run after delay simulated seconds and
// returns a handle that can cancel it. Schedule panics if delay is
// negative or NaN: scheduling into the past would silently corrupt the
// causal order of the run.
//
// Schedule allocates to box the closure; hot paths that fire per
// request should use ScheduleArg with a static function instead.
func (env *Env) Schedule(delay Time, fn func()) Event {
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	return env.ScheduleArg(delay, runClosure, fn)
}

// At arranges for fn to run at absolute simulated time t. It panics if t
// is before the current time or NaN.
func (env *Env) At(t Time, fn func()) Event {
	if fn == nil {
		panic("sim: At with nil callback")
	}
	return env.AtArg(t, runClosure, fn)
}

// runClosure adapts the closure-based Schedule/At API onto the
// (fn, arg) representation: the closure itself is the argument.
func runClosure(a any) { a.(func())() }

// ScheduleArg is the allocation-free form of Schedule: fn should be a
// package-level function and arg its pre-boxed state (boxing a pointer
// or a func value into any does not allocate). Same validation as
// Schedule.
func (env *Env) ScheduleArg(delay Time, fn func(any), arg any) Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v at t=%v", delay, env.now))
	}
	return env.AtArg(env.now+delay, fn, arg)
}

// AtArg is the allocation-free form of At. See ScheduleArg.
func (env *Env) AtArg(t Time, fn func(any), arg any) Event {
	env.seq++
	return env.AtArgSeq(t, fn, arg, env.seq)
}

// ReserveSeqs claims the next n FIFO positions and returns the first.
// Together with AtArgSeq it lets a producer dispatch a time-sorted
// stream lazily — each event scheduling the next — while keeping the
// exact tie-breaking order it would have had scheduling the whole
// stream upfront: reserve the stream's positions at construction, then
// attach position base+i to the i-th event whenever it is actually
// scheduled. Sequence numbers only break ties between equal
// timestamps; holding reserved positions unscheduled does not delay
// any other event.
func (env *Env) ReserveSeqs(n int) uint64 {
	if n < 0 {
		panic(fmt.Sprintf("sim: ReserveSeqs(%d)", n))
	}
	base := env.seq + 1
	env.seq += uint64(n)
	return base
}

// AtArgSeq schedules like AtArg but at an explicit FIFO position
// previously obtained from ReserveSeqs. Scheduling the same position
// twice corrupts the tie order; the kernel does not check.
func (env *Env) AtArgSeq(t Time, fn func(any), arg any, seq uint64) Event {
	if t < env.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: At(%v) is in the past (now=%v)", t, env.now))
	}
	if fn == nil {
		panic("sim: At with nil callback")
	}
	n := env.alloc()
	n.at = t
	n.seq = seq
	n.fn = fn
	n.arg = arg
	n.slot = int32(len(env.heap))
	env.heap = append(env.heap, n)
	env.siftUp(int(n.slot))
	return Event{n: n, at: t, gen: n.gen}
}

// Step fires the next pending event, advancing the clock to its
// timestamp. It returns false when no events remain.
func (env *Env) Step() bool {
	if len(env.heap) == 0 {
		return false
	}
	n := env.heap[0]
	env.remove(0)
	env.now = n.at
	env.stepCount++
	fn, arg := n.fn, n.arg
	env.cur = n.seq
	// Recycle before invoking: the callback may schedule (reusing this
	// record immediately keeps the pool tight), and any Cancel it calls
	// on a handle to *this* event sees a bumped generation and no-ops.
	env.recycle(n)
	fn(arg)
	return true
}

// Run fires events until the queue is empty. An entity that defers its
// transitions holds no event for them — an idle disk's timeout and
// spin-down are not queued — so Run stops once the last queued event
// has fired; drive a run through such transitions with RunUntil.
func (env *Env) Run() {
	for env.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the
// clock to exactly deadline. Events scheduled after the deadline remain
// pending.
func (env *Env) RunUntil(deadline Time) {
	if deadline < env.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) is in the past (now=%v)", deadline, env.now))
	}
	for len(env.heap) > 0 && env.heap[0].at <= deadline {
		env.Step()
	}
	env.now = deadline
	env.cur = NoEvent
}

// RunWindows advances the simulation to horizon in epoch-length
// increments, calling fn at the end of every window with its bounds
// (final marks the window that reaches the horizon). Chunking changes
// nothing about the event order — RunUntil fires exactly the events a
// single RunUntil(horizon) would, in the same order — so an observer
// that only reads state sees a byte-identical run. This is the
// telemetry seam the windowed storage runner sits on. An fn error
// aborts the run and is returned.
func (env *Env) RunWindows(epoch, horizon Time, fn func(start, end Time, final bool) error) error {
	if epoch <= 0 || math.IsNaN(epoch) {
		panic(fmt.Sprintf("sim: RunWindows with invalid epoch %v", epoch))
	}
	start := env.now
	for k := 1; ; k++ {
		end := start + Time(k)*epoch
		final := end >= horizon
		if final {
			end = horizon
		}
		env.RunUntil(end)
		if err := fn(start+Time(k-1)*epoch, end, final); err != nil {
			return err
		}
		if final {
			return nil
		}
	}
}

// less orders the heap by (at, seq): time first, scheduling order
// within a timestamp (the FIFO tie-break the determinism guarantee
// depends on).
func less(a, b *node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// remove deletes heap slot i (the root for Step, any slot for Cancel),
// restoring the heap property around the hole.
func (env *Env) remove(i int) {
	h := env.heap
	last := len(h) - 1
	if i != last {
		h[i] = h[last]
		h[i].slot = int32(i)
	}
	h[last] = nil
	env.heap = h[:last]
	if i < last && !env.siftDown(i) {
		env.siftUp(i)
	}
}

func (env *Env) siftUp(i int) {
	h := env.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].slot = int32(i)
		h[parent].slot = int32(parent)
		i = parent
	}
}

// siftDown reports whether the node at i moved.
func (env *Env) siftDown(i int) bool {
	h := env.heap
	moved := false
	for {
		left := 2*i + 1
		if left >= len(h) {
			return moved
		}
		best := left
		if right := left + 1; right < len(h) && less(h[right], h[left]) {
			best = right
		}
		if !less(h[best], h[i]) {
			return moved
		}
		h[i], h[best] = h[best], h[i]
		h[i].slot = int32(i)
		h[best].slot = int32(best)
		i = best
		moved = true
	}
}
