package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// traceRun drives a randomized workload — schedules with a wide spread
// of timestamps (ties included), nested scheduling from callbacks, and
// random cancellation — against the given Env and returns the fire
// order. Used to compare the calendar queue against the legacy heap.
func traceRun(env *Env, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	var order []int
	id := 0
	var handles []Event
	var schedule func(depth int)
	schedule = func(depth int) {
		i := id
		id++
		// Mix of scales so events land in bottom, rungs, and top:
		// sub-second, minutes, and far-future times, with frequent
		// exact ties via quantization.
		var t Time
		switch rng.Intn(4) {
		case 0:
			t = Time(rng.Intn(16)) / 4.0
		case 1:
			t = rng.Float64() * 100
		case 2:
			t = 1000 + rng.Float64()*1e4
		default:
			t = Time(rng.Intn(8)) * 1e6
		}
		h := env.AtArg(env.Now()+t, func(a any) {
			order = append(order, a.(int))
			if depth < 3 && rng.Intn(3) == 0 {
				schedule(depth + 1)
			}
			if len(handles) > 0 && rng.Intn(4) == 0 {
				handles[rng.Intn(len(handles))].Cancel()
			}
		}, i)
		handles = append(handles, h)
	}
	for j := 0; j < 300; j++ {
		schedule(0)
	}
	// Exercise the RunUntil deadline path too, then drain.
	env.RunUntil(50)
	env.RunUntil(5000)
	env.Run()
	return order
}

// The calendar queue must reproduce the legacy heap's fire order
// exactly — same events, same order — under scheduling, ties, nested
// scheduling, and cancellation.
func TestCalendarMatchesLegacyHeapProperty(t *testing.T) {
	prop := func(seed int64) bool {
		a := traceRun(NewEnv(), seed)
		b := traceRun(NewLegacyHeapEnv(), seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Same-time events must fire in scheduling order even when they enter
// the queue in different regions (heap now, rung after a drain, top
// before a reseed).
func TestCrossRegionTieBreaking(t *testing.T) {
	env := NewEnv()
	var order []int
	// Force a reseed: drain an initial event so rungs get dealt from a
	// top spanning [100, 2000].
	env.At(1, func() {})
	for i := 0; i < 50; i++ {
		t50 := Time(100 + (i%5)*400) // five distinct times, ten-way ties
		env.AtArg(t50, func(a any) { order = append(order, a.(int)) }, i)
	}
	env.Run()
	// Events must come out grouped by time, and FIFO within each time.
	seen := map[int]bool{}
	for k := 0; k+1 < len(order); k++ {
		a, b := order[k], order[k+1]
		seen[a] = true
		if a%5 == b%5 && a > b {
			t.Fatalf("tie broken out of FIFO order: %d before %d (order=%v)", a, b, order)
		}
	}
	if len(order) != 50 {
		t.Fatalf("fired %d events, want 50", len(order))
	}
}

func TestForeverEventFires(t *testing.T) {
	env := NewEnv()
	var got []Time
	env.At(Forever, func() { got = append(got, env.Now()) })
	env.At(1, func() { got = append(got, env.Now()) })
	env.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != Forever {
		t.Fatalf("got=%v want [1 Forever]", got)
	}
}

func TestInfinityEventFires(t *testing.T) {
	env := NewEnv()
	fired := false
	env.At(math.Inf(1), func() { fired = true })
	env.At(1, func() {})
	env.Run()
	if !fired {
		t.Fatal("event at +Inf never fired")
	}
}

// A handle held across free-list recycling must keep reporting its own
// event's state and must never cancel the record's new occupant.
func TestHandleSurvivesRecycling(t *testing.T) {
	env := NewEnv()
	aFired, bFired := false, false
	a := env.Schedule(1, func() { aFired = true })
	env.Run()
	if !aFired || !a.Fired() || a.Canceled() {
		t.Fatalf("a: fired=%v Fired()=%v Canceled()=%v", aFired, a.Fired(), a.Canceled())
	}
	// b reuses a's record (single-event pool churn guarantees it).
	b := env.Schedule(1, func() { bFired = true })
	if b.n != a.n {
		t.Fatal("test setup: b did not recycle a's record")
	}
	a.Cancel() // stale handle: must NOT cancel b
	if a.Canceled() {
		t.Fatal("stale Cancel marked the old handle cancelled")
	}
	if !a.Fired() {
		t.Fatal("stale Cancel changed Fired() of the old handle")
	}
	if a.When() != 1 {
		t.Fatalf("When()=%v changed across recycling", a.When())
	}
	env.Run()
	if !bFired {
		t.Fatal("stale handle's Cancel killed the record's new occupant")
	}
	if !b.Fired() {
		t.Fatal("b.Fired()=false after firing")
	}
}

// Property form of the above: under random fire/cancel/recycle churn,
// every handle's Fired/Canceled/When matches ground truth tracked
// outside the kernel, and stale Cancels never leak across recycling.
func TestHandleGenerationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := NewEnv()
		type tracked struct {
			h         Event
			at        Time
			fired     bool // ground truth, set by the callback
			cancelled bool // ground truth, set when we call Cancel pre-fire
		}
		var live []*tracked
		ok := true
		for round := 0; round < 200; round++ {
			switch rng.Intn(3) {
			case 0, 1: // schedule
				tr := &tracked{at: env.Now() + rng.Float64()*10}
				tr.h = env.AtArg(tr.at, func(a any) { a.(*tracked).fired = true }, tr)
				live = append(live, tr)
			case 2: // cancel a random handle, possibly stale
				if len(live) == 0 {
					continue
				}
				tr := live[rng.Intn(len(live))]
				wasFired := tr.fired
				tr.h.Cancel()
				if !wasFired && !tr.cancelled {
					tr.cancelled = true
				}
			}
			// Let time advance sometimes so records churn through the pool.
			if rng.Intn(4) == 0 {
				env.RunUntil(env.Now() + rng.Float64()*5)
			}
			for _, tr := range live {
				if tr.h.When() != tr.at {
					ok = false
				}
				if tr.h.Canceled() != tr.cancelled {
					ok = false
				}
				if tr.h.Fired() != (tr.fired && !tr.cancelled) {
					ok = false
				}
				if tr.fired && tr.cancelled {
					ok = false // a cancelled event must never fire
				}
			}
			if !ok {
				return false
			}
		}
		env.Run()
		for _, tr := range live {
			if tr.fired == tr.cancelled { // exactly one must hold after drain
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// nodesOwned counts every record the Env has ever carved from its
// slabs that is currently tracked (free or queued). Bounded growth
// under churn is the point of eager cancel reclamation.
func (env *Env) nodesOwned() int { return len(env.free) + env.q.size + len(env.slab) }

// Spin-down timer churn: each arrival cancels the pending idle timer
// and schedules a new one. With lazy deletion the queue grew by one
// dead record per cycle; with eager reclamation the pool must stay at
// O(1) records no matter how many cycles run.
func TestCancelChurnKeepsQueueBounded(t *testing.T) {
	env := NewEnv()
	var timer Event
	for i := 0; i < 100_000; i++ {
		timer.Cancel()
		timer = env.Schedule(53.3, func() {}) // idle-timeout style far timer
		env.RunUntil(env.Now() + 1)           // arrival beats the timer
		if p := env.Pending(); p != 1 {
			t.Fatalf("cycle %d: Pending()=%d want 1 (cancelled events must not linger)", i, p)
		}
	}
	if owned := env.nodesOwned(); owned > 2*slabSize {
		t.Fatalf("pool grew to %d records under cancel churn, want <= %d", owned, 2*slabSize)
	}
}

// Steady-state Schedule+Step must not allocate: records come from the
// free list and ScheduleArg boxes no closures.
func TestScheduleStepZeroAlloc(t *testing.T) {
	env := NewEnv()
	var tick func(any)
	tick = func(any) { env.ScheduleArg(1.0, tick, nil) }
	env.ScheduleArg(1.0, tick, nil)
	for i := 0; i < 100; i++ { // warm the pool and the rung slices
		env.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() { env.Step() })
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %v/op, want 0", allocs)
	}
	cancelAllocs := testing.AllocsPerRun(1000, func() {
		ev := env.ScheduleArg(10, tick, nil)
		ev.Cancel()
	})
	if cancelAllocs != 0 {
		t.Fatalf("steady-state ScheduleArg+Cancel allocates %v/op, want 0", cancelAllocs)
	}
}

// Chained dispatch of a time-sorted stream through reserved FIFO
// positions must fire in exactly the order the same stream gets when
// scheduled upfront — including ties against events armed mid-run,
// which is where a naive chain diverges (a late-scheduled stream event
// would lose ties it used to win). The storage layer's arrival chain
// rests on this.
func TestReservedSeqChainingMatchesUpfront(t *testing.T) {
	// Integer-grid stream times with repeats, plus a "timer" armed by
	// every stream event at +3 — colliding exactly with later stream
	// times (2+3=5, 5+3=8) to force cross-producer ties.
	times := []Time{1, 2, 2, 5, 5, 8, 8, 8, 11}
	run := func(chained bool) []string {
		env := NewEnv()
		var order []string
		timer := func(a any) { order = append(order, "timer@"+fmt.Sprint(env.Now())) }
		var handle func(i int)
		handle = func(i int) {
			order = append(order, fmt.Sprintf("stream%d@%v", i, env.Now()))
			env.ScheduleArg(3, timer, nil)
		}
		if chained {
			base := env.ReserveSeqs(len(times))
			var chain func(any)
			next := 0
			chain = func(any) {
				i := next
				next++
				if next < len(times) {
					env.AtArgSeq(times[next], chain, nil, base+uint64(next))
				}
				handle(i)
			}
			env.AtArgSeq(times[0], chain, nil, base)
		} else {
			for i, at := range times {
				i := i
				env.AtArg(at, func(any) { handle(i) }, nil)
			}
		}
		env.Run()
		return order
	}
	upfront, chained := run(false), run(true)
	if !reflect.DeepEqual(upfront, chained) {
		t.Fatalf("chained dispatch reordered the run\nupfront: %v\nchained: %v", upfront, chained)
	}
}

// BenchmarkEnvScheduleCancel measures the timer-churn path a disk's
// idle timeout exercises: schedule a far-future event, cancel it, and
// fire one near event per cycle.
func BenchmarkEnvScheduleCancel(b *testing.B) {
	env := NewEnv()
	nop := func(any) {}
	var tick func(any)
	tick = func(any) { env.ScheduleArg(1.0, tick, nil) }
	env.ScheduleArg(1.0, tick, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := env.ScheduleArg(53.3, nop, nil)
		ev.Cancel()
		env.Step()
	}
}

// floodRun drives the shapes a large farm gives the queue: n idle
// timers at one instant, armed before the first pop as disk
// construction arms them, behind an arrival chain on FIFO positions
// reserved after them; while that flood drains as a run, its callbacks
// push at the same instant (at reserved positions ahead of it and at
// fresh ones behind it) and cancel the run's head, a stretch behind
// it, its middle and its tail; and each flood event arms a second
// flood at t2, which reaches the queue as an all-equal top. It returns
// the id of every fired event and Pending() after every step. runPaths,
// when non-nil, records whether each flood was served from a run and
// through which refill.
func floodRun(env *Env, runPaths *[2]string) (fired, pending []int) {
	const n = 1 << 14
	const t1, t2 = 53.3, 63.3
	var first, second [n]Event
	rec := func(a any) { fired = append(fired, a.(int)) }
	// Positions reserved before the floods are armed rank ahead of
	// every flood event at the same instant.
	early := env.ReserveSeqs(6)
	notePath := func(k int) {
		if runPaths == nil || runPaths[k] != "" {
			return
		}
		q := &env.q
		switch {
		case q.head >= len(q.run):
			runPaths[k] = "heap"
		case q.rungW > 0:
			runPaths[k] = "drained bucket"
		default:
			runPaths[k] = "degenerate reseed"
		}
	}
	onSecond := func(a any) {
		i := a.(int)
		fired = append(fired, n+i)
		notePath(1)
		// The first flood's cancelled events armed nothing here, so
		// this run is 0, 4, 5, ..., n-2 minus the gaps below.
		switch i {
		case 0:
			second[4].Cancel() // the run's head
			second[n/4].Cancel()
			second[n-2].Cancel() // its tail
			env.AtArgSeq(t2, rec, -4, early+3)
			env.ScheduleArg(0, rec, -5)
		case 7:
			second[8].Cancel() // the head again, and the entry behind it
			second[9].Cancel()
			env.AtArgSeq(t2, rec, -6, early+4)
		case 4, 8, 9, 20, 21, n / 4, n - 2:
			panic("cancelled event fired")
		}
	}
	onFirst := func(a any) {
		i := a.(int)
		fired = append(fired, i)
		notePath(0)
		switch i {
		case 0:
			first[1].Cancel() // the run's head
			first[2].Cancel() // and the stretch behind it
			first[3].Cancel()
			first[n/2].Cancel()
			first[n-1].Cancel() // its tail
			env.AtArgSeq(t1, rec, -1, early)
			env.ScheduleArg(0, rec, -2)
		case 10:
			env.AtArgSeq(t1, rec, -3, early+1)
			first[n/2-1].Cancel() // the middle again, beside the first
		case n/2 + 1:
			first[5].Cancel() // fired already: a no-op
		case n - 2:
			first[n-1].Cancel() // cancelled already: a no-op
			env.AtArgSeq(t1, rec, -7, early+2)
			// Cancelled in the top, these move its last events out of
			// FIFO order before the degenerate reseed sorts it.
			second[20].Cancel()
			second[21].Cancel()
		case 1, 2, 3, 100, 200, 300, n/2 - 1, n / 2, n - 1:
			panic("cancelled event fired")
		}
		second[i] = env.AtArg(t2, onSecond, i)
	}
	for i := range first {
		first[i] = env.ScheduleArg(t1, onFirst, i)
	}
	arrivals := []Time{0, 10, 30, t1 - 1e-9, t1, t1}
	arrSeq := env.ReserveSeqs(len(arrivals))
	next := 0
	var arrive func(any)
	arrive = func(any) {
		k := next
		next++
		if next < len(arrivals) {
			env.AtArgSeq(arrivals[next], arrive, nil, arrSeq+uint64(next))
		}
		fired = append(fired, 2*n+k)
		// As a request cancels its disk's idle timer: each cancel moves
		// the bucket's last timer out of FIFO order before it drains.
		switch k {
		case 1:
			first[100].Cancel()
		case 2:
			first[200].Cancel()
			first[300].Cancel()
		}
	}
	env.AtArgSeq(arrivals[0], arrive, nil, arrSeq)
	for env.Step() {
		pending = append(pending, env.Pending())
	}
	return fired, pending
}

// Floods of simultaneous timers drain as sorted runs: the calendar
// queue must fire them, and everything pushed or cancelled around
// them, exactly as the legacy heap does, with the same Pending() at
// every step.
func TestFloodMatchesLegacyHeap(t *testing.T) {
	var paths [2]string
	gotFired, gotPending := floodRun(NewEnv(), &paths)
	wantFired, wantPending := floodRun(NewLegacyHeapEnv(), nil)
	if paths != [2]string{"drained bucket", "degenerate reseed"} {
		t.Fatalf("floods served via %q, want a drained bucket then a degenerate reseed", paths)
	}
	if len(gotFired) != len(wantFired) || len(gotPending) != len(wantPending) {
		t.Fatalf("calendar fired %d events (%d steps), legacy heap %d (%d steps)",
			len(gotFired), len(gotPending), len(wantFired), len(wantPending))
	}
	for i := range wantFired {
		if gotFired[i] != wantFired[i] || gotPending[i] != wantPending[i] {
			t.Fatalf("step %d: calendar fired %d with %d pending, legacy heap %d with %d",
				i, gotFired[i], gotPending[i], wantFired[i], wantPending[i])
		}
	}
	// The floods lose 9 and 9+7 events to cancels; 7 same-instant
	// pushes and 6 arrivals join them.
	if n := 1 << 14; len(wantFired) != (n-9)+(n-16)+7+6 {
		t.Fatalf("fired %d events, want %d", len(wantFired), (n-9)+(n-16)+7+6)
	}
}

// sortRun must sort any batch by (at, seq): the nearly sorted shapes it
// lifts and merges (FIFO order broken by swap-with-last cancels and by
// late pushes of earlier events, singly or in stretches) and the shapes
// it sorts whole.
func TestSortRunSortsAnyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q calQueue
	for round := 0; round < 400; round++ {
		n := 1 + rng.Intn(3000)
		batch := make([]*node, n)
		for i := range batch {
			// Few distinct times, so most order is decided by seq.
			batch[i] = &node{at: Time(i * 4 / n), seq: uint64(i)}
		}
		switch round % 4 {
		case 0: // cancels: the last event moves into a random hole
			for k := rng.Intn(n/8 + 1); k > 0; k-- {
				i := rng.Intn(len(batch))
				batch[i] = batch[len(batch)-1]
				batch = batch[:len(batch)-1]
			}
		case 1: // late pushes of earlier events, alone or in stretches
			for k := rng.Intn(20); k > 0; k-- {
				i, j := rng.Intn(n), rng.Intn(n)
				if i > j {
					i, j = j, i
				}
				stretch := batch[i : i+rng.Intn(j-i+1)]
				moved := append([]*node(nil), stretch...)
				rest := append(batch[:i:i], batch[i+len(stretch):]...)
				batch = append(rest, moved...)
			}
		case 2:
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		case 3:
			slices.Reverse(batch)
		}
		want := slices.Clone(batch)
		slices.SortFunc(want, cmpNodes)
		q.sortRun(batch)
		if !slices.Equal(batch, want) {
			t.Fatalf("round %d: sortRun left %d events out of (at, seq) order", round, n)
		}
	}
}
