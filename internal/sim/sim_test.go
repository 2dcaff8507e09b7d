package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	env := NewEnv()
	if env.Now() != 0 {
		t.Fatalf("Now()=%v want 0", env.Now())
	}
	if env.Pending() != 0 {
		t.Fatalf("Pending()=%d want 0", env.Pending())
	}
}

func TestScheduleOrdering(t *testing.T) {
	env := NewEnv()
	var order []int
	env.Schedule(3.0, func() { order = append(order, 3) })
	env.Schedule(1.0, func() { order = append(order, 1) })
	env.Schedule(2.0, func() { order = append(order, 2) })
	env.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order=%v want %v", order, want)
		}
	}
	if env.Now() != 3.0 {
		t.Errorf("final clock=%v want 3.0", env.Now())
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	env := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		env.Schedule(1.0, func() { order = append(order, i) })
	}
	env.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	env := NewEnv()
	var times []Time
	env.Schedule(1.0, func() {
		times = append(times, env.Now())
		env.Schedule(0.5, func() {
			times = append(times, env.Now())
		})
	})
	env.Run()
	if len(times) != 2 || times[0] != 1.0 || times[1] != 1.5 {
		t.Fatalf("times=%v want [1 1.5]", times)
	}
}

func TestZeroDelayFiresAtSameTime(t *testing.T) {
	env := NewEnv()
	fired := false
	env.Schedule(2.0, func() {
		env.Schedule(0, func() {
			if env.Now() != 2.0 {
				t.Errorf("zero-delay event at t=%v want 2.0", env.Now())
			}
			fired = true
		})
	})
	env.Run()
	if !fired {
		t.Fatal("zero-delay event did not fire")
	}
}

func TestCancel(t *testing.T) {
	env := NewEnv()
	fired := false
	ev := env.Schedule(1.0, func() { fired = true })
	ev.Cancel()
	env.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Canceled() || ev.Fired() {
		t.Errorf("Canceled()=%v Fired()=%v want true,false", ev.Canceled(), ev.Fired())
	}
}

func TestCancelFromCallback(t *testing.T) {
	env := NewEnv()
	fired := false
	var target Event
	target = env.Schedule(2.0, func() { fired = true })
	env.Schedule(1.0, func() { target.Cancel() })
	env.Run()
	if fired {
		t.Fatal("event cancelled at t=1 still fired at t=2")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	env := NewEnv()
	ev := env.Schedule(1.0, func() {})
	env.Run()
	if !ev.Fired() {
		t.Fatal("event did not fire")
	}
	ev.Cancel() // must not panic or change Fired
	if !ev.Fired() {
		t.Fatal("Fired() changed after post-hoc Cancel")
	}
}

func TestRunUntil(t *testing.T) {
	env := NewEnv()
	var fired []Time
	for _, d := range []Time{1, 2, 3, 4, 5} {
		d := d
		env.Schedule(d, func() { fired = append(fired, d) })
	}
	env.RunUntil(3.0)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3 (<=3.0)", len(fired))
	}
	if env.Now() != 3.0 {
		t.Fatalf("clock=%v want exactly 3.0", env.Now())
	}
	if env.Pending() != 2 {
		t.Fatalf("pending=%d want 2", env.Pending())
	}
	env.Run()
	if len(fired) != 5 {
		t.Fatalf("after Run fired=%d want 5", len(fired))
	}
}

func TestRunUntilAdvancesClockPastLastEvent(t *testing.T) {
	env := NewEnv()
	env.Schedule(1.0, func() {})
	env.RunUntil(100.0)
	if env.Now() != 100.0 {
		t.Fatalf("clock=%v want 100.0", env.Now())
	}
}

func TestAtAbsoluteTime(t *testing.T) {
	env := NewEnv()
	var got Time = -1
	env.At(7.25, func() { got = env.Now() })
	env.Run()
	if got != 7.25 {
		t.Fatalf("event fired at %v want 7.25", got)
	}
}

func TestScheduleNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(-1) did not panic")
		}
	}()
	NewEnv().Schedule(-1, func() {})
}

func TestAtPastPanics(t *testing.T) {
	env := NewEnv()
	env.Schedule(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("At(past) did not panic")
			}
		}()
		env.At(1, func() {})
	})
	env.Run()
}

func TestStepReturnsFalseWhenDrained(t *testing.T) {
	env := NewEnv()
	env.Schedule(1, func() {})
	if !env.Step() {
		t.Fatal("Step returned false with a pending event")
	}
	if env.Step() {
		t.Fatal("Step returned true on empty queue")
	}
}

func TestStepsCounterSkipsCancelled(t *testing.T) {
	env := NewEnv()
	env.Schedule(1, func() {})
	ev := env.Schedule(2, func() {})
	ev.Cancel()
	env.Schedule(3, func() {})
	env.Run()
	if env.Steps() != 2 {
		t.Fatalf("Steps()=%d want 2", env.Steps())
	}
}

// Property: any batch of events fires in nondecreasing time order and
// the clock never moves backwards.
func TestEventOrderProperty(t *testing.T) {
	prop := func(delaysRaw []uint16) bool {
		env := NewEnv()
		var fired []Time
		for _, d := range delaysRaw {
			env.Schedule(Time(d)/16.0, func() { fired = append(fired, env.Now()) })
		}
		env.Run()
		if len(fired) != len(delaysRaw) {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		// Every delay must be represented.
		want := make([]Time, len(delaysRaw))
		for i, d := range delaysRaw {
			want[i] = Time(d) / 16.0
		}
		sort.Float64s(want)
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a random subset prevents exactly that subset from
// firing.
func TestCancelSubsetProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		env := NewEnv()
		firedCount := 0
		cancelled := 0
		events := make([]Event, int(n)+1)
		for i := range events {
			events[i] = env.Schedule(rng.Float64()*100, func() { firedCount++ })
		}
		for i := range events {
			if rng.Intn(2) == 0 {
				events[i].Cancel()
				cancelled++
			}
		}
		env.Run()
		return firedCount == len(events)-cancelled
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int {
		env := NewEnv()
		rng := rand.New(rand.NewSource(42))
		var trace []int
		for i := 0; i < 200; i++ {
			i := i
			env.Schedule(rng.Float64()*10, func() {
				trace = append(trace, i)
				if rng.Intn(4) == 0 {
					j := i + 1000
					env.Schedule(rng.Float64(), func() { trace = append(trace, j) })
				}
			})
		}
		env.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// CurrentSeq tells which events at the current instant have fired: 0
// before the first Step, the firing event's rank inside its callback
// (and after a bare Step), NoEvent once RunUntil reaches the instant.
func TestCurrentSeq(t *testing.T) {
	env := NewEnv()
	if got := env.CurrentSeq(); got != 0 {
		t.Fatalf("before the first Step: CurrentSeq()=%d want 0", got)
	}
	base := env.ReserveSeqs(2)
	var got []uint64
	note := func(any) { got = append(got, env.CurrentSeq()) }
	env.AtArgSeq(1, note, nil, base+1)
	env.AtArgSeq(1, note, nil, base)
	env.Step()
	if env.CurrentSeq() != base {
		t.Fatalf("after a bare Step: CurrentSeq()=%d want %d", env.CurrentSeq(), base)
	}
	env.RunUntil(1)
	if env.CurrentSeq() != NoEvent {
		t.Fatalf("after RunUntil: CurrentSeq()=%d want NoEvent", env.CurrentSeq())
	}
	if want := []uint64{base, base + 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("callbacks saw ranks %v, want %v", got, want)
	}
}

// Deferred counts a transition an entity applied itself as a step,
// without queueing or firing anything.
func TestDeferredCountsAsStep(t *testing.T) {
	env := NewEnv()
	env.Schedule(1, func() { env.Deferred() })
	env.Deferred()
	env.RunUntil(2)
	if env.Steps() != 3 || env.Pending() != 0 {
		t.Fatalf("Steps()=%d Pending()=%d, want 3 and 0", env.Steps(), env.Pending())
	}
}

// Property: under random scheduling with exact ties, nested scheduling
// from callbacks, cancels anywhere in the heap and RunUntil chunks,
// the fired events are strictly increasing in (time, FIFO rank) —
// which, as plain scheduling only hands out growing ranks and never
// schedules into the past, is exactly the order a correct queue must
// produce — and every event fires unless it was cancelled first.
func TestHeapFiresInRankOrderProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := NewEnv()
		type ev struct {
			at        Time
			seq       uint64
			h         Event
			fired     bool
			cancelled bool
		}
		var evs []*ev
		var last *ev
		ok := true
		var schedule func()
		fire := func(a any) {
			e := a.(*ev)
			if e.cancelled || e.fired {
				ok = false
			}
			if last != nil && (e.at < last.at || e.at == last.at && e.seq <= last.seq) {
				ok = false
			}
			e.fired, last = true, e
			if rng.Intn(3) == 0 {
				schedule()
			}
			if rng.Intn(4) == 0 {
				c := evs[rng.Intn(len(evs))]
				if !c.fired && !c.cancelled {
					c.cancelled = true
				}
				c.h.Cancel()
			}
		}
		schedule = func() {
			e := &ev{at: env.Now() + Time(rng.Intn(40))/4}
			e.h = env.AtArg(e.at, fire, e)
			e.seq = e.h.n.seq
			evs = append(evs, e)
		}
		for i := 0; i < 400; i++ {
			schedule()
		}
		env.RunUntil(3)
		env.RunUntil(6)
		env.Run()
		for _, e := range evs {
			if e.fired == e.cancelled {
				return false
			}
		}
		return ok && env.Pending() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Same-time events must fire in scheduling order when they are
// scheduled interleaved with events at other times: five instants,
// ten events each, scheduled round-robin behind an earlier event.
func TestCrossRegionTieBreaking(t *testing.T) {
	env := NewEnv()
	var order []int
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
func (env *Env) nodesOwned() int { return len(env.free) + len(env.heap) + len(env.slab) }

// Timer churn: each cycle cancels the pending far timer and schedules a
// new one, as a timeout reset by every arrival would. With lazy
// deletion the queue grew by one dead record per cycle; with eager
// reclamation the pool must stay at O(1) records no matter how many
// cycles run.
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
	for i := 0; i < 100; i++ { // warm the pool and the heap
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

func BenchmarkEventLoop(b *testing.B) {
	env := NewEnv()
	var step func()
	n := 0
	step = func() {
		n++
		if n < b.N {
			env.Schedule(1.0, step)
		}
	}
	env.Schedule(1.0, step)
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

func BenchmarkEventQueueChurn(b *testing.B) {
	env := NewEnv()
	rng := rand.New(rand.NewSource(3))
	// Keep ~1000 events pending while churning through b.N.
	for i := 0; i < 1000; i++ {
		env.Schedule(rng.Float64()*1000, func() {})
	}
	fired := 0
	b.ReportAllocs()
	b.ResetTimer()
	for fired < b.N {
		if !env.Step() {
			break
		}
		fired++
		env.Schedule(rng.Float64()*1000, func() {})
	}
}

// BenchmarkEnvScheduleCancel measures the timer-churn path: schedule a
// far-future event, cancel it, and fire one near event per cycle.
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
