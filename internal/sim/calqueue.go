package sim

import (
	"math"
	"slices"
)

// calQueue is the pending-event structure behind Env: a single-level
// ladder / calendar queue specialized for the timer populations a disk
// farm generates (many near-uniform arrival and spin timers, a thin
// tail of far-future events, and whole-farm bursts of simultaneous
// timers).
//
// Layout. Events live in one of four regions ordered by time:
//
//	run     — the bucket drained last (or a zero-span top), sorted
//	          once by (at, seq) and read from its head; every entry
//	          has at < bottomMax.
//	bottom  — a small binary min-heap on (at, seq) holding the events
//	          pushed with at < bottomMax since that drain.
//	rungs   — numRungs append-only buckets of *unsorted* events
//	          covering [rungBase, rungEnd) at fixed width rungW. A
//	          bucket is sorted at most once, when the clock reaches it
//	          and it becomes the run.
//	top     — one unsorted slice for everything at or past rungEnd.
//
// Push is O(1) for rung and top placements and O(log b) for the (small)
// bottom heap; pop is O(1) from the run or O(log b) from the heap, plus
// each event's share of one bucket sort. When run, bottom and rungs
// drain, the queue re-seeds: it measures the top's span, picks a fresh
// bucket width, and deals the top into new rungs — so the width adapts
// to whatever timer distribution the simulation is currently
// generating. A span of zero (a batch of simultaneous events) deals no
// rungs: the batch becomes the run directly. A lone top event with
// every other region empty is already the minimum and pops in place.
//
// The run is what keeps simultaneous timers cheap. Every disk of a farm
// arms its idle timeout at t = 0, so a 2^20-disk farm puts 2^20 events
// with one timestamp into one bucket; as a heap that bucket would cost
// about 20 sift levels per pop, as a sorted run it costs one sort and
// an index increment per pop. Pushes that land below bottomMax while
// the run drains go to the heap, which therefore stays small.
//
// Ordering. The pop order is exactly the global (at, seq) order the
// binary heap produced, which is what the simulator's byte-identity
// guarantee rests on: region boundaries are time partitions ({run,
// bottom} < bucket k < bucket k+1 < top holds as at-ranges), equal-time
// events always land in the same region or in the run/bottom pair, the
// run is sorted by (at, seq), and pop takes the smaller of the run head
// and the heap root by the same (at, seq) comparison the heap applies
// internally. The legacy kernel (NewLegacyHeapEnv) pins bottomMax to
// +Inf, collapsing the structure to the plain binary heap the property
// tests compare against (its run stays empty).
//
// Cancellation is eager: remove() unlinks an event from whichever
// region holds it in O(1) (rungs, top: swap-with-last; run: a nil
// tombstone) or O(log b) (bottom), so cancelled events are never
// counted — a spin-down timer cancelled by an arrival is reclaimed at
// cancel time, keeping the queue length equal to the live event count
// under timer churn. A run tombstone keeps the run sorted without a
// shift; the head skips tombstones as soon as it reaches them, at pop
// and at cancel time, so run[head] is always live.
type calQueue struct {
	run       []*node // drained bucket sorted by (at, seq); nil entries are cancelled
	head      int     // next run entry; run[head] is live whenever head < len(run)
	lifted    []*node // sortRun's scratch, kept for its capacity
	bottom    []*node
	bottomMax Time // exclusive bound of the run and bottom regions; +Inf = legacy heap mode

	rungs    [numRungs][]*node
	rungCnt  int  // events across all rungs
	cur      int  // next rung to drain
	rungBase Time // start of rung 0's range, fixed for the epoch
	rungW    Time // bucket width; 0 = rungs inactive (before first re-seed)

	top  []*node
	size int
}

// numRungs is the bucket count dealt at every re-seed. 256 keeps the
// per-Env footprint at a few KiB of slice headers while making the
// expected bucket population (pending events / numRungs) small enough
// that a drained bucket sorts cache-resident.
const numRungs = 256

// where values: a node is in the run, the bottom heap, a rung (where =
// rung index), the top, or nowhere (free / fired / cancelled).
const (
	whereNone   int32 = -1
	whereBottom int32 = -2
	whereTop    int32 = -3
	whereRun    int32 = -4
)

// bucketStart returns the inclusive lower bound of rung j. Every
// boundary the queue ever compares against is computed through this one
// expression — never through an accumulated running sum — so a given
// timestamp maps to the same bucket no matter when in the epoch it is
// pushed. (An accumulated rungStart drifts: two events with the *same*
// timestamp pushed at different drain positions could land in different
// buckets, and the earlier bucket would fire first, breaking the seq
// tie-break.)
func (q *calQueue) bucketStart(j int) Time { return q.rungBase + Time(j)*q.rungW }

// rungEnd returns the exclusive bound of the rung region.
func (q *calQueue) rungEnd() Time { return q.bucketStart(numRungs) }

// push files a node into the region owning its timestamp.
func (q *calQueue) push(n *node) {
	q.size++
	switch {
	case n.at < q.bottomMax:
		q.bottomPush(n)
	case q.rungW > 0 && n.at < q.rungEnd():
		q.rungPush(n)
	default:
		n.where = whereTop
		n.slot = int32(len(q.top))
		q.top = append(q.top, n)
	}
}

// rungPush places a node into the bucket covering n.at. Callers
// guarantee bottomMax <= n.at < rungEnd().
func (q *calQueue) rungPush(n *node) {
	j := int((n.at - q.rungBase) / q.rungW)
	// The float division only approximates the bucket index, and both
	// error directions break ordering: rounding *up* puts the event in
	// a bucket that drains after its timestamp; rounding *down* drains
	// it into the run a bucket early with at >= bottomMax,
	// where it would fire ahead of a smaller-timestamp event still
	// waiting in its rung. Bracket j so that, in the exact float
	// arithmetic bucketStart uses, start(j) <= at < start(j+1) (the
	// upper bound degenerates to rungEnd for the last bucket, which
	// push already checked).
	if j > numRungs-1 {
		j = numRungs - 1
	}
	if j < q.cur {
		j = q.cur // at >= bottomMax = start(cur), so cur is a valid home
	}
	for j > q.cur && q.bucketStart(j) > n.at {
		j--
	}
	for j < numRungs-1 && q.bucketStart(j+1) <= n.at {
		j++
	}
	n.where = int32(j)
	n.slot = int32(len(q.rungs[j]))
	q.rungs[j] = append(q.rungs[j], n)
	q.rungCnt++
}

// drainNextRung advances to the next non-empty bucket and makes it the
// run, moving bottomMax to the bucket's end. Callers guarantee the run
// is consumed; its emptied array becomes the bucket's, so the two swap
// storage instead of allocating.
func (q *calQueue) drainNextRung() {
	for len(q.rungs[q.cur]) == 0 {
		q.cur++
	}
	b := q.rungs[q.cur]
	q.rungs[q.cur] = q.run[:0]
	q.rungCnt -= len(b)
	q.cur++
	q.bottomMax = q.bucketStart(q.cur)
	q.setRun(b)
}

// setRun makes batch the run: sorted by (at, seq), each entry
// recording its index for an O(1) cancel. A one-event batch goes to the
// heap instead, where it costs no sort.
func (q *calQueue) setRun(batch []*node) {
	if len(batch) == 1 {
		q.bottomPush(batch[0])
		batch[0] = nil
		q.run = batch[:0]
		return
	}
	q.sortRun(batch)
	for i, n := range batch {
		n.where = whereRun
		n.slot = int32(i)
	}
	q.run = batch
	q.head = 0
}

// sortRun sorts batch by (at, seq). A bucket of simultaneous timers is
// nearly sorted as it stands: its events arrive in FIFO order, a
// cancel moves the bucket's last event into the hole it leaves, and a
// few events pushed late belong earlier. So one pass keeps a sorted
// prefix in place and, wherever an event undercuts the last kept one,
// lifts both aside: at least one of the two is out of place, and
// lifting both keeps the prefix sorted without deciding which. The
// lifted events are sorted alone and merged back from the end. When
// more than an eighth of the batch is lifted, it is sorted whole
// instead.
func (q *calQueue) sortRun(batch []*node) {
	kept, lifted := batch[:0], q.lifted[:0]
	for i, n := range batch {
		k := len(kept)
		if k == 0 || !q.less(n, kept[k-1]) {
			kept = append(kept, n)
			continue
		}
		lifted = append(lifted, kept[k-1], n)
		kept = kept[:k-1]
		if len(lifted) > len(batch)/8 {
			copy(batch[len(kept):i+1], lifted)
			clear(lifted)
			q.lifted = lifted[:0]
			slices.SortFunc(batch, cmpNodes)
			return
		}
	}
	slices.SortFunc(lifted, cmpNodes)
	// kept fills batch[:len(kept)]; merging from the end writes each
	// slot only after the kept event there has moved.
	i := len(kept) - 1
	for j, w := len(lifted)-1, len(batch)-1; j >= 0; w-- {
		if i >= 0 && q.less(lifted[j], kept[i]) {
			batch[w] = kept[i]
			i--
		} else {
			batch[w] = lifted[j]
			j--
		}
	}
	clear(lifted)
	q.lifted = lifted[:0]
}

// skipTombstones moves the run head past cancelled entries and empties
// a consumed run, keeping its capacity.
func (q *calQueue) skipTombstones() {
	for q.head < len(q.run) && q.run[q.head] == nil {
		q.head++
	}
	if q.head == len(q.run) {
		q.run = q.run[:0]
		q.head = 0
	}
}

// reseed deals the unsorted top into a fresh set of rungs sized to the
// top's observed span — the width-adaptation step of the calendar
// queue. Degenerate spans (all equal, or non-finite timestamps) fall
// back to making the whole top the run, which is always correct.
// Callers guarantee the run, bottom and rungs are empty.
func (q *calQueue) reseed() {
	tmin, tmax := q.top[0].at, q.top[0].at
	for _, n := range q.top[1:] {
		if n.at < tmin {
			tmin = n.at
		}
		if n.at > tmax {
			tmax = n.at
		}
	}
	batch := q.top
	w := (tmax - tmin) / Time(numRungs-1)
	if w <= 0 || math.IsInf(w, 1) || math.IsNaN(w) {
		// Zero span or unrepresentable width: no bucketing possible.
		// Disable rung routing (stale epoch boundaries must not claim
		// new pushes) and make the batch the run. The new bound must be
		// *strictly* above tmax — bottomMax is exclusive, and the batch
		// includes events at tmax, so a later push at exactly tmax has
		// to reach the bottom heap, where pop compares its seq with the
		// run's (reserved FIFO positions make smaller-seq-pushed-later a
		// real case). Nextafter is the tightest such bound; it maps +Inf
		// to +Inf, pinning non-finite timestamps to pure heap mode.
		q.rungW = 0
		q.bottomMax = math.Nextafter(tmax, math.Inf(1))
		q.top = q.run[:0]
		q.setRun(batch)
		return
	}
	q.top = q.top[:0]
	q.cur = 0
	q.rungBase = tmin
	q.rungW = w
	q.bottomMax = tmin
	q.rungCnt = 0
	for _, n := range batch {
		q.rungPush(n)
	}
}

// peek returns the earliest live event without removing it, or nil,
// refilling the run from the rungs or the top when the run and the
// bottom heap are both empty.
func (q *calQueue) peek() *node {
	for {
		if q.head < len(q.run) {
			n := q.run[q.head]
			if len(q.bottom) > 0 && q.less(q.bottom[0], n) {
				return q.bottom[0]
			}
			return n
		}
		if len(q.bottom) > 0 {
			return q.bottom[0]
		}
		switch {
		case q.rungCnt > 0:
			q.drainNextRung()
		case len(q.top) == 1:
			// Every other region is empty, so the lone event is the
			// minimum where it stands; pop takes it from the top.
			return q.top[0]
		case len(q.top) > 0:
			q.reseed()
		default:
			return nil
		}
	}
}

// pop removes and returns the earliest live event, or nil.
func (q *calQueue) pop() *node {
	n := q.peek()
	if n == nil {
		return nil
	}
	switch n.where {
	case whereRun:
		q.run[q.head] = nil
		q.head++
		q.skipTombstones()
	case whereBottom:
		q.bottomRemove(0)
	default: // the lone top event
		q.top[0] = nil
		q.top = q.top[:0]
	}
	n.where = whereNone
	q.size--
	return n
}

// remove unlinks a live node from whichever region holds it (the eager
// half of Cancel). The caller recycles the node.
func (q *calQueue) remove(n *node) {
	switch n.where {
	case whereRun:
		q.run[n.slot] = nil
		if int(n.slot) == q.head {
			q.skipTombstones()
		}
	case whereBottom:
		q.bottomRemove(int(n.slot))
	case whereTop:
		q.swapRemove(&q.top, int(n.slot))
	case whereNone:
		return
	default:
		r := int(n.where)
		q.swapRemove(&q.rungs[r], int(n.slot))
		q.rungCnt--
	}
	n.where = whereNone
	q.size--
}

// swapRemove deletes slot i from an unsorted bucket, patching the
// moved node's slot index.
func (q *calQueue) swapRemove(s *[]*node, i int) {
	b := *s
	last := len(b) - 1
	if i != last {
		b[i] = b[last]
		b[i].slot = int32(i)
	}
	b[last] = nil
	*s = b[:last]
}

// less orders the bottom heap and the run by (at, seq): time first,
// scheduling order within a timestamp (the FIFO tie-break the
// determinism guarantee depends on).
func (q *calQueue) less(a, b *node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// cmpNodes is less as a three-way comparison, for slices.SortFunc.
func cmpNodes(a, b *node) int {
	switch {
	case a.at < b.at:
		return -1
	case a.at > b.at:
		return 1
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// bottomPush inserts into the bottom heap.
func (q *calQueue) bottomPush(n *node) {
	n.where = whereBottom
	i := len(q.bottom)
	n.slot = int32(i)
	q.bottom = append(q.bottom, n)
	q.siftUp(i)
}

// bottomRemove deletes heap slot i (the root for pop, any slot for
// Cancel), restoring the heap property around the hole.
func (q *calQueue) bottomRemove(i int) {
	last := len(q.bottom) - 1
	if i != last {
		q.bottom[i] = q.bottom[last]
		q.bottom[i].slot = int32(i)
	}
	q.bottom[last] = nil
	q.bottom = q.bottom[:last]
	if i < last {
		if !q.siftDown(i) {
			q.siftUp(i)
		}
	}
}

func (q *calQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q.bottom[i], q.bottom[parent]) {
			break
		}
		q.bottom[i], q.bottom[parent] = q.bottom[parent], q.bottom[i]
		q.bottom[i].slot = int32(i)
		q.bottom[parent].slot = int32(parent)
		i = parent
	}
}

// siftDown reports whether the node at i moved.
func (q *calQueue) siftDown(i int) bool {
	moved := false
	n := len(q.bottom)
	for {
		left := 2*i + 1
		if left >= n {
			return moved
		}
		best := left
		if right := left + 1; right < n && q.less(q.bottom[right], q.bottom[left]) {
			best = right
		}
		if !q.less(q.bottom[best], q.bottom[i]) {
			return moved
		}
		q.bottom[i], q.bottom[best] = q.bottom[best], q.bottom[i]
		q.bottom[i].slot = int32(i)
		q.bottom[best].slot = int32(best)
		i = best
		moved = true
	}
}
