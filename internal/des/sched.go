// Event scheduler implementations.
//
// The kernel's contract with its scheduler is a strict total order: events
// execute in ascending (at, seq), where seq is the global schedule counter.
// Any structure that honours that order is digest-equivalent — the
// simulation cannot observe which one is underneath.  Two are provided:
//
//   - ladderQueue (the default): a ladder queue in the style of Tang,
//     Goh & Thng.  Amortized O(1) enqueue and dequeue via time-bucketed
//     rungs, O(1) cancellation, no comparison work proportional to the
//     pending-event count.  This is what lets the simulated machine grow
//     from 32 to 1,024 nodes without the scheduler becoming the hot path.
//     Cancellation removes the event outright wherever it sits.
//   - heapSched: the original container/heap binary heap, O(log n) per
//     operation.  Kept behind NewEngineWithScheduler so the determinism
//     suite can assert bit-identical digests across both implementations.
package des

import (
	"container/heap"

	"hyades/internal/units"
)

// scheduler is the pending-event set.  pop and peek return events in
// ascending (at, seq) order; cancel removes a pending event outright,
// so the caller may recycle it at once.  len counts pending events.
type scheduler interface {
	push(ev *event)
	pop() *event
	peek() *event
	cancel(ev *event)
	len() int
}

// SchedulerKind selects the event-queue implementation behind an Engine.
type SchedulerKind uint8

const (
	// SchedLadder is the default ladder queue: O(1) amortized
	// enqueue/dequeue/cancel.
	SchedLadder SchedulerKind = iota
	// SchedHeap is the original binary heap, retained for the
	// scheduler-equivalence determinism tests.
	SchedHeap
)

// ---------------------------------------------------------------------------
// Binary heap (the original scheduler).

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// heapSched adapts eventHeap to the scheduler interface.  Cancellation
// is heap.Remove, O(log n) with index maintenance on every swap.
type heapSched struct{ h eventHeap }

func (s *heapSched) push(ev *event) { heap.Push(&s.h, ev) }
func (s *heapSched) pop() *event {
	if len(s.h) == 0 {
		return nil
	}
	return heap.Pop(&s.h).(*event)
}
func (s *heapSched) peek() *event {
	if len(s.h) == 0 {
		return nil
	}
	return s.h[0]
}
func (s *heapSched) cancel(ev *event) { heap.Remove(&s.h, ev.idx) }
func (s *heapSched) len() int         { return len(s.h) }

// ---------------------------------------------------------------------------
// Ladder queue.

const (
	// ladderBuckets is the bucket count per rung.  With 64 buckets a
	// spawn divides a bucket's span by 64, so even a 1-hour watchdog
	// horizon (3.6e15 ps) refines to single-picosecond buckets in
	// ceil(log64 3.6e15) = 9 levels — but in practice the sort
	// threshold stops refinement after one or two.
	ladderBuckets = 64
	// ladderSortThreshold: a bucket with at most this many events is
	// sorted straight into bottom rather than spawning a finer rung.
	// Sorting this many events costs tens of nanoseconds apiece;
	// refining one level deeper costs a rung spawn plus a re-add per
	// event, so the break-even sits well above the bucket count (64) —
	// a threshold below it risks a pathological extra level whenever a
	// bucket splits just unevenly enough.
	ladderSortThreshold = 128
	// ladderMaxRungs bounds refinement depth; a bucket at the limit is
	// sorted regardless of size (degenerate same-timestamp storms hit
	// the width==1 stop long before this).
	ladderMaxRungs = 8
)

// Values of event.rng identifying the container an event sits in; a
// value >= 0 is an index into ladderQueue.rungs.
const (
	rngTop    int8 = -1
	rngBottom int8 = -2
)

// rung is one refinement level: ladderBuckets equal-width time buckets
// starting at start.  cur indexes the first bucket not yet drained;
// count is the number of events currently stored across all buckets.
// Buckets are unsorted — order is imposed only when a bucket's events
// reach bottom.  Widths are rounded up to powers of two (width ==
// 1<<shift) so the per-push bucket index is a shift, not an int64
// division — the single hottest instruction in the scheduler.
type rung struct {
	start   units.Time
	width   units.Time
	shift   uint
	cur     int
	count   int
	buckets [ladderBuckets][]*event
}

// curStart is the left edge of the first undrained bucket: events below
// it belong to a deeper rung or to bottom.
func (r *rung) curStart() units.Time {
	return r.start + units.Time(r.cur)*r.width
}

// add places ev in its bucket.  The caller guarantees
// curStart <= ev.at < start + ladderBuckets*width.
func (r *rung) add(ev *event, rngIdx int8) {
	b := int((ev.at - r.start) >> r.shift)
	ev.rng = rngIdx
	ev.bkt = int32(b)
	ev.idx = len(r.buckets[b])
	r.buckets[b] = append(r.buckets[b], ev)
	r.count++
}

// reset clears the rung for reuse, keeping bucket capacity.
func (r *rung) reset() {
	for i := range r.buckets {
		b := r.buckets[i]
		for j := range b {
			b[j] = nil
		}
		r.buckets[i] = b[:0]
	}
	r.cur, r.count = 0, 0
	r.start, r.width = 0, 0
}

// ladderQueue is the default scheduler.  Structure, coarse to fine:
//
//	top    — unsorted spill list for events at or beyond topStart
//	rungs  — bucketed refinement levels (rungs[0] coarsest); each
//	         deeper rung subdivides one bucket of its parent
//	bottom — the sorted head of the timeline, drained by cursor
//
// Ordering invariant: every event in bottom[cursor:] precedes (in
// (at, seq) order) every event in any rung, and every rung precedes all
// rungs above it and top.  Pops therefore come from bottom only, and
// refilling bottom from the deepest rung's next bucket preserves the
// global total order — which is what makes the ladder digest-equivalent
// to the heap.
//
// Cancellation is eager everywhere.  Top and rung buckets are unsorted,
// so a cancelled event is swap-removed in O(1) via its (rng, bkt, idx)
// location stamp.  In the sorted bottom it is found by binary search on
// (at, seq) and the gap closed by a memmove.  Bottom is not bounded by
// ladderSortThreshold: once the first rung has been built from a span
// that includes 1-hour watchdog arms, its buckets are minutes wide, so
// nearly every near-future push lands directly in bottom.  Cancelled
// events left there as tombstones (go-back-N retransmit timers,
// deadline waits) would outnumber the live ones — a mean of ~490
// entries around ~22 live on a lossy 16-rank run — and every insertion
// would pay to move them.
type ladderQueue struct {
	top            []*event
	topMin, topMax units.Time // conservative bounds over top (stale after cancels: min only ever too low, max too high — never falsely equal)
	topStart       units.Time // events at/after this go to top
	rungs          []*rung
	spare          []*rung // retired rungs, bucket capacity preserved
	bottom         []*event
	cursor         int
	live           int
}

func (l *ladderQueue) len() int { return l.live }

func (l *ladderQueue) push(ev *event) {
	l.live++
	if ev.at >= l.topStart {
		ev.rng = rngTop
		ev.idx = len(l.top)
		if len(l.top) == 0 {
			l.topMin, l.topMax = ev.at, ev.at
		} else {
			if ev.at < l.topMin {
				l.topMin = ev.at
			}
			if ev.at > l.topMax {
				l.topMax = ev.at
			}
		}
		l.top = append(l.top, ev)
		return
	}
	// Coarse to fine: the first rung whose undrained span contains the
	// event takes it.  Anything earlier than every rung's cursor lands
	// in the sorted bottom.
	for i, r := range l.rungs {
		if ev.at >= r.curStart() {
			r.add(ev, int8(i))
			return
		}
	}
	l.insertBottom(ev)
}

// insertBottom places ev into the sorted region bottom[cursor:].  The
// engine clamps timestamps to the present, so the insertion point is
// never before cursor; ev carries the newest seq, so among equal
// timestamps it sorts last — FIFO preserved.
//
// The drained prefix bottom[:cursor] is dead weight: in steady state
// every pop of a wake event triggers a push of the next one into
// bottom, so the region never fully drains and a plain append would
// grow the backing array without bound (the dominant allocation of the
// whole simulator before compaction).  Sliding the live tail back to
// the front once the prefix outweighs it keeps the array at O(pending)
// while preserving order, so the fix is invisible to the event
// sequence.
func (l *ladderQueue) insertBottom(ev *event) {
	ev.rng = rngBottom
	if c := l.cursor; c >= 32 && c >= len(l.bottom)-c {
		n := copy(l.bottom, l.bottom[c:])
		clear(l.bottom[n:])
		l.bottom = l.bottom[:n]
		l.cursor = 0
	}
	lo := l.searchBottom(ev)
	l.bottom = append(l.bottom, nil)
	copy(l.bottom[lo+1:], l.bottom[lo:])
	l.bottom[lo] = ev
}

func (l *ladderQueue) peek() *event {
	for l.cursor >= len(l.bottom) {
		l.bottom = l.bottom[:0]
		l.cursor = 0
		if !l.refill() {
			// Fully drained: reopen top at time zero so the next epoch
			// of pushes takes the O(1) append path again.
			l.topStart = 0
			return nil
		}
	}
	return l.bottom[l.cursor]
}

func (l *ladderQueue) pop() *event {
	ev := l.peek()
	if ev == nil {
		return nil
	}
	l.bottom[l.cursor] = nil
	l.cursor++
	l.live--
	return ev
}

func (l *ladderQueue) cancel(ev *event) {
	l.live--
	switch ev.rng {
	case rngBottom:
		i := l.searchBottom(ev)
		n := copy(l.bottom[i:], l.bottom[i+1:])
		l.bottom[i+n] = nil
		l.bottom = l.bottom[:i+n]
	case rngTop:
		last := len(l.top) - 1
		moved := l.top[last]
		l.top[ev.idx] = moved
		moved.idx = ev.idx
		l.top[last] = nil
		l.top = l.top[:last]
	default:
		r := l.rungs[ev.rng]
		b := r.buckets[ev.bkt]
		last := len(b) - 1
		moved := b[last]
		b[ev.idx] = moved
		moved.idx = ev.idx
		b[last] = nil
		r.buckets[ev.bkt] = b[:last]
		r.count--
	}
}

// searchBottom returns the first position in bottom[cursor:] not
// ordered before ev: its insertion point, or, since (at, seq) keys are
// unique, its own slot when it is already there.
func (l *ladderQueue) searchBottom(ev *event) int {
	lo, hi := l.cursor, len(l.bottom)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventBefore(l.bottom[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// refill moves the next timeline segment into the (empty) bottom and
// sorts it.  It reports false when the whole queue is physically empty.
func (l *ladderQueue) refill() bool {
	for {
		if n := len(l.rungs); n > 0 {
			r := l.rungs[n-1]
			if r.count == 0 {
				l.dropRung()
				continue
			}
			for len(r.buckets[r.cur]) == 0 {
				r.cur++
			}
			b := r.buckets[r.cur]
			bucketStart := r.curStart()
			if len(b) <= ladderSortThreshold || r.width <= 1 || n >= ladderMaxRungs {
				l.bottom = append(l.bottom, b...)
				for _, ev := range l.bottom {
					ev.rng = rngBottom
				}
				sortEvents(l.bottom)
			} else {
				// Oversized bucket: refine into a child rung covering
				// exactly this bucket's span.
				child := l.newRung(bucketStart, (r.width+ladderBuckets-1)/ladderBuckets)
				ci := int8(n)
				for _, ev := range b {
					child.add(ev, ci)
				}
				l.rungs = append(l.rungs, child)
			}
			for j := range b {
				b[j] = nil
			}
			r.buckets[r.cur] = b[:0]
			r.count -= len(b)
			r.cur++
			if len(l.bottom) > 0 {
				return true
			}
			continue
		}
		if len(l.top) == 0 {
			return false
		}
		if l.topMin == l.topMax {
			// Every event in top shares one timestamp: bucketing cannot
			// subdivide, sort straight into bottom (by seq).
			l.bottom = append(l.bottom, l.top...)
			for _, ev := range l.bottom {
				ev.rng = rngBottom
			}
			sortEvents(l.bottom)
			l.clearTop()
			return true
		}
		r := l.newRung(l.topMin, (l.topMax-l.topMin)/ladderBuckets+1)
		for _, ev := range l.top {
			r.add(ev, 0)
		}
		l.rungs = append(l.rungs, r)
		l.clearTop()
	}
}

// clearTop empties top (capacity preserved) and advances topStart past
// everything that was in it, so later pushes cannot land behind the
// rung just built.
func (l *ladderQueue) clearTop() {
	for i := range l.top {
		l.top[i] = nil
	}
	l.top = l.top[:0]
	l.topStart = l.topMax + 1
}

func (l *ladderQueue) newRung(start, width units.Time) *rung {
	var r *rung
	if n := len(l.spare); n > 0 {
		r = l.spare[n-1]
		l.spare[n-1] = nil
		l.spare = l.spare[:n-1]
	} else {
		r = new(rung)
	}
	// Round the requested width up to a power of two.  A rung may then
	// cover more than the span it refines, which is harmless — bucket
	// indices only shrink — and buys a shift in place of a division on
	// every add.
	s := uint(0)
	w := int64(1)
	for w < int64(width) {
		w <<= 1
		s++
	}
	r.start, r.width, r.shift = start, units.Time(w), s
	return r
}

func (l *ladderQueue) dropRung() {
	n := len(l.rungs)
	r := l.rungs[n-1]
	l.rungs[n-1] = nil
	l.rungs = l.rungs[:n-1]
	r.reset()
	l.spare = append(l.spare, r)
}

// ---------------------------------------------------------------------------
// Sorting.  (at, seq) keys are unique, so any comparison sort yields
// the one total order — determinism does not depend on stability.  Own
// implementation because sort.Slice allocates (closure + interface
// header) on the event hot path.

func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// sortEvents sorts s ascending by (at, seq): insertion sort for small
// runs, median-of-three quicksort above that.
func sortEvents(s []*event) {
	for len(s) > 24 {
		p := partitionEvents(s)
		if p < len(s)-p-1 {
			sortEvents(s[:p])
			s = s[p+1:]
		} else {
			sortEvents(s[p+1:])
			s = s[:p]
		}
	}
	for i := 1; i < len(s); i++ {
		ev := s[i]
		j := i - 1
		for j >= 0 && eventBefore(ev, s[j]) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = ev
	}
}

func partitionEvents(s []*event) int {
	n := len(s)
	m := n / 2
	// Median of first/middle/last as pivot, parked at the end.
	if eventBefore(s[m], s[0]) {
		s[m], s[0] = s[0], s[m]
	}
	if eventBefore(s[n-1], s[0]) {
		s[n-1], s[0] = s[0], s[n-1]
	}
	if eventBefore(s[n-1], s[m]) {
		s[n-1], s[m] = s[m], s[n-1]
	}
	s[m], s[n-2] = s[n-2], s[m]
	pivot := s[n-2]
	i := 0
	for j := 0; j < n-2; j++ {
		if eventBefore(s[j], pivot) {
			s[i], s[j] = s[j], s[i]
			i++
		}
	}
	s[i], s[n-2] = s[n-2], s[i]
	return i
}
