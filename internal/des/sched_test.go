package des

import (
	"math/rand"
	"testing"

	"hyades/internal/units"
)

// TestLadderMatchesHeapOrder drives a ladder queue and a binary heap
// with the same deterministic stream of pushes, pops and cancellations
// and requires identical pop order.  The mix is adversarial for the
// ladder: timestamp clusters (same-instant storms), far-future spikes
// (watchdog-like arms that are almost always cancelled), and pops
// interleaved with pushes so events land in top, rungs and bottom.
// Cancellations hit all three regions, the sorted bottom included,
// where they are removed eagerly rather than left as tombstones.
func TestLadderMatchesHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lad := &ladderQueue{}
	hp := &heapSched{}

	var now units.Time
	var seq uint64
	mk := func(at units.Time) (*event, *event) {
		seq++
		return &event{at: at, seq: seq}, &event{at: at, seq: seq}
	}
	// cancellable holds paired (ladder, heap) events still pending.
	type pair struct{ l, h *event }
	var cancellable []pair
	bottomCancels := 0

	popBoth := func() bool {
		le := lad.pop()
		he := hp.pop()
		if (le == nil) != (he == nil) {
			t.Fatalf("emptiness mismatch: ladder %v heap %v", le, he)
		}
		if le == nil {
			return false
		}
		if le.at != he.at || le.seq != he.seq {
			t.Fatalf("pop order diverged: ladder (%d,%d) heap (%d,%d)",
				le.at, le.seq, he.at, he.seq)
		}
		if le.at > now {
			now = le.at
		}
		return true
	}

	cancelBoth := func(p pair) {
		if p.l.rng == rngBottom {
			bottomCancels++
		}
		lad.cancel(p.l)
		hp.cancel(p.h)
	}

	for i := 0; i < 200000; i++ {
		switch r := rng.Intn(100); {
		case r < 45: // near-future push, heavy same-instant ties
			at := now + units.Time(rng.Intn(4))
			le, he := mk(at)
			lad.push(le)
			hp.push(he)
			cancellable = append(cancellable, pair{le, he})
		case r < 65: // mid-range push
			at := now + units.Time(rng.Intn(100000))
			le, he := mk(at)
			lad.push(le)
			hp.push(he)
			cancellable = append(cancellable, pair{le, he})
		case r < 75: // watchdog-like far-future push
			at := now + units.Time(3600)*units.Time(1e12)
			le, he := mk(at)
			lad.push(le)
			hp.push(he)
			cancellable = append(cancellable, pair{le, he})
		case r < 90: // pop
			popBoth()
		case r < 95: // cancel the newest pending event: usually a
			// near-future one, which sits in bottom once a rung exists
			n := len(cancellable)
			if n == 0 {
				continue
			}
			p := cancellable[n-1]
			cancellable = cancellable[:n-1]
			if p.l.at <= now {
				continue
			}
			cancelBoth(p)
		default: // cancel a random pending event
			if len(cancellable) == 0 {
				continue
			}
			j := rng.Intn(len(cancellable))
			p := cancellable[j]
			cancellable[j] = cancellable[len(cancellable)-1]
			cancellable = cancellable[:len(cancellable)-1]
			// Skip events that already popped (cheap check: a popped
			// ladder event was returned by pop; we cannot tell without
			// tracking, so track via dead/idx is unreliable — instead
			// only cancel events strictly in the future).
			if p.l.at <= now {
				continue
			}
			cancelBoth(p)
		}
		if lad.len() != hp.len() {
			t.Fatalf("live count diverged: ladder %d heap %d", lad.len(), hp.len())
		}
	}
	// Drain both to empty.
	for popBoth() {
	}
	if lad.len() != 0 {
		t.Fatalf("ladder reports %d live events after drain", lad.len())
	}
	if bottomCancels < 1000 {
		t.Fatalf("only %d cancellations hit the sorted bottom; the mix no longer exercises it", bottomCancels)
	}
}

// TestLadderBottomHoldsNoCancelledEvents is the white-box check of
// eager bottom cancellation.  With a far-future event pending, the
// first rung spans an hour, so near-future timers land directly in the
// sorted bottom; arming and cancelling 10k of them must leave bottom
// holding exactly the ones still live.
func TestLadderBottomHoldsNoCancelledEvents(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(3600*units.Second, func() { fired++ })
	e.Schedule(units.Nanosecond, func() {})
	e.Step() // builds the rung from top
	lad := e.sched.(*ladderQueue)
	kept := 0
	for i := 0; i < 10000; i++ {
		tm := e.After(units.Microsecond+units.Time(i%97)*units.Nanosecond, func() { fired++ })
		if i%10 == 0 {
			kept++
		} else {
			tm.Cancel()
		}
	}
	inBottom := 0
	for _, ev := range lad.bottom[lad.cursor:] {
		if ev.rng != rngBottom {
			t.Fatalf("event (%d,%d) in bottom carries region %d", ev.at, ev.seq, ev.rng)
		}
		inBottom++
	}
	if inBottom != kept {
		t.Fatalf("bottom holds %d events, want the %d live timers", inBottom, kept)
	}
	if got := e.Pending(); got != kept+1 {
		t.Fatalf("Pending() = %d, want %d", got, kept+1)
	}
	e.Run()
	if fired != kept+1 {
		t.Fatalf("%d events fired, want %d", fired, kept+1)
	}
	if e.Now() != 3600*units.Second {
		t.Fatalf("clock ended at %v, want the far event's 3600 s", e.Now())
	}
}
