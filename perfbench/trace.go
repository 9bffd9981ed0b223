package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"hyades/internal/comm"
	"hyades/internal/units"
)

// tracer counts and times what the models ask of their endpoints in
// the traced run.  Each rank's model runs on a tracedEndpoint that
// forwards every call to the program's endpoint and records, per rank:
// the primitives called and bytes sent, the host CPU time inside the
// gcm phase closures handed to Exec, and the host CPU time the rank
// spends between its blocking endpoint calls (numerics that run on the
// simulation baton: solver sweeps, forcing, convective adjustment,
// halo packing).  Counting changes no call and no argument, so the
// traced run's digest, event count and clock equal the untraced run's
// (checked on every traced run).
type tracer struct {
	ranks []*rankTrace
}

// rankTrace is one rank's accumulators.  Only that rank's process and
// its own Exec closures write them; the closures finish before Exec
// returns, and the controller reads them only at pauses, so every
// access is ordered by the simulator's baton handoffs.
type rankTrace struct {
	exchanges, gsums int64
	bytes            int64
	closureNS        int64
	appNS            int64

	marked   bool
	markTid  int
	markCPU  int64
	markWall time.Time
}

// traceTotals is a snapshot of the tracer summed over ranks.
type traceTotals struct {
	exchanges, gsums, bytes int64
	closureNS, appNS        int64
}

func (t *tracer) reset(n int) {
	t.ranks = make([]*rankTrace, n)
	for i := range t.ranks {
		t.ranks[i] = &rankTrace{}
	}
}

// wrap returns rank r's traced endpoint over ep.
func (t *tracer) wrap(r int, ep comm.Endpoint) comm.Endpoint {
	return &tracedEndpoint{Endpoint: ep, r: t.ranks[r]}
}

// resume starts rank r's between-calls clock at a segment start (the
// pause barriers run on the untraced endpoint and are not counted).
func (t *tracer) resume(r int) { t.ranks[r].mark() }

func (t *tracer) totals() traceTotals {
	var s traceTotals
	for _, r := range t.ranks {
		s.exchanges += r.exchanges
		s.gsums += r.gsums
		s.bytes += r.bytes
		s.closureNS += r.closureNS
		s.appNS += r.appNS
	}
	return s
}

func (a traceTotals) sub(b traceTotals) traceTotals {
	return traceTotals{
		exchanges: a.exchanges - b.exchanges,
		gsums:     a.gsums - b.gsums,
		bytes:     a.bytes - b.bytes,
		closureNS: a.closureNS - b.closureNS,
		appNS:     a.appNS - b.appNS,
	}
}

// mark records the moment the rank's own code resumed running.
func (r *rankTrace) mark() {
	r.marked = true
	r.markTid = syscall.Gettid()
	r.markCPU = threadCPU()
	r.markWall = time.Now()
}

// enter closes the interval the rank's code ran since its last mark.
// The thread's CPU clock is used when the goroutine stayed on one
// thread; after a migration the wall time stands in.
func (r *rankTrace) enter() {
	if !r.marked {
		return
	}
	r.marked = false
	if syscall.Gettid() == r.markTid {
		r.appNS += threadCPU() - r.markCPU
	} else {
		r.appNS += int64(time.Since(r.markWall))
	}
}

// threadCPU returns the calling thread's CPU clock in nanoseconds.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// tracedEndpoint forwards to the program's endpoint, counting.
type tracedEndpoint struct {
	comm.Endpoint
	r *rankTrace
}

func (t *tracedEndpoint) Exchange(peer int, send []byte, layout comm.Block) []byte {
	t.r.enter()
	t.r.exchanges++
	t.r.bytes += int64(len(send))
	got := t.Endpoint.Exchange(peer, send, layout)
	t.r.mark()
	return got
}

func (t *tracedEndpoint) GlobalSum(x float64) float64 {
	t.r.enter()
	t.r.gsums++
	s := t.Endpoint.GlobalSum(x)
	t.r.mark()
	return s
}

func (t *tracedEndpoint) Barrier() {
	t.r.enter()
	t.Endpoint.Barrier()
	t.r.mark()
}

// Busy may hand the baton to other processes, so it ends an interval.
func (t *tracedEndpoint) Busy(d units.Time) {
	t.r.enter()
	t.Endpoint.Busy(d)
	t.r.mark()
}

// Exec times the phase closure on the thread that runs it.  The
// goroutine is locked to its thread for the closure so the thread CPU
// clock measures the closure alone.
func (t *tracedEndpoint) Exec(d units.Time, fn func()) {
	t.r.enter()
	r := t.r
	t.Endpoint.Exec(d, func() {
		runtime.LockOSThread()
		c0 := threadCPU()
		fn()
		r.closureNS += threadCPU() - c0
		runtime.UnlockOSThread()
	})
	t.r.mark()
}
