// Package des is a deterministic, process-oriented discrete-event
// simulation kernel.
//
// The Hyades reproduction models the whole cluster — processors, PCI
// buses, the StarT-X NIUs and the Arctic switch fabric — in virtual time.
// The kernel executes exactly one activity at a time (either an event
// closure or a resumed process), so a simulation run is a deterministic
// function of its inputs: every timing figure in the paper can be
// regenerated bit-for-bit.
//
// Two styles of activity coexist:
//
//   - Event closures, scheduled with Engine.Schedule, model purely
//     reactive hardware (link pumps, DMA engines, router stages).
//   - Processes, created with Engine.Spawn, model threads of control with
//     their own program counter (application code on a simulated
//     processor).  A process blocks by calling Delay, Mailbox.Recv or
//     Semaphore.Acquire; control transfers back to the kernel until the
//     wake-up event fires.
//
// Processes are coroutines (iter.Pull).  One dispatch loop, running on
// the goroutine that called Run, RunUntil or Step, executes every event
// in (at, seq) order; when an event wakes a process the loop resumes it
// and regains control when the process blocks again.  A coroutine
// switch bypasses the Go scheduler, and since only one activity ever
// runs, process code may freely touch shared simulation state without
// locking.
package des

import (
	"fmt"
	"runtime/debug"
	"strings"

	"hyades/internal/units"
)

// event is a scheduled activity.  The scheduler owns the bookkeeping
// fields: idx is the event's slot within its container (heap position,
// or position inside an unsorted ladder region, where it makes
// cancellation an O(1) swap-remove); rng and bkt locate that container
// in the ladder.  Cancellation removes an event outright, so a
// cancelled timer never advances the virtual clock to its expiry.
type event struct {
	at  units.Time
	seq uint64 // tie-break: FIFO among simultaneous events
	fn  func()
	idx int
	bkt int32
	rng int8
}

// Engine is the simulation kernel.  Create one with NewEngine; it is not
// safe for concurrent use from multiple OS-level goroutines other than
// through the coroutine discipline described in the package comment.
type Engine struct {
	now   units.Time
	sched scheduler
	seq   uint64
	// procs holds the live processes in spawn order.  A slice, not a
	// map: Blocked and Close iterate it, and map iteration order is
	// randomized — a determinism hazard the maprange analyzer bans
	// from the event path.
	procs   []*Proc
	stopped bool

	// free is the event freelist.  Every Schedule used to allocate an
	// event; recycling fired (and cancelled) events makes scheduling
	// allocation-free in steady state — the dominant allocation of the
	// communication hot paths.
	free []*event

	// pool, when set, executes offloaded compute phases (Proc.Exec) on
	// host worker goroutines while the dispatch loop keeps metering
	// virtual time.  Nil means Exec runs inline.
	pool *Pool

	// watchdog bounds any single blocking wait; see SetWatchdog.
	watchdog units.Time
	// limit is the active RunUntil bound, consulted by the Delay
	// fast path (a process may only advance the clock inline up to
	// the point where the run loop itself would have stopped).
	limit units.Time
	// failed stops the run loop with a recorded cause; see Fail.
	failed error
	// xfer is the process the event that just executed woke.  The
	// dispatch loop resumes it after the event fn returns: every wake
	// is the last effect of its event, so deferring the switch to the
	// event boundary reorders nothing.
	xfer *Proc
	// resumes counts coroutine switches into processes; see Resumes.
	resumes uint64
}

// NewEngine returns an empty kernel at virtual time zero, using the
// default ladder-queue scheduler.
func NewEngine() *Engine {
	return NewEngineWithScheduler(SchedLadder)
}

// NewEngineWithScheduler returns an empty kernel with an explicit
// event-queue implementation.  Both kinds execute events in the same
// strict (at, seq) order, so a simulation's digest is identical under
// either — the determinism suite asserts exactly that.
func NewEngineWithScheduler(kind SchedulerKind) *Engine {
	e := &Engine{}
	switch kind {
	case SchedHeap:
		e.sched = &heapSched{}
	default:
		e.sched = &ladderQueue{}
	}
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() units.Time { return e.now }

// Events returns the total number of activities scheduled since the
// engine was created.  Two runs of the same simulation with the same
// inputs must report the same count — a cheap fingerprint for
// determinism regression tests.
func (e *Engine) Events() uint64 { return e.seq }

// Resumes returns the number of times a process has been resumed: one
// coroutine switch into a process (and one back out) each.  Like
// Events it is a pure function of the virtual schedule.
func (e *Engine) Resumes() uint64 { return e.resumes }

// newEvent takes an event from the freelist (or allocates one) and
// stamps it with the next sequence number.
func (e *Engine) newEvent(at units.Time, fn func()) *event {
	e.seq++
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.fn = at, e.seq, fn
		return ev
	}
	return &event{at: at, seq: e.seq, fn: fn}
}

// recycle returns a fired or cancelled event to the freelist.  The
// closure is dropped so recycling never retains captured state.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// cancelEvent removes a queued event and recycles it.
func (e *Engine) cancelEvent(ev *event) {
	e.sched.cancel(ev)
	e.recycle(ev)
}

// Schedule runs fn at now+d.  A non-positive d means "as soon as
// possible", i.e. at the current time but after already-queued
// simultaneous events.
func (e *Engine) Schedule(d units.Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.sched.push(e.newEvent(e.now+d, fn))
}

// ScheduleAt runs fn at absolute time t (clamped to the present).
func (e *Engine) ScheduleAt(t units.Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.sched.push(e.newEvent(t, fn))
}

// Run executes events until the event queue is empty.  Processes blocked
// on mailboxes or semaphores with no pending wake-up are left blocked;
// use Blocked to detect them (a non-zero count usually means deadlock in
// the modelled system).
func (e *Engine) Run() {
	e.RunUntil(units.Never)
}

// RunUntil executes events with timestamps <= limit.
func (e *Engine) RunUntil(limit units.Time) {
	prev := e.limit
	e.limit = limit
	defer func() { e.limit = prev }()
	for !e.stopped && e.failed == nil {
		ev := e.sched.peek()
		if ev == nil || ev.at > limit {
			return
		}
		e.sched.pop()
		e.fire(ev)
	}
}

// fire executes a popped event on the dispatch loop, then resumes the
// process the event woke, if any, until that process blocks again.
// Event and process panics (watchdog trips, *ProcPanic) therefore
// unwind the Run/RunUntil/Step caller.
func (e *Engine) fire(ev *event) {
	if ev.at > e.now {
		e.now = ev.at
	}
	ev.fn()
	e.recycle(ev)
	if q := e.xfer; q != nil {
		e.xfer = nil
		q.resume()
	}
}

// Fail records a fatal simulation error and stops the run loop at the
// current virtual time.  The modelled system uses it to surface
// unrecoverable protocol failures (an unreachable peer, an exhausted
// retry budget) as an error from the driver instead of a silent wedge.
// Only the first failure is kept.
func (e *Engine) Fail(err error) {
	if e.failed == nil {
		e.failed = err
	}
}

// Err returns the error recorded by Fail, if any.
func (e *Engine) Err() error { return e.failed }

// SetWatchdog arms the blocking-wait watchdog: any single park on a
// mailbox, semaphore or signal that lasts longer than d of virtual time
// panics (from engine context, so Run's caller can recover) with a
// *WatchdogError carrying the full set of parked waiters.  A wedged
// protocol thereby becomes a crash with a who-waits-on-whom map instead
// of a silently parked process.  d = 0 disables the watchdog.
func (e *Engine) SetWatchdog(d units.Time) { e.watchdog = d }

// WatchdogLimit returns the configured watchdog bound (0 = disabled).
func (e *Engine) WatchdogLimit() units.Time { return e.watchdog }

// WaitInfo describes one blocked process for watchdog/deadlock dumps.
type WaitInfo struct {
	Proc  string     // process name
	On    string     // facility it is parked on
	Since units.Time // virtual time the park began
}

// Waiters returns the currently blocked processes in spawn order.
func (e *Engine) Waiters() []WaitInfo {
	var ws []WaitInfo
	for _, p := range e.procs {
		if p.blocked {
			ws = append(ws, WaitInfo{Proc: p.name, On: p.waitOn, Since: p.waitStart})
		}
	}
	return ws
}

// FormatWaiters renders a waiter dump, one process per line.
func FormatWaiters(ws []WaitInfo) string {
	var b strings.Builder
	for _, w := range ws {
		on := w.On
		if on == "" {
			on = "<unnamed>"
		}
		fmt.Fprintf(&b, "  %s waits on %s since %v\n", w.Proc, on, w.Since)
	}
	return strings.TrimRight(b.String(), "\n")
}

// WatchdogError is the panic payload of a tripped wait watchdog.
type WatchdogError struct {
	Limit   units.Time // the configured bound that was exceeded
	Culprit string     // the wait that tripped
	Waiters []WaitInfo // everyone parked at trip time
}

// Error implements error.
func (w *WatchdogError) Error() string {
	return fmt.Sprintf("des: watchdog: %s exceeded the %v wait limit; parked waiters:\n%s",
		w.Culprit, w.Limit, FormatWaiters(w.Waiters))
}

// ProcPanic wraps a panic raised inside a simulated process.  The
// kernel re-raises it from the dispatch loop so that the caller of Run
// can recover and report it; Value is the original panic payload and
// Stack the process's stack captured at the panic site.
type ProcPanic struct {
	Proc  string
	Value any
	Stack []byte
}

// Error implements error.
func (p *ProcPanic) Error() string {
	return fmt.Sprintf("des: process %s panicked: %v", p.Proc, p.Value)
}

// Unwrap exposes the original payload when it was itself an error.
func (p *ProcPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Timer is a cancellable one-shot activity created by Engine.After.
type Timer struct {
	eng *Engine
	ev  *event
}

// After schedules fn at now+d and returns a handle that can cancel it.
// Unlike Schedule, a cancelled After is removed from the event queue
// outright: it neither runs nor drags the virtual clock to its expiry.
func (e *Engine) After(d units.Time, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	t := &Timer{eng: e}
	ev := e.newEvent(e.now+d, nil)
	ev.fn = func() {
		t.ev = nil
		fn()
	}
	t.ev = ev
	e.sched.push(ev)
	return t
}

// Cancel removes the timer from the event queue.  It is a no-op if the
// timer already fired or was already cancelled.
func (t *Timer) Cancel() {
	if t.ev == nil {
		return
	}
	ev := t.ev
	t.ev = nil
	t.eng.cancelEvent(ev)
}

// Active reports whether the timer is still pending.
func (t *Timer) Active() bool { return t.ev != nil }

// Step executes a single event and reports whether one was available.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	ev := e.sched.pop()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// Pending returns the number of queued (uncancelled) events.
func (e *Engine) Pending() int { return e.sched.len() }

// Blocked returns the number of live processes currently waiting on a
// blocking primitive.
func (e *Engine) Blocked() int {
	n := 0
	for _, p := range e.procs {
		if p.blocked {
			n++
		}
	}
	return n
}

// Close terminates all live processes by unwinding their coroutines.
// After Close the engine must not be used.  It is safe to call Close on
// an engine whose Run has returned; it is also idempotent.
func (e *Engine) Close() {
	e.stopped = true
	for _, p := range e.procs {
		if p.blocked {
			p.kill()
		}
	}
	e.procs = nil
}

// dropProc unregisters a finished process, preserving spawn order.
func (e *Engine) dropProc(p *Proc) {
	for i, q := range e.procs {
		if q == p {
			e.procs = append(e.procs[:i], e.procs[i+1:]...)
			return
		}
	}
}

// stopSignal is the panic payload used to unwind a killed process.
type stopSignal struct{}

// Interrupt is the panic payload raised inside a process that was
// asynchronously interrupted with Proc.Interrupt.  Unlike stopSignal it
// unwinds through the process's own code, so rank bodies can recover it
// at a well-defined frame, inspect the cause and retry.  Anything other
// than an *Interrupt recovered in such a handler must be re-panicked.
type Interrupt struct {
	Proc  string
	Cause error
}

// Error implements error.
func (i *Interrupt) Error() string {
	return fmt.Sprintf("des: process %s interrupted: %v", i.Proc, i.Cause)
}

// Unwrap exposes the interrupt cause.
func (i *Interrupt) Unwrap() error { return i.Cause }

// waiterList is a blocking facility that can detach a parked process —
// the deadline-expiry hook of parkDeadline.  Implemented by Mailbox and
// Signal; an interface rather than a closure so arming a deadline wait
// allocates nothing.
type waiterList interface {
	dropWaiter(p *Proc) bool
}

// Proc is a simulated thread of control.
type Proc struct {
	eng     *Engine
	name    string
	blocked bool
	dead    bool

	// next resumes the process coroutine until it blocks (true) or its
	// body has returned (false); yield, called from process context,
	// suspends it back to whoever called next.  Both come from one
	// iter.Pull at spawn.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// wakeFn is the bound wake method, created once at spawn: the
	// blocking primitives schedule it directly instead of allocating a
	// fresh closure per wake-up.
	wakeFn func()

	// waitOn/waitStart describe the current park for watchdog and
	// deadlock dumps; set by the blocking primitives.
	waitOn    string
	waitStart units.Time

	// Park-expiry state: wdEv is the armed watchdog/deadline event
	// (nil when idle), wdFireFn the bound expiry handler, wdFacility
	// the facility to detach from on a deadline expiry (nil for a
	// watchdog park, whose expiry panics instead), expired the outcome
	// flag parkDeadline reads back.  One event object cycles through
	// the engine freelist instead of a Timer + closures per park.
	wdEv       *event
	wdFireFn   func()
	wdFacility waiterList
	expired    bool

	// Asynchronous-termination state.  intr is a pending Interrupt
	// cause, raised in process context at the next blocking boundary;
	// parkFac is the facility of the current park (so Interrupt and
	// Kill can detach a parked process); inExec marks a pool-offloaded
	// compute phase, during which termination is deferred until the
	// phase's completion wake (preserving the happens-before edge with
	// the pool worker); killPending records a Kill deferred that way.
	intr        error
	parkFac     waiterList
	inExec      bool
	killPending bool

	// Exec offload state, created lazily on the first pooled Exec and
	// reused for every later one: a Proc has at most one outstanding
	// offloaded phase, so one buffered completion channel and one bound
	// continuation cover them all without per-call allocation.
	execDone   chan struct{}
	execContFn func()
}

// Spawn creates a process running fn and schedules its first activation
// "now".  fn runs as a coroutine; when it returns the process
// disappears.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.wakeFn = p.wake
	p.wdFireFn = p.wdFire
	p.next = pull(func(yield func(struct{}) bool) {
		p.yield = yield
		if p.dead {
			return // killed before its first activation
		}
		defer p.exit()
		fn(p)
	})
	e.procs = append(e.procs, p)
	p.blocked = true
	e.Schedule(0, p.wakeFn)
	return p
}

// exit ends the process body (deferred in the coroutine).  A killed
// process unwinds with stopSignal and was already unregistered by its
// killer.  A body panic is wrapped as a *ProcPanic with the process's
// own stack and re-raised; iter.Pull carries it out of next, so it
// unwinds the Run caller, which can recover and report it.
func (p *Proc) exit() {
	r := recover()
	if _, ok := r.(stopSignal); ok {
		return
	}
	p.dead = true
	p.eng.dropProc(p)
	if r != nil {
		panic(&ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()})
	}
}

// resume switches into the process until it blocks or finishes.  A
// dead process unwinds instead: block sees dead and raises stopSignal.
func (p *Proc) resume() {
	p.eng.resumes++
	p.next()
}

// wake marks p runnable.  The dispatch loop resumes it when the
// current event fn returns (see Engine.fire).  Every caller invokes
// wake as the last effect of its event, so deferring the switch to the
// event boundary reorders nothing.  Must only be called from engine
// context (inside an event).
func (p *Proc) wake() {
	if p.dead {
		return
	}
	if p.killPending {
		// A Kill arrived while the process was off in a pool-offloaded
		// compute phase; its completion wake is the first safe point to
		// unwind (the pool worker has finished with the process's data).
		p.killPending = false
		p.finishKill()
		return
	}
	p.blocked = false
	p.eng.xfer = p
}

// kill unwinds a blocked process.  Called from Engine.Close only.
func (p *Proc) kill() {
	if p.dead {
		return
	}
	p.dead = true
	p.resume()
}

// Kill terminates a blocked process at the current virtual instant, as
// a node crash does: the process unwinds without running any more
// simulated work, it is detached from whatever facility it was parked
// on, and its pending wake-ups become no-ops (dropped events).  Must be
// called from engine or another process's context, never on the running
// process itself.  Killing a dead process is a no-op.
func (p *Proc) Kill() {
	if p.dead {
		return
	}
	if p.inExec {
		// Mid-Exec: the pool worker may still be touching the process's
		// arrays on another OS thread.  Defer the unwind to the phase's
		// completion wake, which synchronizes with the worker first.
		p.killPending = true
		return
	}
	p.finishKill()
}

// finishKill detaches and unwinds a blocked process (engine context).
func (p *Proc) finishKill() {
	if p.parkFac != nil {
		p.parkFac.dropWaiter(p)
		p.parkFac = nil
	}
	p.disarmWd()
	p.wdFacility = nil
	p.dead = true
	p.eng.dropProc(p)
	p.resume()
}

// Interrupt arranges for cause to be raised inside the process as an
// *Interrupt panic at its current (or next) blocking boundary: the end
// of a park, delay or offloaded compute phase.  A parked process is
// detached from its facility and woken at the current virtual instant;
// a running or pool-offloaded one surfaces the interrupt when it next
// yields.  Interrupting a dead process, or one with an interrupt
// already pending, is a no-op.  Must be called from engine or another
// process's context.
func (p *Proc) Interrupt(cause error) {
	if p.dead || p.intr != nil {
		return
	}
	p.intr = cause
	if !p.blocked || p.inExec {
		return
	}
	if p.parkFac != nil && p.parkFac.dropWaiter(p) {
		p.eng.Schedule(0, p.wakeFn)
	}
	// A facility park whose wake was already in flight, and a plain
	// Delay, surface the interrupt when that pending wake fires.
}

// maybeInterrupt raises a pending interrupt (process context), called
// at every blocking boundary after the park state is torn down.
func (p *Proc) maybeInterrupt() {
	if p.intr == nil {
		return
	}
	cause := p.intr
	p.intr = nil
	panic(&Interrupt{Proc: p.name, Cause: cause})
}

// block parks the process until its wake event fires: the coroutine
// yields to the dispatch loop, which resumes it after the wake event.
// A process killed while parked is resumed only to unwind.  Must only
// be called from process context.
func (p *Proc) block() {
	p.blocked = true
	p.yield(struct{}{})
	if p.dead {
		panic(stopSignal{})
	}
}

// armWd schedules the process's expiry event at now+d; disarmWd removes
// and recycles it if it has not fired.  The event's fn is the bound
// wdFireFn, so arming a park costs no allocation in steady state.
func (p *Proc) armWd(d units.Time) {
	if d < 0 {
		d = 0
	}
	ev := p.eng.newEvent(p.eng.now+d, p.wdFireFn)
	p.wdEv = ev
	p.eng.sched.push(ev)
}

func (p *Proc) disarmWd() {
	if p.wdEv == nil {
		return
	}
	ev := p.wdEv
	p.wdEv = nil
	p.eng.cancelEvent(ev)
}

// wdFire is the park-expiry handler (engine context).  A watchdog park
// (no facility) panics with the waiter map; a deadline park detaches
// from its facility and wakes the process — unless a wake on the same
// timestamp already claimed it, in which case expiry yields.
func (p *Proc) wdFire() {
	p.wdEv = nil
	fac := p.wdFacility
	if fac == nil {
		panic(&WatchdogError{
			Limit:   p.eng.watchdog,
			Culprit: fmt.Sprintf("%s (parked on %s)", p.name, p.waitOn),
			Waiters: p.eng.Waiters(),
		})
	}
	if fac.dropWaiter(p) {
		p.expired = true
		p.wake()
	}
}

// park blocks p on the named facility, arming the engine's watchdog if
// one is configured.  The watchdog event fires on the dispatch loop, so
// its panic unwinds Run rather than the process.  fac is the
// facility whose waiter list holds p, so Interrupt and Kill can detach
// it; a pending interrupt is raised as the park ends.
func (p *Proc) park(on string, fac waiterList) {
	p.waitOn, p.waitStart = on, p.eng.now
	p.parkFac = fac
	if limit := p.eng.watchdog; limit > 0 {
		p.armWd(limit)
	}
	p.block()
	p.disarmWd()
	p.parkFac = nil
	p.waitOn = ""
	p.maybeInterrupt()
}

// parkDeadline blocks p on the named facility for at most d; it returns
// true if p was woken normally and false if the deadline elapsed.  fac
// detaches p from the facility's waiter list on expiry, reporting
// whether p was still parked there (guarding against a wake and an
// expiry landing on the same timestamp).
func (p *Proc) parkDeadline(on string, d units.Time, fac waiterList) bool {
	p.waitOn, p.waitStart = on, p.eng.now
	p.expired = false
	p.wdFacility = fac
	p.parkFac = fac
	p.armWd(d)
	p.block()
	p.disarmWd()
	p.wdFacility = nil
	p.parkFac = nil
	p.waitOn = ""
	p.maybeInterrupt()
	return !p.expired
}

// Engine returns the kernel this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() units.Time { return p.eng.now }

// Delay suspends the process for d of virtual time.  A non-positive d
// yields without advancing the clock (other simultaneous events run
// first).
func (p *Proc) Delay(d units.Time) {
	e := p.eng
	if d < 0 {
		d = 0
	}
	at := e.now + d
	// Fast path: when nothing else is scheduled before this delay would
	// expire (and the run loop's limit covers it), yielding would only
	// switch straight back here.  Advance the clock inline
	// instead.  The sequence number is consumed exactly as if the wake
	// event had been queued and fired, so clock, event order and event
	// count are bit-identical to the slow path.
	if !e.stopped && e.failed == nil && at <= e.limit {
		if nxt := e.sched.peek(); nxt == nil || nxt.at > at {
			e.seq++
			e.now = at
			p.maybeInterrupt()
			return
		}
	}
	e.Schedule(d, p.wakeFn)
	p.block()
	p.maybeInterrupt()
}

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }

// popWaiter removes and returns the front of a waiter list in place,
// shifting the tail down so the slice keeps its capacity.  The old
// `w = w[1:]` idiom leaked front capacity, making every park/wake cycle
// re-grow the list — one of the dominant hot-path allocations.  Waiter
// lists are a handful of processes, so the shift is a short memmove.
func popWaiter(ws []*Proc) (*Proc, []*Proc) {
	w := ws[0]
	n := copy(ws, ws[1:])
	ws[n] = nil
	return w, ws[:n]
}

// Mailbox is an unbounded FIFO queue connecting activities.  Send may be
// called from event or process context; Recv only from process context.
// Items live in a ring buffer so steady-state traffic recycles one
// allocation instead of re-growing a front-sliced append slice.
type Mailbox[T any] struct {
	eng     *Engine
	name    string
	buf     []T
	head, n int
	waiters []*Proc
}

// NewMailbox creates an empty mailbox on engine e.
func NewMailbox[T any](e *Engine, name string) *Mailbox[T] {
	return &Mailbox[T]{eng: e, name: name}
}

// enqueue appends v to the ring, growing it when full.
func (m *Mailbox[T]) enqueue(v T) {
	if m.n == len(m.buf) {
		grown := make([]T, max(4, 2*len(m.buf)))
		for i := 0; i < m.n; i++ {
			grown[i] = m.buf[(m.head+i)%len(m.buf)]
		}
		m.buf, m.head = grown, 0
	}
	m.buf[(m.head+m.n)%len(m.buf)] = v
	m.n++
}

// dequeue removes and returns the oldest item.  The vacated slot is
// zeroed so the ring never retains pointers past their dequeue.
func (m *Mailbox[T]) dequeue() T {
	var zero T
	v := m.buf[m.head]
	m.buf[m.head] = zero
	m.head = (m.head + 1) % len(m.buf)
	m.n--
	return v
}

// Send enqueues v and wakes the longest-waiting receiver, if any.  The
// receiver observes the item at the current virtual time.
func (m *Mailbox[T]) Send(v T) {
	m.enqueue(v)
	if len(m.waiters) > 0 {
		var w *Proc
		w, m.waiters = popWaiter(m.waiters)
		m.eng.Schedule(0, w.wakeFn)
	}
}

// Recv dequeues the oldest item, blocking the calling process until one
// is available.  The park is subject to the engine watchdog.
func (m *Mailbox[T]) Recv(p *Proc) T {
	for m.n == 0 {
		m.waiters = append(m.waiters, p)
		p.park(m.name, m)
	}
	return m.dequeue()
}

// RecvDeadline dequeues the oldest item, blocking for at most d of
// virtual time.  It returns the zero value and false if the deadline
// elapses first; a wake and an expiry on the same timestamp resolve in
// event order, deterministically.  Deadline waits manage their own
// bound, so the engine watchdog does not apply to them.
func (m *Mailbox[T]) RecvDeadline(p *Proc, d units.Time) (T, bool) {
	deadline := m.eng.now + d
	for m.n == 0 {
		if m.eng.now >= deadline {
			var zero T
			return zero, false
		}
		m.waiters = append(m.waiters, p)
		if !p.parkDeadline(m.name, deadline-m.eng.now, m) {
			var zero T
			return zero, false
		}
	}
	return m.dequeue(), true
}

// dropWaiter removes p from the waiter list, reporting whether it was
// still parked there.
func (m *Mailbox[T]) dropWaiter(p *Proc) bool {
	for i, w := range m.waiters {
		if w == p {
			n := copy(m.waiters[i:], m.waiters[i+1:])
			m.waiters[i+n] = nil
			m.waiters = m.waiters[:i+n]
			return true
		}
	}
	return false
}

// TryRecv dequeues the oldest item without blocking.
func (m *Mailbox[T]) TryRecv() (T, bool) {
	if m.n == 0 {
		var zero T
		return zero, false
	}
	return m.dequeue(), true
}

// Len reports the number of queued items.
func (m *Mailbox[T]) Len() int { return m.n }

// Semaphore is a counting semaphore with FIFO wake-up order, used to
// model the shared-memory semaphores of the mix-mode primitives (§4.1,
// §4.2).
type Semaphore struct {
	eng     *Engine
	name    string
	count   int
	waiters []*Proc
}

// NewSemaphore creates a semaphore with an initial count.  The name
// identifies it in watchdog and deadlock dumps.
func NewSemaphore(e *Engine, name string, initial int) *Semaphore {
	return &Semaphore{eng: e, name: name, count: initial}
}

// Acquire decrements the semaphore, blocking while the count is zero.
// The park is subject to the engine watchdog.
func (s *Semaphore) Acquire(p *Proc) {
	for s.count == 0 {
		s.waiters = append(s.waiters, p)
		p.park(s.name, s)
	}
	s.count--
}

// dropWaiter removes p from the waiter list, reporting whether it was
// still parked there.
func (s *Semaphore) dropWaiter(p *Proc) bool {
	for i, w := range s.waiters {
		if w == p {
			n := copy(s.waiters[i:], s.waiters[i+1:])
			s.waiters[i+n] = nil
			s.waiters = s.waiters[:i+n]
			return true
		}
	}
	return false
}

// Release increments the semaphore and wakes one waiter.  Callable from
// event or process context.
func (s *Semaphore) Release() {
	s.count++
	if len(s.waiters) > 0 {
		var w *Proc
		w, s.waiters = popWaiter(s.waiters)
		s.eng.Schedule(0, w.wakeFn)
	}
}

// Count returns the current semaphore value.
func (s *Semaphore) Count() int { return s.count }

// Signal is a lost-wakeup-safe edge notification: waiters snapshot the
// sequence number before testing their predicate, and Wait returns
// immediately if any Broadcast happened after the snapshot.  It is the
// DES analogue of a condition variable with a generation counter.
type Signal struct {
	eng     *Engine
	name    string
	seq     uint64
	waiters []*Proc
	// spare is the waiter buffer retired by the last Broadcast, swapped
	// back in so steady-state wait/broadcast cycles recycle two buffers
	// instead of allocating a fresh waiter list per generation.
	spare []*Proc
}

// NewSignal creates a signal on engine e.  The name identifies it in
// watchdog and deadlock dumps.
func NewSignal(e *Engine, name string) *Signal { return &Signal{eng: e, name: name} }

// Seq returns the current generation, to be snapshotted before testing
// the guarded predicate.
func (s *Signal) Seq() uint64 { return s.seq }

// Broadcast advances the generation and wakes all current waiters.
// Callable from event or process context.  Scheduling a wake can park
// no one (wakes are events), so swapping the retired buffer back in as
// the next waiter list is safe even if a woken process re-Waits before
// the next Broadcast.
func (s *Signal) Broadcast() {
	s.seq++
	waiters := s.waiters
	s.waiters = s.spare[:0]
	for i, w := range waiters {
		s.eng.Schedule(0, w.wakeFn)
		waiters[i] = nil
	}
	// The retiring buffer becomes the next spare; the buffers alternate
	// so neither slice header ever aliases the other's backing array.
	s.spare = waiters[:0]
}

// Wait blocks the process until the generation advances past the
// snapshot.  If it already has, Wait returns immediately.  The park is
// subject to the engine watchdog.
func (s *Signal) Wait(p *Proc, snapshot uint64) {
	if s.seq != snapshot {
		return
	}
	s.waiters = append(s.waiters, p)
	p.park(s.name, s)
}

// WaitDeadline is Wait with a virtual-time bound: it returns true if
// the generation advanced (or had already advanced) and false if d
// elapsed first.  Deadline waits manage their own bound, so the engine
// watchdog does not apply to them.
func (s *Signal) WaitDeadline(p *Proc, snapshot uint64, d units.Time) bool {
	if s.seq != snapshot {
		return true
	}
	s.waiters = append(s.waiters, p)
	return p.parkDeadline(s.name, d, s)
}

// dropWaiter removes p from the waiter list, reporting whether it was
// still parked there.
func (s *Signal) dropWaiter(p *Proc) bool {
	for i, w := range s.waiters {
		if w == p {
			n := copy(s.waiters[i:], s.waiters[i+1:])
			s.waiters[i+n] = nil
			s.waiters = s.waiters[:i+n]
			return true
		}
	}
	return false
}

// Resource models a serially-reusable facility (a bus, a link) with
// busy-until semantics.  Claim returns the time at which a use of
// duration d that becomes ready at "ready" will complete, advancing the
// facility's horizon; it never blocks, making it suitable for event-chain
// hardware models.
type Resource struct {
	freeAt units.Time
}

// Claim reserves the resource for d starting no earlier than ready, and
// returns the [start, end] of the granted slot.
func (r *Resource) Claim(ready units.Time, d units.Time) (start, end units.Time) {
	start = ready
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start + d
	r.freeAt = end
	return start, end
}

// FreeAt reports when the resource next becomes idle.
func (r *Resource) FreeAt() units.Time { return r.freeAt }
