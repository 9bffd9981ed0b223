package des

import (
	"testing"

	"hyades/internal/units"
)

// TestKillFromProcessUnwindsTarget: a process may kill another,
// parked one.  The kill resumes the victim's coroutine from inside the
// killer's, the victim unwinds through its own deferred code before
// Kill returns, and neither process is left registered.
func TestKillFromProcessUnwindsTarget(t *testing.T) {
	e := NewEngine()
	never := NewMailbox[int](e, "never")
	unwound := false
	victim := e.Spawn("victim", func(p *Proc) {
		defer func() { unwound = true }()
		never.Recv(p)
		t.Error("victim ran past its park")
	})
	e.Spawn("killer", func(p *Proc) {
		p.Delay(units.Microsecond)
		victim.Kill()
		if !unwound {
			t.Error("Kill returned before the victim unwound")
		}
		p.Delay(units.Microsecond)
	})
	e.Run()
	if e.Blocked() != 0 || len(e.procs) != 0 {
		t.Fatalf("Blocked = %d, %d procs registered after both ended", e.Blocked(), len(e.procs))
	}
	if e.Now() != 2*units.Microsecond {
		t.Fatalf("Now = %v, want 2µs", e.Now())
	}
}

// TestKillBeforeFirstActivation: a process killed before it ever ran
// never runs its body, and its pending start event is a no-op.
func TestKillBeforeFirstActivation(t *testing.T) {
	e := NewEngine()
	ran := false
	p := e.Spawn("stillborn", func(*Proc) { ran = true })
	p.Kill()
	e.Run()
	if ran || len(e.procs) != 0 {
		t.Fatalf("ran = %v, %d procs registered", ran, len(e.procs))
	}
}

// TestResumesCountsSwitches pins Resumes to one count per coroutine
// switch into a process.  In an n-round mailbox ping-pong each side is
// switched in once to start (2); the server's first Recv finds the
// ping already queued, so round 0 switches in only the client (1);
// each later round switches in the server, then the client (2 each):
// 2 + 1 + 2(n-1) = 2n+1.
func TestResumesCountsSwitches(t *testing.T) {
	const n = 50
	e := NewEngine()
	ping := NewMailbox[int](e, "ping")
	pong := NewMailbox[int](e, "pong")
	e.Spawn("client", func(p *Proc) {
		for i := 0; i < n; i++ {
			ping.Send(i)
			pong.Recv(p)
		}
	})
	e.Spawn("server", func(p *Proc) {
		for i := 0; i < n; i++ {
			pong.Send(ping.Recv(p))
		}
	})
	e.Run()
	if got, want := e.Resumes(), uint64(2*n+1); got != want {
		t.Fatalf("Resumes = %d, want %d", got, want)
	}
}
