package main

import (
	"fmt"
	"time"

	"hyades/internal/arctic"
	"hyades/internal/cluster"
	"hyades/internal/des"
)

// Isolated micro-runs: unit costs of single layers, driven through
// their public APIs on an otherwise idle simulator.  Each result is
// host-calibrated and the median of unitReps repetitions.

const unitReps = 3

// unitCosts are the isolated per-operation host costs, in reference ns.
type unitCosts struct {
	eventNS  float64 // no-op Schedule + Step
	wakeNS   float64 // one process wake via Mailbox ping-pong
	hopNS    float64 // marginal cost of one link traversal on an idle fabric
	pioNS    float64 // one PIO message end to end between two nodes
	dmaKiBNS float64 // one KiB of a VI-mode DMA transfer

	// Events of the PIO micro-run per message, so the ledger can take
	// dispatch out of pioNS.
	pioEvents float64
}

// measureUnits runs every micro-run.
func measureUnits() (unitCosts, error) {
	var u unitCosts
	var err error
	u.eventNS = unit(func() (float64, error) { return eventRun(200000), nil }, &err)
	u.wakeNS = unit(func() (float64, error) { return wakeRun(20000), nil }, &err)
	u.hopNS = unit(func() (float64, error) { return hopRun(8000) }, &err)
	u.pioNS = unit(func() (float64, error) {
		ns, ev, e := pioRun(4000)
		u.pioEvents = ev
		return ns, e
	}, &err)
	u.dmaKiBNS = unit(func() (float64, error) { return dmaRun(64) }, &err)
	return u, err
}

// unit repeats one micro-run, calibrating around each repetition, and
// returns the median calibrated per-operation cost in ns.
func unit(run func() (float64, error), errp *error) float64 {
	var xs []float64
	for i := 0; i < unitReps; i++ {
		c0 := calibrate()
		ns, err := run()
		c1 := calibrate()
		if err != nil {
			if *errp == nil {
				*errp = err
			}
			return 0
		}
		xs = append(xs, ns*scaled(time.Second, c0, c1))
	}
	return median(xs)
}

// eventRun times n no-op events, one Schedule and one Step each.
func eventRun(n int) float64 {
	e := des.NewEngine()
	noop := func() {}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		e.Schedule(0, noop)
		e.Step()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// wakeRun times n Mailbox round trips between two processes; each
// round trip is two wakes.
func wakeRun(n int) float64 {
	e := des.NewEngine()
	defer e.Close()
	ping := des.NewMailbox[int](e, "ping")
	pong := des.NewMailbox[int](e, "pong")
	e.Spawn("a", func(p *des.Proc) {
		for i := 0; i < n; i++ {
			ping.Send(i)
			pong.Recv(p)
		}
	})
	e.Spawn("b", func(p *des.Proc) {
		for i := 0; i < n; i++ {
			pong.Send(ping.Recv(p))
		}
	})
	t0 := time.Now()
	e.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(2*n)
}

// hopRun returns the marginal cost of one link traversal: packets are
// injected one at a time across an idle 16-endpoint fabric, to an
// endpoint under the same leaf router and to one under another, and
// the difference in cost per packet is divided by the difference in
// hops, so per-packet work (injection, CRC, delivery) cancels.
func hopRun(n int) (float64, error) {
	near, hNear, err := packetRun(n, 1)
	if err != nil {
		return 0, err
	}
	far, hFar, err := packetRun(n, 15)
	if err != nil {
		return 0, err
	}
	return (far - near) / float64(hFar-hNear), nil
}

// packetRun sends n packets from endpoint 0 to dst, one at a time, and
// returns the cost per packet and the hops each crosses.
func packetRun(n, dst int) (float64, int, error) {
	e := des.NewEngine()
	fab, err := arctic.New(e, arctic.DefaultConfig(16))
	if err != nil {
		return 0, 0, err
	}
	got := 0
	fab.Attach(dst, func(*arctic.Packet) { got++ })
	words := []uint32{1, 2}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p := fab.AcquirePacket()
		p.Payload = words
		fab.RouteFor(p, 0, dst)
		fab.Inject(0, p)
		e.Run()
	}
	el := time.Since(t0)
	if got != n {
		return 0, 0, fmt.Errorf("hop micro-run: %d of %d packets delivered", got, n)
	}
	return float64(el.Nanoseconds()) / float64(n), fab.HopsBetween(0, dst), nil
}

// pioRun streams n 8-word PIO messages from node 0 to node 1 (two
// hops: injection and ejection link) and returns the cost and the
// events per message.
func pioRun(n int) (ns, events float64, err error) {
	cl, err := cluster.New(cluster.DefaultConfig(2, 1))
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	tx, rx := cl.Nodes[0].NIU, cl.Nodes[1].NIU
	words := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	got := 0
	cl.Eng.Spawn("tx", func(p *des.Proc) {
		for i := 0; i < n; i++ {
			tx.PIOSend(p, 1, 1, words, arctic.Low)
		}
	})
	cl.Eng.Spawn("rx", func(p *des.Proc) {
		for i := 0; i < n; i++ {
			rx.PIORecv(p, arctic.Low)
			got++
		}
	})
	ev0 := cl.Eng.Events()
	t0 := time.Now()
	if err := cl.Run(); err != nil {
		return 0, 0, err
	}
	el := time.Since(t0)
	if got != n {
		return 0, 0, fmt.Errorf("PIO micro-run: %d of %d messages received", got, n)
	}
	per := float64(n)
	return float64(el.Nanoseconds()) / per, float64(cl.Eng.Events()-ev0) / per, nil
}

// dmaRun sends n 64-KiB VI-mode transfers from node 0 to node 1 and
// returns the cost per KiB.
func dmaRun(n int) (float64, error) {
	cl, err := cluster.New(cluster.DefaultConfig(2, 1))
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	tx, rx := cl.Nodes[0].NIU, cl.Nodes[1].NIU
	const kib = 64
	data := make([]byte, kib<<10)
	bytes := 0
	cl.Eng.Spawn("tx", func(p *des.Proc) {
		for i := 0; i < n; i++ {
			tx.DMASend(p, 1, 1, data, arctic.Low)
		}
	})
	cl.Eng.Spawn("rx", func(p *des.Proc) {
		for i := 0; i < n; i++ {
			bytes += len(rx.VIRecv(p).Data)
		}
	})
	t0 := time.Now()
	if err := cl.Run(); err != nil {
		return 0, err
	}
	el := time.Since(t0)
	if bytes != n*kib<<10 {
		return 0, fmt.Errorf("DMA micro-run: %d of %d bytes received", bytes, n*kib<<10)
	}
	return float64(el.Nanoseconds()) / float64(n*kib), nil
}
