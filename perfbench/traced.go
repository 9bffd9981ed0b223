package main

import (
	"fmt"
	"math"
	"time"

	"hyades/internal/arctic"
)

// traced is the per-layer run: isolated unit costs, then the setup
// builds and a traced timed build, then an untraced replay of the same
// segments whose digest, event count and clock must equal the traced
// build's, then the workload's correctness checks.
func traced(w *workload, seed uint64, dur time.Duration) (*result, error) {
	u, err := measureUnits()
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	m, err := timedRun(w, seed, dur, tr)
	if err != nil {
		return nil, err
	}
	defer m.b.close()
	b, ctl := m.b, m.b.ctl
	res := newResult()
	steps := ctl.steps()
	res.attempted = steps

	// Non-perturbation: the untraced replay must match bit for bit.
	plain, err := replay(w, seed, len(ctl.segWall))
	if err != nil {
		return nil, fmt.Errorf("untraced replay: %w", err)
	}
	dt, err := b.digest()
	if err != nil {
		return nil, err
	}
	dp, err := plain.digest()
	plain.close()
	if err != nil {
		return nil, err
	}
	res.check(dt == dp && b.events == plain.events && b.now == plain.now,
		"traced run equals untraced: digest %x/%x, events %d/%d, clock %v/%v",
		dt[:8], dp[:8], b.events, plain.events, b.now, plain.now)

	modelMS, err := verify(res, w, seed, m)
	if err != nil {
		return nil, err
	}
	layers(res, m, u, modelMS)
	return res, nil
}

// layers computes the per-layer metrics of a traced build.
func layers(res *result, m *measured, u unitCosts, modelMS float64) {
	b, ctl := m.b, m.b.ctl
	steps := float64(ctl.steps())
	ranks := float64(len(b.ranks))
	first, last := m.snaps[0], m.snaps[len(m.snaps)-1]
	per := func(x float64) float64 { return x / steps }
	simMS := func(ps int64) float64 { return float64(ps) / 1e9 / ranks / steps }

	// Host time per segment, calibrated: CPU inside gcm (phase closures
	// plus numerics between endpoint calls) and all other process CPU.
	var kernelNS, outsideNS, rawNS float64
	for j := range ctl.segWall {
		d := m.snaps[j+1].tr.sub(m.snaps[j].tr)
		f := ctl.factor(j)
		gcmNS := float64(d.closureNS + d.appNS)
		kernelNS += gcmNS * f
		outsideNS += (float64(ctl.segCPU[j].Nanoseconds()) - gcmNS) * f
		rawNS += float64(ctl.segWall[j].Nanoseconds())
	}
	events := per(float64(last.events - first.events))
	desHostMS := per(outsideNS) / 1e6
	res.set("des.events_per_step", events, "count")
	res.set("des.host_ms_per_step", desHostMS, "ms")
	nsPerEvent := 0.0
	if events > 0 {
		nsPerEvent = desHostMS * 1e6 / events
	}
	res.set("des.ns_per_event", nsPerEvent, "ns")
	res.set("des.wake_ns", u.wakeNS, "ns")
	res.set("des.event_ns", u.eventNS, "ns")

	packets := per(float64(last.net.Packets - first.net.Packets))
	var hopCount int64
	for name, n := range last.hops {
		hopCount += n - first.hops[name]
	}
	hops := per(float64(hopCount))
	res.set("arctic.packets_per_step", packets, "count")
	res.set("arctic.hops_per_step", hops, "count")
	res.set("arctic.wire_bytes_per_step", per(float64(last.net.WireBytes-first.net.WireBytes)), "B")
	res.set("arctic.hop_ns", u.hopNS, "ns")

	res.set("startx.retransmits_per_step", per(float64(last.fs.Retransmits-first.fs.Retransmits)), "count")
	res.set("startx.acks_per_step", per(float64(last.fs.AcksSent-first.fs.AcksSent)), "count")
	res.set("startx.timeouts_per_step", per(float64(last.fs.Timeouts-first.fs.Timeouts)), "count")
	res.set("startx.pio_msg_ns", u.pioNS, "ns")
	res.set("startx.dma_kib_ns", u.dmaKiBNS, "ns")

	dtr := last.tr.sub(first.tr)
	res.set("comm.exchanges_per_step", per(float64(dtr.exchanges)), "count")
	res.set("comm.gsums_per_step", per(float64(dtr.gsums)), "count")
	res.set("comm.bytes_per_step", per(float64(dtr.bytes)), "B")
	res.set("comm.exchange_sim_ms_per_step", simMS(int64(last.comm.ExchangeTime-first.comm.ExchangeTime)), "ms")
	res.set("comm.gsum_sim_ms_per_step", simMS(int64(last.comm.GsumTime-first.comm.GsumTime)), "ms")

	var df flopCount
	for c := range first.flops {
		d := last.flops[c].sub(first.flops[c])
		df = flopCount{df.ps + d.ps, df.ds + d.ds, df.iters + d.iters, df.solves + d.solves}
	}
	res.set("gcm.kernel_ms_per_step", per(kernelNS)/1e6, "ms")
	res.set("gcm.compute_sim_ms_per_step", simMS(int64(last.comm.ComputeTime-first.comm.ComputeTime)), "ms")
	res.set("gcm.mflop_per_step", per(float64(df.ps+df.ds))/1e6, "Mflop")
	iters := 0.0
	if df.solves > 0 {
		iters = float64(df.iters) / float64(df.solves)
	}
	res.set("gcm.cg_iters_per_step", iters, "count")
	var gcmSetup []float64
	for i, s := range m.setups {
		gcmSetup = append(gcmSetup, s-m.clusts[i])
	}
	res.set("gcm.setup_ms", median(gcmSetup)*1e3, "ms")
	res.set("cluster.setup_ms", median(m.clusts)*1e3, "ms")

	res.set("perfmodel.sim_ms_per_step", modelMS, "ms")

	// Ledger: dispatch of every event; each packet's work beyond
	// dispatch as a two-hop PIO message pays it (PCI, NIU jobs, the
	// injection and ejection links, delivery, the receiver's wake); and
	// each inter-stage hop's work beyond its two events.
	hopsUsed := hops
	if hopsUsed == 0 && b.cl != nil {
		hopsUsed = packets * meanHops(b.cl.Fabric)
	}
	packetNS := u.pioNS - u.pioEvents*u.eventNS
	hopNS := u.hopNS - 2*u.eventNS
	interStage := math.Max(hopsUsed-2*packets, 0)
	predictedMS := (events*u.eventNS + packets*packetNS + interStage*hopNS) / 1e6
	residual := 100.0
	if desHostMS > 0 {
		residual = 100 * math.Abs(desHostMS-predictedMS) / desHostMS
	}
	res.set("ledger.residual_pct", residual, "%")
	fmt.Printf("ledger: measured %.3f ms/step outside gcm; predicted %.3f = events %.3f + packets %.3f + inter-stage hops %.3f\n",
		desHostMS, predictedMS, events*u.eventNS/1e6, packets*packetNS/1e6, interStage*hopNS/1e6)

	var cals []float64
	for _, c := range ctl.cal {
		cals = append(cals, c.Seconds()*1e3)
	}
	res.set("host.raw_step_ms", rawNS/1e6/steps, "ms")
	res.set("host.calibration_ms", median(cals), "ms")
}

// meanHops is the mean link count between distinct endpoints: the hop
// estimate per packet where the fabric exposes no per-link counts.
func meanHops(f *arctic.Fabric) float64 {
	n := f.Config().Endpoints
	if n < 2 {
		return 0
	}
	total := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				total += f.HopsBetween(s, d)
			}
		}
	}
	return float64(total) / float64(n*(n-1))
}
