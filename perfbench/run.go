package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"syscall"
	"time"

	"hyades/internal/arctic"
	"hyades/internal/cluster"
	"hyades/internal/comm"
	"hyades/internal/gcm"
	"hyades/internal/units"
)

// controller paces one build of a workload.  The simulation stops at
// pause points — after setup, then after every segment of segSteps
// model steps — with every rank parked, and the controller's pause
// runs there: it closes the segment's timings, samples the counters
// and runs the calibration kernel.  It also decides whether to stop.
type controller struct {
	segSteps int
	// plan > 0 replays exactly that many segments; otherwise segments
	// run until their summed wall time reaches seconds.  setupOnly
	// stops at the first pause (a setup-time build).
	plan      int
	seconds   time.Duration
	setupOnly bool
	// timed makes pauses run the calibration kernel; replays and
	// reference runs skip it.
	timed bool
	// observe, if set, runs at every pause (k = 0 is the end of setup)
	// before the calibration kernel, outside every timed interval.
	observe func(b *build, k int)
	b       *build

	start    time.Time     // build start
	calStart time.Duration // calibration just before the build
	setup    time.Duration // build start to first pause
	cal      []time.Duration
	segWall  []time.Duration
	segCPU   []time.Duration
	segSim   []units.Time

	resumed    time.Time
	resumedCPU time.Duration
	lastSim    units.Time
	stop       bool
}

// begin marks the build start, calibrating first when timed.
func (c *controller) begin() {
	if c.timed {
		c.calStart = calibrate()
	}
	c.start = time.Now()
}

// pause is called with the simulation stopped at virtual time sim.
func (c *controller) pause(sim units.Time) {
	t, cpu := time.Now(), processCPU()
	k := len(c.cal)
	if k == 0 {
		c.setup = t.Sub(c.start)
	} else {
		c.segWall = append(c.segWall, t.Sub(c.resumed))
		c.segCPU = append(c.segCPU, cpu-c.resumedCPU)
		c.segSim = append(c.segSim, sim-c.lastSim)
	}
	c.lastSim = sim
	if c.observe != nil {
		c.observe(c.b, k)
	}
	cal := time.Duration(0)
	if c.timed {
		cal = calibrate()
	}
	c.cal = append(c.cal, cal)
	switch {
	case c.setupOnly:
		c.stop = true
	case c.plan > 0:
		c.stop = len(c.segWall) >= c.plan
	default:
		var total time.Duration
		for _, w := range c.segWall {
			total += w
		}
		c.stop = total >= c.seconds
	}
	c.resumed, c.resumedCPU = time.Now(), processCPU()
}

// steps is the number of model steps the segments ran.
func (c *controller) steps() int { return len(c.segWall) * c.segSteps }

// setupSeconds is the build's host-calibrated setup time.
func (c *controller) setupSeconds() float64 {
	return scaled(c.setup, c.calStart, c.cal[0])
}

// segSeconds is segment j's host-calibrated wall time.
func (c *controller) segSeconds(j int) float64 {
	return scaled(c.segWall[j], c.cal[j], c.cal[j+1])
}

// stepSeconds is the host-calibrated time per model step: each
// segment scaled by the calibrations on either side of it, the slowest
// tenth of segments dropped, the rest averaged.
func (c *controller) stepSeconds() float64 {
	var xs []float64
	for j := range c.segWall {
		xs = append(xs, c.segSeconds(j)/float64(c.segSteps))
	}
	return trimmedMean(xs)
}

// rawStepSeconds is stepSeconds without the calibration.
func (c *controller) rawStepSeconds() float64 {
	var xs []float64
	for _, w := range c.segWall {
		xs = append(xs, w.Seconds()/float64(c.segSteps))
	}
	return trimmedMean(xs)
}

// factor is segment j's calibration factor (reference over measured).
func (c *controller) factor(j int) float64 {
	return scaled(time.Second, c.cal[j], c.cal[j+1])
}

// simTime is the virtual time of all segments.
func (c *controller) simTime() units.Time {
	var t units.Time
	for _, s := range c.segSim {
		t += s
	}
	return t
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stepper is one rank's handle on its model: it steps and digests.
type stepper interface {
	run(n int)
	checkpoint(h io.Writer) error
	ocean() *gcm.Model // the ocean tile, nil for an atmosphere rank
	model() *gcm.Model
}

type modelStepper struct{ m *gcm.Model }

func (s modelStepper) run(n int) { s.m.Run(n) }
func (s modelStepper) checkpoint(h io.Writer) error {
	return s.m.Checkpoint(h)
}
func (s modelStepper) ocean() *gcm.Model { return s.m }
func (s modelStepper) model() *gcm.Model { return s.m }

type coupledStepper struct{ c *gcm.Coupled }

func (s coupledStepper) run(n int) { s.c.Run(n) }
func (s coupledStepper) checkpoint(h io.Writer) error {
	return s.c.Checkpoint(h)
}
func (s coupledStepper) ocean() *gcm.Model {
	if s.c.IsOcean {
		return s.c.M
	}
	return nil
}
func (s coupledStepper) model() *gcm.Model { return s.c.M }

// build is one built instance of a workload, after its run.
type build struct {
	ctl     *controller
	ranks   []stepper
	raw     []comm.Endpoint // the program's endpoints (under any tracing)
	cl      *cluster.Cluster
	lib     *comm.Hyades
	serial  *comm.Serial
	events  uint64
	now     units.Time
	clSetup time.Duration // cluster.New + comm.NewHyades
}

// digest hashes every rank's checkpoint stream in rank order.
func (b *build) digest() ([32]byte, error) {
	h := sha256.New()
	for r, s := range b.ranks {
		if err := s.checkpoint(h); err != nil {
			return [32]byte{}, fmt.Errorf("rank %d digest: %w", r, err)
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d, nil
}

// close releases the machine's processes and worker pool.
func (b *build) close() {
	if b.cl != nil {
		b.cl.Close()
	}
}

// runBuild builds one instance of w on a fresh machine and drives it
// under ctl.  With tr set, the models run on traced endpoints.
func runBuild(w *workload, seed uint64, ctl *controller, tr *tracer) (*build, error) {
	ctl.begin()
	if w.nodes == 0 {
		return runSerial(w, seed, ctl, tr)
	}
	b := &build{ctl: ctl}
	ctl.b = b
	t0 := time.Now()
	cl, err := cluster.New(w.clusterConfig(seed))
	if err != nil {
		return nil, err
	}
	b.cl = cl
	lib, err := comm.NewHyades(cl, comm.DefaultHyadesConfig())
	if err != nil {
		cl.Close()
		return nil, err
	}
	b.lib = lib
	b.clSetup = time.Since(t0)
	n := cl.Processors()
	b.ranks = make([]stepper, n)
	b.raw = make([]comm.Endpoint, n)
	errs := make([]error, n)
	if tr != nil {
		tr.reset(n)
	}
	cl.Start(func(wk *cluster.Worker) {
		ep := lib.Bind(wk)
		var use comm.Endpoint = ep
		if tr != nil {
			use = tr.wrap(wk.Rank, ep)
		}
		b.raw[wk.Rank] = ep
		s, err := w.newRank(wk.Rank, use, seed)
		if err != nil {
			errs[wk.Rank] = err
			return
		}
		b.ranks[wk.Rank] = s
		for {
			// Pause point: every rank has finished its steps (first
			// barrier), rank 0 pauses while the rest wait in the
			// second barrier — no compute phase is in flight, so the
			// calibration kernel has the host to itself.
			ep.Barrier()
			if wk.Rank == 0 {
				ctl.pause(ep.Now())
			}
			ep.Barrier()
			if ctl.stop {
				return
			}
			if tr != nil {
				tr.resume(wk.Rank)
			}
			s.run(ctl.segSteps)
		}
	})
	runErr := cl.Run()
	for r, e := range errs {
		if e != nil {
			b.close()
			return nil, fmt.Errorf("rank %d: %w", r, e)
		}
	}
	if runErr != nil {
		b.close()
		return nil, runErr
	}
	b.events, b.now = cl.Eng.Events(), cl.Eng.Now()
	return b, nil
}

// runSerial drives the single-tile workload on comm.Serial: there is
// no engine, so the pause points are plain calls between segments.
func runSerial(w *workload, seed uint64, ctl *controller, tr *tracer) (*build, error) {
	ser := &comm.Serial{}
	var use comm.Endpoint = ser
	if tr != nil {
		tr.reset(1)
		use = tr.wrap(0, ser)
	}
	s, err := w.newRank(0, use, seed)
	if err != nil {
		return nil, err
	}
	b := &build{ctl: ctl, ranks: []stepper{s}, raw: []comm.Endpoint{ser}, serial: ser}
	ctl.b = b
	for {
		ctl.pause(ser.Now())
		if ctl.stop {
			break
		}
		if tr != nil {
			tr.resume(0)
		}
		s.run(ctl.segSteps)
	}
	b.now = ser.Now()
	return b, nil
}

// fabricHops returns the per-link transmission counters the fabric
// exposes (links that saw an injected fault; see README.md).
func fabricHops(f *arctic.Fabric) map[string]int64 {
	out := map[string]int64{}
	for _, l := range f.LinkStats() {
		out[l.Name] = l.Transmitted
	}
	return out
}
