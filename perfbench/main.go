// Command perfbench is the repository's benchmark.  It treats the
// simulator as a library: it builds the machine and the models through
// their public APIs, times segments of model steps, checks the results
// and prints every metric by name and unit, ending with one JSON line.
//
//	perfbench -workload coupled-fig9 -seed 1 -seconds 20 -trace 0
//	perfbench -steadiness 10 -seconds 20
//
// -trace 0 prints the end-to-end metrics, -trace 1 the per-layer
// metrics of a separate traced run.  -steadiness N runs each workload
// N times (one process per run) and prints each end-to-end metric's
// median, quartiles, range and quartile spread against its bound.
// See README.md for the workloads, metrics and method.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"hyades/internal/arctic"
	"hyades/internal/comm"
)

// yearSeconds is one 360-day model year.
const yearSeconds = 360 * 86400

func main() {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Uint64("seed", 1, "input seed (with -steadiness, the first of n seeds)")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	steady := flag.Int("steadiness", 0, "run each workload this many times and report the spread")
	config := flag.String("config", "BENCHMARK.json", "benchmark definition (steadiness bounds)")
	flag.Parse()

	if *steady > 0 {
		if err := steadiness(*config, *name, *steady, *seconds, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := lookup(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload NAME -seconds N>0 -trace 0|1:", err)
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = traced(w, *seed, dur)
	} else {
		res, err = measure(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	raw               map[string]metric // uncalibrated twins, for the steadiness report
	failures          []string
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, raw: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// check records a failed correctness check.
func (r *result) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	status := "ok"
	if !ok {
		status = "FAILED"
		r.failures = append(r.failures, msg)
	}
	fmt.Printf("check %-6s %s\n", status, msg)
}

// print writes the metrics one per line, then the JSON result line.
func (r *result) print(f *os.File) {
	for _, name := range sortedKeys(r.metrics) {
		fmt.Fprintf(f, "%-32s %14.6g %s\n", name, r.metrics[name].Value, r.metrics[name].Unit)
	}
	for _, name := range sortedKeys(r.raw) {
		fmt.Fprintf(f, "raw %-28s %14.6g %s\n", name, r.raw[name].Value, r.raw[name].Unit)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.failures) == 0, r.attempted, r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(f, string(b))
}

func sortedKeys(m map[string]metric) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// snapshot is every counter the benchmark reads, taken at a pause.
type snapshot struct {
	events uint64
	net    arctic.Stats
	hops   map[string]int64
	fs     comm.FaultStats
	comm   comm.Stats // virtual times summed over ranks
	tr     traceTotals
	flops  [2]flopCount // ocean, atmosphere
	salt   float64      // ocean salt content (end of setup and end of run only)
}

func takeSnapshot(b *build, tr *tracer) snapshot {
	s := snapshot{flops: [2]flopCount{countFlops(b.ranks, true), countFlops(b.ranks, false)}}
	if b.cl != nil {
		s.events = b.cl.Eng.Events()
		s.net = b.cl.Fabric.Stats()
		s.hops = fabricHops(b.cl.Fabric)
		s.fs = b.lib.FaultStats()
	}
	for _, ep := range b.raw {
		st := ep.Stats()
		s.comm.ComputeTime += st.ComputeTime
		s.comm.ExchangeTime += st.ExchangeTime
		s.comm.GsumTime += st.GsumTime
	}
	if tr != nil {
		s.tr = tr.totals()
	}
	return s
}

// measured is the timed build of a run with its pause snapshots.
type measured struct {
	b      *build
	snaps  []snapshot
	setups []float64 // calibrated setup seconds of every build
	raws   []float64 // raw setup seconds
	clusts []float64 // calibrated cluster.New + comm.NewHyades seconds
}

// timedRun makes w.builds builds: all but the last stop after setup;
// the last runs segments for dur (with tracing when tr is set).
func timedRun(w *workload, seed uint64, dur time.Duration, tr *tracer) (*measured, error) {
	out := &measured{}
	for k := 0; k < w.builds; k++ {
		final := k == w.builds-1
		ctl := &controller{segSteps: w.segSteps, seconds: dur, timed: true, setupOnly: !final}
		btr := tr
		if final {
			ctl.observe = func(b *build, k int) {
				s := takeSnapshot(b, tr)
				if k == 0 {
					s.salt = oceanSalt(b.ranks)
				}
				out.snaps = append(out.snaps, s)
			}
		} else {
			btr = nil // setup builds run untraced
		}
		b, err := runBuild(w, seed, ctl, btr)
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, ctl.setupSeconds())
		out.raws = append(out.raws, ctl.setup.Seconds())
		out.clusts = append(out.clusts, scaled(b.clSetup, ctl.calStart, ctl.cal[0]))
		if final {
			out.b = b
		} else {
			// Collect the abandoned machine now, so its garbage does
			// not set the process's peak resident memory.
			b.close()
			runtime.GC()
		}
	}
	return out, nil
}

// replay runs w again, untimed and untraced, for the same segments.
func replay(w *workload, seed uint64, segs int) (*build, error) {
	return runBuild(w, seed, &controller{segSteps: w.segSteps, plan: segs}, nil)
}

// measure is the untraced run: the end-to-end metrics.
func measure(w *workload, seed uint64, dur time.Duration) (*result, error) {
	m, err := timedRun(w, seed, dur, nil)
	if err != nil {
		return nil, err
	}
	defer m.b.close()
	res := newResult()
	ctl := m.b.ctl
	steps := ctl.steps()
	res.attempted = steps
	yearsPerStep := w.dt() / yearSeconds
	res.set("model_years_per_hour", yearsPerStep*3600/ctl.stepSeconds(), "y/h")
	res.set("setup_s", median(m.setups), "s")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	res.set("sim_ms_per_step", ctl.simTime().Seconds()*1e3/float64(steps), "ms")
	if _, err := verify(res, w, seed, m); err != nil {
		return nil, err
	}
	res.raw["model_years_per_hour"] = metric{yearsPerStep * 3600 / ctl.rawStepSeconds(), "y/h"}
	res.raw["setup_s"] = metric{median(m.raws), "s"}
	return res, nil
}

// verify runs the workload's correctness checks on the timed build and
// returns the paper model's virtual time per step.
func verify(res *result, w *workload, seed uint64, m *measured) (modelMS float64, err error) {
	b, ctl := m.b, m.b.ctl
	steps := ctl.steps()
	first := m.snaps[0]
	salt1 := oceanSalt(b.ranks)
	drift := math.Abs(salt1-first.salt) / math.Abs(first.salt)
	res.check(drift <= saltTol, "ocean salt drift %.3g <= %g", drift, saltTol)
	div := maxDivergence(b.ranks)
	res.check(div <= divTol, "max depth-integrated divergence %.3g <= %g 1/s", div, divTol)

	if b.serial != nil {
		f := countFlops(b.ranks, true).sub(first.flops[0])
		gap, allow := serialTimeError(ctl.simTime(), f, steps)
		res.check(gap <= allow, "serial clock = dPS/Fps + dDS/Fds within rounding: gap %.0f ps <= %.0f ps", gap, allow)
	}
	if w.dropRate > 0 {
		fs := b.lib.FaultStats()
		res.check(fs.Retransmits > 0, "lossy run retransmitted %d packets (> 0)", fs.Retransmits)
		got, err := b.digest()
		if err != nil {
			return 0, err
		}
		ref, err := replay(w.faultFree(), seed, len(ctl.segWall))
		if err != nil {
			return 0, fmt.Errorf("fault-free reference: %w", err)
		}
		want, err := ref.digest()
		ref.close()
		if err != nil {
			return 0, err
		}
		res.check(got == want, "final state digest %x equals the fault-free run's %x", got[:8], want[:8])
	}
	model, err := modelStepFor(w, b.ranks, first.flops, steps)
	if err != nil {
		return 0, err
	}
	modelMS = model.Seconds() * 1e3
	if w.simBand[1] > 0 {
		ratio := ctl.simTime().Seconds() * 1e3 / float64(steps) / modelMS
		res.check(ratio >= w.simBand[0] && ratio <= w.simBand[1],
			"sim_ms_per_step / perfmodel = %.3f within [%g, %g]", ratio, w.simBand[0], w.simBand[1])
	}
	return modelMS, nil
}
