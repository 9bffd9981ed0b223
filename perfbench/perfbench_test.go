package main

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"hyades/internal/cluster"
	"hyades/internal/comm"
	"hyades/internal/gcm"
	"hyades/internal/gcm/tile"
)

func TestScaledArithmetic(t *testing.T) {
	// Calibrations at exactly the reference leave a duration unchanged.
	if got := scaled(100*time.Millisecond, refCalibration, refCalibration); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("scaled at reference = %v, want 0.1", got)
	}
	// A host twice as slow on both sides halves the duration.
	if got := scaled(time.Second, 2*refCalibration, 2*refCalibration); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("scaled on a 2x slower host = %v, want 0.5", got)
	}
	// The divisor is the mean of the two calibrations.
	got := scaled(time.Second, refCalibration/2, 3*refCalibration/2)
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("scaled by the mean of 0.5x and 1.5x = %v, want 1", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 2, 1})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// tiny shrinks a workload to a 32x16 grid so a whole run takes seconds.
func tiny(w *workload) *workload {
	s := *w
	s.builds, s.segSteps = 2, 1
	switch {
	case s.nodes == 0:
		s.decomp = tile.Decomp{NXg: 32, NYg: 16, Px: 1, Py: 1, PeriodicX: true}
	case s.coupled:
		s.decomp = tile.Decomp{NXg: 32, NYg: 16, Px: 2, Py: 1, PeriodicX: true}
		s.nodes, s.ppn = 2, 2
	default:
		s.decomp = tile.Decomp{NXg: 32, NYg: 16, Px: 2, Py: 2, PeriodicX: true}
		s.nodes, s.ppn = 4, 1
	}
	return &s
}

// TestMetricsMatchDefinition runs every workload, shrunk, in both
// modes and checks the printed metric names against BENCHMARK.json.
func TestMetricsMatchDefinition(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for i, wl := range def.Workloads {
		if i >= len(names) || names[i] != wl.Name {
			t.Fatalf("BENCHMARK.json workloads %v, command has %v", def.Workloads, names)
		}
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, command %d", len(def.Workloads), len(workloads))
	}
	for _, w := range workloads {
		w := tiny(w)
		e2e, err := measure(w, 1, time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		sameMetrics(t, w.name+" -trace 0", e2e.metrics, def.EndToEnd)
		layer, err := traced(w, 1, time.Millisecond)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		sameMetrics(t, w.name+" -trace 1", layer.metrics, def.PerLayer)
		if e2e.attempted < 1 || layer.attempted < 1 {
			t.Errorf("%s: attempted %d/%d steps", w.name, e2e.attempted, layer.attempted)
		}
	}
}

func sameMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var g, w []string
	for name, m := range got {
		g = append(g, name+" "+m.Unit)
	}
	for _, m := range want {
		w = append(w, m.Name+" "+m.Unit)
	}
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Errorf("%s prints %v, BENCHMARK.json names %v", what, g, w)
		return
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s prints %v, BENCHMARK.json names %v", what, g, w)
			return
		}
	}
}

// TestTracedEndpointNonPerturbing runs a 2x2 gyre on four nodes with
// and without the traced endpoints: digest, event count and virtual
// clock must be identical.
func TestTracedEndpointNonPerturbing(t *testing.T) {
	run := func(trace bool) ([32]byte, uint64, int64) {
		d := tile.Decomp{NXg: 32, NYg: 32, Px: 2, Py: 2}
		cfg := gcm.GyreConfig(32, 32, 4, d)
		cl, err := cluster.New(cluster.DefaultConfig(4, 1))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		lib, err := comm.NewHyades(cl, comm.DefaultHyadesConfig())
		if err != nil {
			t.Fatal(err)
		}
		tr := &tracer{}
		tr.reset(4)
		models := make([]*gcm.Model, 4)
		cl.Start(func(w *cluster.Worker) {
			var ep comm.Endpoint = lib.Bind(w)
			if trace {
				ep = tr.wrap(w.Rank, ep)
			}
			m, err := gcm.New(cfg, ep)
			if err != nil {
				t.Error(err)
				return
			}
			models[w.Rank] = m
			m.Run(3)
		})
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		if trace {
			tot := tr.totals()
			if tot.exchanges == 0 || tot.gsums == 0 || tot.closureNS == 0 {
				t.Errorf("traced run counted nothing: %+v", tot)
			}
		}
		h := sha256.New()
		for _, m := range models {
			if err := m.Checkpoint(h); err != nil {
				t.Fatal(err)
			}
		}
		var dg [32]byte
		copy(dg[:], h.Sum(nil))
		return dg, cl.Eng.Events(), int64(cl.Eng.Now())
	}
	d0, e0, c0 := run(false)
	d1, e1, c1 := run(true)
	if d0 != d1 || e0 != e1 || c0 != c1 {
		t.Errorf("traced run differs: digest %x/%x events %d/%d clock %d/%d", d0[:8], d1[:8], e0, e1, c0, c1)
	}
}
