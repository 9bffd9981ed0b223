package main

import (
	"fmt"
	"math"

	"hyades/internal/bench"
	"hyades/internal/gcm"
	"hyades/internal/gcm/kernel"
	"hyades/internal/gcm/tile"
	"hyades/internal/perfmodel"
	"hyades/internal/units"
)

// Correctness checks, computed by the benchmark from the models' state
// rather than through the code under test.

// Tolerances (README.md, "Correctness checks").
const (
	saltTol = 1e-12 // relative drift of ocean salt content
	divTol  = 1e-10 // depth-integrated divergence after projection, 1/s
)

// oceanSalt sums salt times open cell volume over every ocean tile's
// interior, in rank, level, row, column order.
func oceanSalt(ranks []stepper) float64 {
	total := 0.0
	for _, s := range ranks {
		m := s.ocean()
		if m == nil {
			continue
		}
		g := m.G
		for k := 0; k < g.NZ; k++ {
			for j := 0; j < g.NY; j++ {
				for i := 0; i < g.NX; i++ {
					total += m.S.Salt.At(i, j, k) * g.CellVolume(i, j, k)
				}
			}
		}
	}
	return total
}

// maxDivergence returns the largest absolute depth-integrated
// divergence over every wet column of every tile (ocean and
// atmosphere): the projection must leave each column non-divergent.
func maxDivergence(ranks []stepper) float64 {
	worst := 0.0
	for _, s := range ranks {
		m := s.model()
		g, st := m.G, m.S
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				depth := g.Depth.At(i, j)
				if depth == 0 {
					continue
				}
				dx, dy := g.DXC(j), g.DYC(j)
				var div float64
				for k := 0; k < g.NZ; k++ {
					dz := g.DZ[k]
					div += dy*dz*(st.U.At(i+1, j, k)*g.HFacW.At(i+1, j, k)-st.U.At(i, j, k)*g.HFacW.At(i, j, k)) +
						dz*(g.DXS(j+1)*st.V.At(i, j+1, k)*g.HFacS.At(i, j+1, k)-g.DXS(j)*st.V.At(i, j, k)*g.HFacS.At(i, j, k))
				}
				if d := math.Abs(div / (dx * dy * depth)); d > worst {
					worst = d
				}
			}
		}
	}
	return worst
}

// flopCount is the models' prognostic and diagnostic flop counters and
// solver iterations and solves, summed over the ocean or the atmosphere
// ranks.
type flopCount struct {
	ps, ds, iters, solves int64
}

func countFlops(ranks []stepper, ocean bool) flopCount {
	var f flopCount
	for _, s := range ranks {
		if (s.ocean() != nil) != ocean {
			continue
		}
		m := s.model()
		f.ps += m.C.PS
		f.ds += m.C.DS
		f.iters += m.Solver.TotalIters
		f.solves += m.Solver.Solves
	}
	return f
}

func (a flopCount) sub(b flopCount) flopCount {
	return flopCount{a.ps - b.ps, a.ds - b.ds, a.iters - b.iters, a.solves - b.solves}
}

// serialTimeError returns how far the serial clock's advance is from
// ΔPS/Fps + ΔDS/Fds, and the rounding allowance: every charge rounds
// its duration to the picosecond, and a step makes at most
// chargesPerStep + chargesPerIter*iterations charges.
func serialTimeError(elapsed units.Time, f flopCount, steps int) (gap, allow float64) {
	want := float64(f.ps)/(gcm.PaperFpsMFlops*1e6) + float64(f.ds)/(gcm.PaperFdsMFlops*1e6)
	gap = math.Abs(float64(elapsed) - want*float64(units.Second))
	const chargesPerStep, chargesPerIter = 32, 16
	allow = 0.5 * float64(chargesPerStep*int64(steps)+chargesPerIter*f.iters)
	return gap, allow
}

// modelStep evaluates the paper's eqs. (4)-(11) for one model step of
// one component: flops per cell from the run's own counters (f over
// steps), communication primitives measured with internal/bench on a
// machine of the component's shape, and the run's own Ni.
func modelStep(d tile.Decomp, nz, ppn int, f flopCount, steps int) (units.Time, error) {
	if f.solves == 0 || steps == 0 {
		return 0, fmt.Errorf("perfmodel: no timed steps")
	}
	cells := float64(d.NXg * d.NYg)
	ni := float64(f.iters) / float64(f.solves)
	nxy := d.NXg * d.NYg / d.Tiles()
	ps := perfmodel.PS{
		Nps:       float64(f.ps) / float64(steps) / (cells * float64(nz)),
		Nxyz:      nxy * nz,
		FpsMFlops: gcm.PaperFpsMFlops,
	}
	ds := perfmodel.DS{
		Nds:       float64(f.ds) / (ni * float64(steps)) / cells,
		Nxy:       nxy,
		FdsMFlops: gcm.PaperFdsMFlops,
	}
	if d.Tiles() > 1 {
		r := bench.HyadesRunner{PPN: ppn}
		var err error
		if ds.Tgsum, err = bench.Gsum(r, d.Tiles(), 4); err != nil {
			return 0, err
		}
		if ds.Texchxy, err = bench.Exchange2(r, d, 2); err != nil {
			return 0, err
		}
		if ps.Texchxyz, err = bench.Exchange3(r, d, nz, kernel.Halo, 1); err != nil {
			return 0, err
		}
	}
	e := perfmodel.Experiment{PS: ps, DS: ds, Nt: 1, Ni: ni}
	return e.Trun(), nil
}

// modelStepFor evaluates the model for a workload: the slower of the
// two components for the coupled run (they step concurrently).
func modelStepFor(w *workload, ranks []stepper, f0 [2]flopCount, steps int) (units.Time, error) {
	oc := countFlops(ranks, true).sub(f0[0])
	t, err := modelStep(w.decomp, 15, w.ppn, oc, steps)
	if err != nil || !w.coupled {
		return t, err
	}
	at := countFlops(ranks, false).sub(f0[1])
	ta, err := modelStep(w.decomp, 5, w.ppn, at, steps)
	if err != nil {
		return 0, err
	}
	if ta > t {
		t = ta
	}
	return t, nil
}
