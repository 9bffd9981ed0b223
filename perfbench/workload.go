package main

import (
	"fmt"

	"hyades/internal/cluster"
	"hyades/internal/comm"
	"hyades/internal/fault"
	"hyades/internal/gcm"
	"hyades/internal/gcm/grid"
	"hyades/internal/gcm/kernel"
	"hyades/internal/gcm/physics"
	"hyades/internal/gcm/tile"
)

// workload is one benchmark configuration.  The machine and models are
// built exactly as cmd/figure9 builds them; only the initial state
// (a seeded perturbation) and, for the lossy workload, the drop plan
// come from the seed.
type workload struct {
	name string

	nodes, ppn int         // Hyades machine; nodes == 0 runs on comm.Serial
	decomp     tile.Decomp // per component
	coupled    bool
	dropRate   float64 // per-packet, per-link drop probability

	segSteps int // model steps between pauses
	builds   int // setup builds per run; setup_s is their median

	// simBand bounds sim_ms_per_step / perfmodel.sim_ms_per_step
	// (zero: no model check).  See README.md for the justification.
	simBand [2]float64
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []*workload{
	{
		name:     "coupled-fig9",
		nodes:    8,
		ppn:      2,
		decomp:   tile.Decomp{NXg: 128, NYg: 64, Px: 4, Py: 2, PeriodicX: true},
		coupled:  true,
		segSteps: 4,
		builds:   9,
		simBand:  [2]float64{0.9, 1.25},
	},
	{
		name:     "ocean-serial",
		decomp:   tile.Decomp{NXg: 128, NYg: 64, Px: 1, Py: 1, PeriodicX: true},
		segSteps: 16,
		builds:   9,
	},
	{
		name:     "ocean-16x1-lossy",
		nodes:    16,
		ppn:      1,
		decomp:   tile.Decomp{NXg: 128, NYg: 64, Px: 4, Py: 4, PeriodicX: true},
		dropRate: 1e-3,
		segSteps: 1,
		builds:   9,
		simBand:  [2]float64{1.2, 2.0},
	},
}

// lookup returns the named workload.
func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// clusterConfig is the machine: cluster.DefaultConfig, plus the drop
// plan for the lossy workload (which switches on the reliable channel).
func (w *workload) clusterConfig(seed uint64) cluster.Config {
	cc := cluster.DefaultConfig(w.nodes, w.ppn)
	if w.dropRate > 0 {
		cc.Fault = fault.Config{Seed: seed, DropRate: w.dropRate}
	}
	return cc
}

// faultFree is the same workload without the drop plan: the reference
// whose final state the lossy run must reproduce bit for bit.
func (w *workload) faultFree() *workload {
	ff := *w
	ff.dropRate = 0
	return &ff
}

// dt is the model time step in seconds.
func (w *workload) dt() float64 { return gcm.CoarseOceanConfig(w.decomp).Kernel.Dt }

// newRank builds rank r's model on ep.
func (w *workload) newRank(r int, ep comm.Endpoint, seed uint64) (stepper, error) {
	if !w.coupled {
		cfg := gcm.CoarseOceanConfig(w.decomp)
		cfg.Init = perturbed(cfg.Init, seed, 1)
		m, err := gcm.New(cfg, ep)
		if err != nil {
			return nil, err
		}
		return modelStepper{m}, nil
	}
	cfg := gcm.DefaultCoupledConfig(w.decomp)
	cfg.Ocean.Init = perturbed(cfg.Ocean.Init, seed, 1)
	cfg.Atmos.Init = perturbed(cfg.Atmos.Init, seed, 2)
	if r < w.decomp.Tiles() {
		// Each atmosphere rank owns its physics package, as in
		// cmd/figure9.
		ph := physics.New(physics.Default())
		cfg.Atmos.Forcing = ph
		cfg.Physics = ph
	}
	c, err := gcm.NewCoupled(cfg, ep)
	if err != nil {
		return nil, err
	}
	return coupledStepper{c}, nil
}

// perturbAmp is the seeded initial temperature perturbation, in K.
const perturbAmp = 1e-3

// perturbed wraps a model's initial condition with a seeded,
// decomposition-independent temperature perturbation: each cell's
// offset is a hash of the seed and the cell's global index, so every
// tiling of the grid starts from the same field.
func perturbed(init func(*grid.Local, *kernel.State), seed, stream uint64) func(*grid.Local, *kernel.State) {
	return func(g *grid.Local, s *kernel.State) {
		init(g, s)
		nx := g.Cfg.NX
		for k := 0; k < g.NZ; k++ {
			for j := -g.H; j < g.NY+g.H; j++ {
				for i := -g.H; i < g.NX+g.H; i++ {
					gi := ((g.I0+i)%nx + nx) % nx
					key := seed*0x9e3779b97f4a7c15 ^ stream<<56 ^
						uint64(k)<<40 ^ uint64(g.J0+j+g.H)<<20 ^ uint64(gi)
					u := float64(splitmix(key)>>11) / (1 << 53)
					s.Theta.Set(i, j, k, s.Theta.At(i, j, k)+perturbAmp*(2*u-1))
				}
			}
		}
	}
}

// splitmix is the splitmix64 finalizer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
