package splash

import (
	"commprof/internal/exec"
	"commprof/internal/trace"
	"commprof/internal/vmem"
)

// waterNsq implements SPLASH-2 water-nsquared: molecular dynamics with an
// O(n²) all-pairs force computation. Every thread owns a contiguous block of
// molecules; INTERF reads the positions of all other molecules (owned by all
// other threads) and accumulates symmetric force updates into both parties'
// force arrays, producing a dense all-to-all matrix; POTENG is a gather
// reduction into thread 0. MDMAIN is the timestep driver — this is exactly
// the nested structure of the paper's Fig. 7.
type waterNsq struct {
	*base
	nmol  uint64
	steps int

	pos, forces, partial, flags vmem.Region

	rMDMAIN, rStepLoop, rINTERF, rInterfLoop, rPOTENG, rPotengLoop, rKINETI, rKinetiLoop, rBarrier int32
}

func newWaterNsq(cfg Config) (Program, error) {
	p := &waterNsq{
		base:  newBase("water_nsq", cfg),
		nmol:  scale3(cfg.Size, uint64(96), 160, 288),
		steps: scale3(cfg.Size, 2, 2, 3),
	}
	if p.nmol < 2*uint64(cfg.Threads) {
		p.nmol = 2 * uint64(cfg.Threads)
	}
	p.pos = p.space.Alloc("VAR", p.nmol, 24) // position vector per molecule
	p.forces = p.space.Alloc("FORCES", p.nmol, 24)
	p.partial = p.space.Alloc("POTA", uint64(cfg.Threads), 8)
	p.flags = p.space.Alloc("barrier", uint64(cfg.Threads), 8)

	t := p.table
	p.rMDMAIN = t.AddFunc("MDMAIN", trace.NoRegion)
	p.rStepLoop = t.AddLoop("MDMAIN#timestep", p.rMDMAIN)
	p.rINTERF = t.AddFunc("INTERF", trace.NoRegion)
	p.rInterfLoop = t.AddLoop("INTERF#pairs", p.rINTERF)
	p.rPOTENG = t.AddFunc("POTENG", trace.NoRegion)
	p.rPotengLoop = t.AddLoop("POTENG#reduce", p.rPOTENG)
	p.rKINETI = t.AddFunc("KINETI", trace.NoRegion)
	p.rKinetiLoop = t.AddLoop("KINETI#own", p.rKINETI)
	p.rBarrier = t.AddFunc("barrier", trace.NoRegion)
	p.thread = p.body
	return p, nil
}

func (p *waterNsq) body(t *exec.Thread) {
	t.EnterRegion(p.rMDMAIN)
	defer t.ExitRegion()
	lo, hi := blockRange(p.nmol, int(t.ID()), p.Threads())

	// Initialize owned molecules.
	writeRange(t, p.pos, lo, hi-lo)
	writeRange(t, p.forces, lo, hi-lo)
	commBarrier(t, p.rBarrier, p.flags)

	t.EnterRegion(p.rStepLoop)
	defer t.ExitRegion()
	for step := 0; step < p.steps; step++ {
		// INTERF: all-pairs interactions. SPLASH assigns each thread the
		// pairs (i,j) with i owned; j ranges over the following molecules,
		// wrapping — so every thread reads every other thread's positions.
		t.EnterRegion(p.rINTERF)
		t.InRegion(p.rInterfLoop, func() {
			for i := lo; i < hi; i++ {
				t.Read(p.pos.Addr(i), 24)
				for off := uint64(1); off <= p.nmol/2; off += 3 {
					j := (i + off) % p.nmol
					t.Read(p.pos.Addr(j), 24)
					t.Work(30) // Lennard-Jones force evaluation
					// Symmetric force update: j's slot belongs to its owner.
					t.Read(p.forces.Addr(j), 24)
					t.Write(p.forces.Addr(j), 24)
				}
				t.Read(p.forces.Addr(i), 24)
				t.Write(p.forces.Addr(i), 24)
			}
		})
		t.ExitRegion()
		commBarrier(t, p.rBarrier, p.flags)

		// POTENG: partial potential energies gathered by thread 0.
		t.EnterRegion(p.rPOTENG)
		t.InRegion(p.rPotengLoop, func() {
			t.Write(p.partial.Addr(uint64(t.ID())), 8)
			if t.ID() == 0 {
				readRange(t, p.partial, 0, uint64(p.Threads()))
			}
		})
		t.ExitRegion()
		commBarrier(t, p.rBarrier, p.flags)

		// KINETI: local position/velocity integration of owned molecules.
		t.EnterRegion(p.rKINETI)
		t.InRegion(p.rKinetiLoop, func() {
			for i := lo; i < hi; i++ {
				t.Read(p.forces.Addr(i), 24)
				t.Work(4)
				t.Write(p.pos.Addr(i), 24)
			}
		})
		t.ExitRegion()
		commBarrier(t, p.rBarrier, p.flags)
	}
}

// waterSpat implements SPLASH-2 water-spatial: the same molecular dynamics
// with a 3-D cell decomposition. Threads own slabs of cells and interact only
// with the 26-neighbourhood, so communication collapses from all-to-all to
// slab neighbours (tid±1) — the contrast with water_nsq is itself a result
// the SPLASH characterization literature highlights.
type waterSpat struct {
	*base
	cells uint64 // cells per side; thread slabs along the z axis
	molsC uint64 // molecules per cell
	steps int

	cellData, flags vmem.Region

	rMain, rStepLoop, rINTERF, rInterfLoop, rUpdateLoop, rBarrier int32
}

func newWaterSpat(cfg Config) (Program, error) {
	p := &waterSpat{
		base:  newBase("water_spat", cfg),
		cells: scale3(cfg.Size, uint64(16), 20, 24),
		molsC: scale3(cfg.Size, uint64(2), 3, 4),
		steps: scale3(cfg.Size, 2, 2, 3),
	}
	n := p.cells * p.cells * p.cells * p.molsC
	p.cellData = p.space.Alloc("cells", n, 24)
	p.flags = p.space.Alloc("barrier", uint64(cfg.Threads), 8)

	t := p.table
	p.rMain = t.AddFunc("MDMAIN", trace.NoRegion)
	p.rStepLoop = t.AddLoop("MDMAIN#timestep", p.rMain)
	p.rINTERF = t.AddFunc("INTERF", trace.NoRegion)
	p.rInterfLoop = t.AddLoop("INTERF#cells", p.rINTERF)
	p.rUpdateLoop = t.AddLoop("UPDATE#own", p.rINTERF)
	p.rBarrier = t.AddFunc("barrier", trace.NoRegion)
	p.thread = p.body
	return p, nil
}

// molIndex returns the element index of molecule m of cell (x,y,z).
func (p *waterSpat) molIndex(x, y, z, m uint64) uint64 {
	return ((z*p.cells+y)*p.cells+x)*p.molsC + m
}

func (p *waterSpat) body(t *exec.Thread) {
	t.EnterRegion(p.rMain)
	defer t.ExitRegion()
	// Threads own contiguous z-slabs of cells.
	zlo, zhi := blockRange(p.cells, int(t.ID()), p.Threads())

	for z := zlo; z < zhi; z++ {
		for y := uint64(0); y < p.cells; y++ {
			for x := uint64(0); x < p.cells; x++ {
				for m := uint64(0); m < p.molsC; m++ {
					t.Write(p.cellData.Addr(p.molIndex(x, y, z, m)), 24)
				}
			}
		}
	}
	commBarrier(t, p.rBarrier, p.flags)

	t.EnterRegion(p.rStepLoop)
	defer t.ExitRegion()
	for step := 0; step < p.steps; step++ {
		t.EnterRegion(p.rINTERF)
		t.InRegion(p.rInterfLoop, func() {
			for z := zlo; z < zhi; z++ {
				for y := uint64(0); y < p.cells; y++ {
					for x := uint64(0); x < p.cells; x++ {
						// Interact with the z±1 neighbour cells; slab edges
						// read the adjacent thread's cells.
						for dz := int64(-1); dz <= 1; dz++ {
							nz := int64(z) + dz
							if nz < 0 || nz >= int64(p.cells) {
								continue
							}
							for m := uint64(0); m < p.molsC; m++ {
								t.Read(p.cellData.Addr(p.molIndex(x, y, uint64(nz), m)), 24)
								t.Work(25)
							}
						}
					}
				}
			}
		})
		t.InRegion(p.rUpdateLoop, func() {
			for z := zlo; z < zhi; z++ {
				for y := uint64(0); y < p.cells; y++ {
					for x := uint64(0); x < p.cells; x++ {
						for m := uint64(0); m < p.molsC; m++ {
							idx := p.molIndex(x, y, z, m)
							t.Read(p.cellData.Addr(idx), 24)
							t.Work(3)
							t.Write(p.cellData.Addr(idx), 24)
						}
					}
				}
			}
		})
		t.ExitRegion()
		commBarrier(t, p.rBarrier, p.flags)
	}
}
