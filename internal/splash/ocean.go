package splash

import (
	"commprof/internal/exec"
	"commprof/internal/trace"
	"commprof/internal/vmem"
)

// ocean implements the SPLASH-2 ocean-current simulation: red-black
// Gauss-Seidel relaxation over a 2-D grid partitioned into square subgrids,
// one per thread. Interior updates read own data; updates on subgrid edges
// read halo elements owned by the 4-neighbouring threads — the canonical
// structured-grid nearest-neighbour pattern (strong diagonal band at ±1 and
// ±pc in the communication matrix).
//
// ocean_cp ("contiguous partitions") gives each thread's subgrid its own
// contiguous allocation, as the 4-D-array version of SPLASH does; ocean_ncp
// keeps one global row-major array, where subgrid rows interleave.
type ocean struct {
	*base
	contiguous bool
	dim        uint64 // grid is dim×dim
	iters      int

	grid, grid2 vmem.Region
	flags       vmem.Region

	rMain, rInitLoop, rRelax, rRelaxLoop, rMultiLoop, rBarrier int32

	pr, pc int
	sub    uint64 // subgrid side length (dim/pr rows × dim/pc cols approx)
}

func newOcean(cfg Config, contiguous bool) (Program, error) {
	name := "ocean_ncp"
	if contiguous {
		name = "ocean_cp"
	}
	p := &ocean{
		base:       newBase(name, cfg),
		contiguous: contiguous,
		dim:        scale3(cfg.Size, uint64(64), 96, 160),
		iters:      scale3(cfg.Size, 3, 4, 4),
	}
	p.pr, p.pc = procGrid(cfg.Threads)
	n := p.dim * p.dim
	p.grid = p.space.Alloc("q_multi", n, 8)
	p.grid2 = p.space.Alloc("rhs_multi", n, 8)
	p.flags = p.space.Alloc("barrier", uint64(cfg.Threads), 8)

	t := p.table
	p.rMain = t.AddFunc("slave", trace.NoRegion)
	p.rInitLoop = t.AddLoop("slave#init", p.rMain)
	p.rRelax = t.AddFunc("relax", trace.NoRegion)
	p.rRelaxLoop = t.AddLoop("relax#redblack", p.rRelax)
	p.rMultiLoop = t.AddLoop("multig#residual", p.rRelax)
	p.rBarrier = t.AddFunc("barrier", trace.NoRegion)
	p.thread = p.body
	return p, nil
}

// cell maps grid coordinates to an element index. In cp mode the element
// order groups each thread's subgrid contiguously; in ncp mode it is global
// row-major.
func (p *ocean) cell(r, c uint64) uint64 {
	if !p.contiguous {
		return r*p.dim + c
	}
	rowsPer := (p.dim + uint64(p.pr) - 1) / uint64(p.pr)
	colsPer := (p.dim + uint64(p.pc) - 1) / uint64(p.pc)
	br, bc := r/rowsPer, c/colsPer
	owner := br*uint64(p.pc) + bc
	lr, lc := r%rowsPer, c%colsPer
	return owner*rowsPer*colsPer + lr*colsPer + lc
}

// ownerOf returns which thread owns grid cell (r,c).
func (p *ocean) ownerOf(r, c uint64) int32 {
	rowsPer := (p.dim + uint64(p.pr) - 1) / uint64(p.pr)
	colsPer := (p.dim + uint64(p.pc) - 1) / uint64(p.pc)
	return int32((r/rowsPer)*uint64(p.pc) + c/colsPer)
}

func (p *ocean) body(t *exec.Thread) {
	t.EnterRegion(p.rMain)
	defer t.ExitRegion()

	// Owned cell ranges.
	rowsPer := (p.dim + uint64(p.pr) - 1) / uint64(p.pr)
	colsPer := (p.dim + uint64(p.pc) - 1) / uint64(p.pc)
	br := uint64(t.ID()) / uint64(p.pc)
	bc := uint64(t.ID()) % uint64(p.pc)
	r0, r1 := br*rowsPer, min64((br+1)*rowsPer, p.dim)
	c0, c1 := bc*colsPer, min64((bc+1)*colsPer, p.dim)

	// First-touch initialization of the owned subgrid.
	t.InRegion(p.rInitLoop, func() {
		for r := r0; r < r1; r++ {
			for c := c0; c < c1; c++ {
				t.Write(p.grid.Addr(p.cell(r, c)), 8)
				t.Write(p.grid2.Addr(p.cell(r, c)), 8)
			}
		}
	})
	commBarrier(t, p.rBarrier, p.flags)

	for it := 0; it < p.iters; it++ {
		// Red-black relaxation over the owned subgrid; halo reads hit
		// neighbour threads' boundary rows/columns.
		t.EnterRegion(p.rRelax)
		t.InRegion(p.rRelaxLoop, func() {
			for colour := uint64(0); colour < 2; colour++ {
				for r := r0; r < r1; r++ {
					for c := c0; c < c1; c++ {
						if (r+c)%2 != colour {
							continue
						}
						p.readNeighbor(t, r, c, 0, -1)
						p.readNeighbor(t, r, c, 0, 1)
						p.readNeighbor(t, r, c, -1, 0)
						p.readNeighbor(t, r, c, 1, 0)
						t.Work(4)
						t.Write(p.grid.Addr(p.cell(r, c)), 8)
					}
				}
			}
		})
		t.ExitRegion()
		commBarrier(t, p.rBarrier, p.flags)

		// Residual computation on the second grid (local sweep).
		t.EnterRegion(p.rRelax)
		t.InRegion(p.rMultiLoop, func() {
			for r := r0; r < r1; r++ {
				for c := c0; c < c1; c++ {
					t.Read(p.grid.Addr(p.cell(r, c)), 8)
					t.Work(2)
					t.Write(p.grid2.Addr(p.cell(r, c)), 8)
				}
			}
		})
		t.ExitRegion()
		commBarrier(t, p.rBarrier, p.flags)
	}
}

func (p *ocean) readNeighbor(t *exec.Thread, r, c uint64, dr, dc int64) {
	nr, nc := int64(r)+dr, int64(c)+dc
	if nr < 0 || nc < 0 || nr >= int64(p.dim) || nc >= int64(p.dim) {
		return
	}
	t.Read(p.grid.Addr(p.cell(uint64(nr), uint64(nc))), 8)
}
