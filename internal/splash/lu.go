package splash

import (
	"commprof/internal/exec"
	"commprof/internal/trace"
	"commprof/internal/vmem"
)

// lu implements the SPLASH-2 blocked dense LU factorization kernel. The
// matrix is split into nb×nb blocks assigned to threads in a 2-D scatter
// decomposition; step k factors the diagonal block (daxpy), divides the
// perimeter row/column (bdiv), and updates the trailing interior (bmod),
// with barriers between stages. Communication: perimeter owners read the
// diagonal block, interior owners read the perimeter blocks — the row/column
// broadcast structure visible in Fig. 6.
//
// lu_cb allocates each block contiguously ("contiguous blocks"); lu_ncb lays
// the matrix out globally row-major so one block's rows interleave with its
// neighbours' — same algorithmic communication, different address structure.
type lu struct {
	*base
	contiguous bool
	nb         int // blocks per side
	bElems     int // elements touched per block operation
	work       int // compute units per element

	mat     vmem.Region
	barrier vmem.Region

	rMain, rTouchA, rTouchALoop, rDaxpy, rDaxpyLoop, rBdiv, rBdivLoop, rBmod, rBmodLoop, rBarrier int32

	pr, pc int // processor grid
}

func newLU(cfg Config, contiguous bool) (Program, error) {
	name := "lu_ncb"
	if contiguous {
		name = "lu_cb"
	}
	p := &lu{
		base:       newBase(name, cfg),
		contiguous: contiguous,
		nb:         scale3(cfg.Size, 8, 12, 18),
		bElems:     scale3(cfg.Size, 16, 24, 36),
		work:       2,
	}
	p.pr, p.pc = procGrid(cfg.Threads)

	n := uint64(p.nb) * uint64(p.nb) * uint64(p.bElems)
	p.mat = p.space.Alloc("A", n, 8)
	p.barrier = p.space.Alloc("barrier", uint64(cfg.Threads), 8)

	t := p.table
	p.rMain = t.AddFunc("lu", trace.NoRegion)
	p.rTouchA = t.AddFunc("TouchA", trace.NoRegion)
	p.rTouchALoop = t.AddLoop("TouchA#init", p.rTouchA)
	p.rDaxpy = t.AddFunc("daxpy", trace.NoRegion)
	p.rDaxpyLoop = t.AddLoop("daxpy#elim", p.rDaxpy)
	p.rBdiv = t.AddFunc("bdiv", trace.NoRegion)
	p.rBdivLoop = t.AddLoop("bdiv#perimeter", p.rBdiv)
	p.rBmod = t.AddFunc("bmod", trace.NoRegion)
	p.rBmodLoop = t.AddLoop("bmod#interior", p.rBmod)
	p.rBarrier = t.AddFunc("barrier", trace.NoRegion)
	p.thread = p.body
	return p, nil
}

// procGrid factors threads into the most square pr×pc grid.
func procGrid(threads int) (pr, pc int) {
	pr = 1
	for d := 1; d*d <= threads; d++ {
		if threads%d == 0 {
			pr = d
		}
	}
	return pr, threads / pr
}

// owner implements the 2-D scatter decomposition.
func (p *lu) owner(bi, bj int) int32 {
	return int32((bi%p.pr)*p.pc + bj%p.pc)
}

// blockIndex returns the element index of the start of block (bi,bj) plus
// the element stride pattern, which differs between cb and ncb layouts.
func (p *lu) blockElem(bi, bj, e int) uint64 {
	if p.contiguous {
		return uint64((bi*p.nb+bj)*p.bElems + e)
	}
	// Non-contiguous: interleave blocks so consecutive elements of one block
	// are strided across the global array, as a row-major global layout does.
	return uint64(e*p.nb*p.nb + bi*p.nb + bj)
}

func (p *lu) readBlock(t *exec.Thread, bi, bj int) {
	for e := 0; e < p.bElems; e++ {
		t.Read(p.mat.Addr(p.blockElem(bi, bj, e)), 8)
	}
}

func (p *lu) updateBlock(t *exec.Thread, bi, bj int) {
	for e := 0; e < p.bElems; e++ {
		idx := p.blockElem(bi, bj, e)
		t.Read(p.mat.Addr(idx), 8)
		t.Work(p.work)
		t.Write(p.mat.Addr(idx), 8)
	}
}

func (p *lu) body(t *exec.Thread) {
	t.EnterRegion(p.rMain)
	defer t.ExitRegion()

	// TouchA: first-touch initialization of owned blocks.
	t.EnterRegion(p.rTouchA)
	t.InRegion(p.rTouchALoop, func() {
		for bi := 0; bi < p.nb; bi++ {
			for bj := 0; bj < p.nb; bj++ {
				if p.owner(bi, bj) != t.ID() {
					continue
				}
				for e := 0; e < p.bElems; e++ {
					t.Write(p.mat.Addr(p.blockElem(bi, bj, e)), 8)
				}
			}
		}
	})
	t.ExitRegion()
	p.barrierStep(t)

	for k := 0; k < p.nb; k++ {
		// Factor the diagonal block.
		if p.owner(k, k) == t.ID() {
			t.EnterRegion(p.rDaxpy)
			t.InRegion(p.rDaxpyLoop, func() { p.updateBlock(t, k, k) })
			t.ExitRegion()
		}
		p.barrierStep(t)

		// Divide perimeter row and column by the diagonal block.
		t.EnterRegion(p.rBdiv)
		t.InRegion(p.rBdivLoop, func() {
			for j := k + 1; j < p.nb; j++ {
				if p.owner(k, j) == t.ID() {
					p.readBlock(t, k, k)
					p.updateBlock(t, k, j)
				}
				if p.owner(j, k) == t.ID() {
					p.readBlock(t, k, k)
					p.updateBlock(t, j, k)
				}
			}
		})
		t.ExitRegion()
		p.barrierStep(t)

		// Interior update: A[i][j] -= A[i][k]*A[k][j].
		t.EnterRegion(p.rBmod)
		t.InRegion(p.rBmodLoop, func() {
			for bi := k + 1; bi < p.nb; bi++ {
				for bj := k + 1; bj < p.nb; bj++ {
					if p.owner(bi, bj) != t.ID() {
						continue
					}
					p.readBlock(t, bi, k)
					p.readBlock(t, k, bj)
					p.updateBlock(t, bi, bj)
				}
			}
		})
		t.ExitRegion()
		p.barrierStep(t)
	}
}

func (p *lu) barrierStep(t *exec.Thread) {
	commBarrier(t, p.rBarrier, p.barrier)
}
