package splash

import (
	"commprof/internal/exec"
	"commprof/internal/trace"
	"commprof/internal/vmem"
)

// cholesky implements the SPLASH-2 sparse Cholesky factorization kernel.
// Columns are assigned to threads cyclically; columns are processed in
// wavefronts, and factoring column j requires reading a sparse, decaying set
// of earlier columns (its supernodal update set), whose owners are spread
// over all threads — an irregular lower-triangular many-to-many pattern.
type cholesky struct {
	*base
	ncols   uint64
	colLen  uint64 // elements touched per column operation
	updates int    // prior columns read per factored column

	cols  vmem.Region
	flags vmem.Region

	rMain, rFactor, rFactorLoop, rUpdateLoop, rBarrier int32
}

func newCholesky(cfg Config) (Program, error) {
	p := &cholesky{
		base:    newBase("cholesky", cfg),
		ncols:   scale3(cfg.Size, uint64(192), 384, 768),
		colLen:  scale3(cfg.Size, uint64(16), 20, 24),
		updates: scale3(cfg.Size, 6, 8, 10),
	}
	p.cols = p.space.Alloc("L", p.ncols*p.colLen, 8)
	p.flags = p.space.Alloc("barrier", uint64(cfg.Threads), 8)

	t := p.table
	p.rMain = t.AddFunc("Go", trace.NoRegion)
	p.rFactor = t.AddFunc("Factor", trace.NoRegion)
	p.rFactorLoop = t.AddLoop("Factor#supernode", p.rFactor)
	p.rUpdateLoop = t.AddLoop("Factor#updates", p.rFactor)
	p.rBarrier = t.AddFunc("barrier", trace.NoRegion)
	p.thread = p.body
	return p, nil
}

func (p *cholesky) owner(col uint64) int32 { return int32(col % uint64(p.Threads())) }

func (p *cholesky) body(t *exec.Thread) {
	t.EnterRegion(p.rMain)
	defer t.ExitRegion()
	nt := uint64(p.Threads())
	rng := newXorshift(p.cfg.Seed, t.ID())

	// Initialize owned columns.
	for c := uint64(t.ID()); c < p.ncols; c += nt {
		writeRange(t, p.cols, c*p.colLen, p.colLen)
	}
	commBarrier(t, p.rBarrier, p.flags)

	// Wavefront factorization: wave w covers columns [w*nt, (w+1)*nt).
	waves := (p.ncols + nt - 1) / nt
	for w := uint64(0); w < waves; w++ {
		col := w*nt + uint64(t.ID())
		if col < p.ncols {
			t.EnterRegion(p.rFactor)
			// Read the sparse update set: earlier columns with an index
			// distribution skewed toward recent columns (supernodal
			// structure clusters dependencies).
			t.InRegion(p.rUpdateLoop, func() {
				for u := 0; u < p.updates && col > 0; u++ {
					back := rng.intn(col) % (col/4 + 1)
					dep := col - 1 - back%col
					readRange(t, p.cols, dep*p.colLen, p.colLen/2)
					t.Work(4)
				}
			})
			// cmod/cdiv on the owned column.
			t.InRegion(p.rFactorLoop, func() {
				for e := uint64(0); e < p.colLen; e++ {
					idx := col*p.colLen + e
					t.Read(p.cols.Addr(idx), 8)
					t.Work(3)
					t.Write(p.cols.Addr(idx), 8)
				}
			})
			t.ExitRegion()
		}
		commBarrier(t, p.rBarrier, p.flags)
	}
}
