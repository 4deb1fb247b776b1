package splash

import (
	"commprof/internal/exec"
	"commprof/internal/trace"
	"commprof/internal/vmem"
)

// fft implements the SPLASH-2 six-step FFT kernel: the n-point dataset is
// viewed as a √n×√n complex matrix whose rows are block-partitioned across
// threads. The algorithm alternates local 1-D FFTs on owned rows with full
// matrix transposes; each transpose makes every thread read the sub-blocks
// written by every other thread — the canonical all-to-all (spectral)
// communication pattern.
type fft struct {
	*base
	dim  int // matrix is dim×dim complex elements
	iter int // 1-D FFT butterfly passes per row (≈ log2 dim)

	src, dst vmem.Region
	flags    vmem.Region

	rMain, rInit, rInitLoop, rTrans, rTransLoop, rFFT1D, rFFT1DLoop, rBarrier int32
}

func newFFT(cfg Config) (Program, error) {
	p := &fft{
		base: newBase("fft", cfg),
		dim:  scale3(cfg.Size, 32, 48, 80),
		iter: scale3(cfg.Size, 5, 6, 6),
	}
	n := uint64(p.dim) * uint64(p.dim)
	p.src = p.space.Alloc("x", n, 16)     // complex128
	p.dst = p.space.Alloc("trans", n, 16) // transpose target
	p.flags = p.space.Alloc("barrier", uint64(cfg.Threads), 8)

	t := p.table
	p.rMain = t.AddFunc("SlaveStart", trace.NoRegion)
	p.rInit = t.AddFunc("InitX", trace.NoRegion)
	p.rInitLoop = t.AddLoop("InitX#rows", p.rInit)
	p.rTrans = t.AddFunc("Transpose", trace.NoRegion)
	p.rTransLoop = t.AddLoop("Transpose#blocks", p.rTrans)
	p.rFFT1D = t.AddFunc("FFT1DOnce", trace.NoRegion)
	p.rFFT1DLoop = t.AddLoop("FFT1DOnce#butterfly", p.rFFT1D)
	p.rBarrier = t.AddFunc("barrier", trace.NoRegion)
	p.thread = p.body
	return p, nil
}

func (p *fft) body(t *exec.Thread) {
	t.EnterRegion(p.rMain)
	defer t.ExitRegion()
	dim := uint64(p.dim)
	lo, hi := blockRange(dim, int(t.ID()), p.Threads())

	// Initialize owned rows of the source matrix.
	t.EnterRegion(p.rInit)
	t.InRegion(p.rInitLoop, func() {
		for r := lo; r < hi; r++ {
			writeRange(t, p.src, r*dim, dim)
		}
	})
	t.ExitRegion()
	commBarrier(t, p.rBarrier, p.flags)

	// Six-step FFT: transpose, FFT rows, transpose, FFT rows, transpose.
	cur, other := p.src, p.dst
	for step := 0; step < 3; step++ {
		p.transpose(t, cur, other, lo, hi)
		commBarrier(t, p.rBarrier, p.flags)
		cur, other = other, cur
		if step < 2 {
			p.fft1D(t, cur, lo, hi)
			commBarrier(t, p.rBarrier, p.flags)
		}
	}
}

// transpose reads column lo..hi of src (rows owned by every other thread)
// and writes the corresponding rows of dst.
func (p *fft) transpose(t *exec.Thread, src, dst vmem.Region, lo, hi uint64) {
	dim := uint64(p.dim)
	t.EnterRegion(p.rTrans)
	defer t.ExitRegion()
	t.InRegion(p.rTransLoop, func() {
		for r := lo; r < hi; r++ {
			for c := uint64(0); c < dim; c++ {
				t.Read(src.Addr(c*dim+r), 16) // element (c,r): owned by owner of row c
				t.Write(dst.Addr(r*dim+c), 16)
			}
		}
	})
}

// fft1D performs the local 1-D FFT butterfly passes over owned rows.
func (p *fft) fft1D(t *exec.Thread, data vmem.Region, lo, hi uint64) {
	dim := uint64(p.dim)
	t.EnterRegion(p.rFFT1D)
	defer t.ExitRegion()
	t.InRegion(p.rFFT1DLoop, func() {
		for r := lo; r < hi; r++ {
			for pass := 0; pass < p.iter; pass++ {
				stride := uint64(1) << uint(pass)
				for c := uint64(0); c < dim; c += 2 * stride {
					a, b := r*dim+c, r*dim+(c+stride)%dim
					t.Read(data.Addr(a), 16)
					t.Read(data.Addr(b), 16)
					t.Work(6) // complex twiddle multiply-add
					t.Write(data.Addr(a), 16)
					t.Write(data.Addr(b), 16)
				}
			}
		}
	})
}
