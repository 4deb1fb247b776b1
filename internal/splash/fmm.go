package splash

import (
	"commprof/internal/exec"
	"commprof/internal/trace"
	"commprof/internal/vmem"
)

// fmm implements the SPLASH-2 adaptive fast multipole method. Like barnes it
// is an n-body code, but its communication is more structured: an upward
// pass combines children multipoles into parents (local within a thread's
// subtree), the interaction phase reads sibling boxes on the same level —
// neighbouring thread IDs — and the downward pass reads parent boxes owned
// by tid/2-style ancestors, adding hierarchical power-of-two jumps to the
// nearest-neighbour band.
type fmm struct {
	*base
	boxes  uint64 // boxes per thread per level
	levels int
	steps  int

	multipole, local, parts, flags vmem.Region

	rMain, rUpward, rUpLoop, rInter, rInterLoop, rDown, rDownLoop, rBarrier int32
}

func newFMM(cfg Config) (Program, error) {
	p := &fmm{
		base:   newBase("fmm", cfg),
		boxes:  scale3(cfg.Size, uint64(16), 24, 48),
		levels: scale3(cfg.Size, 3, 3, 4),
		steps:  2,
	}
	n := uint64(cfg.Threads) * p.boxes * uint64(p.levels)
	p.multipole = p.space.Alloc("mp_expansion", n, 64)
	p.local = p.space.Alloc("local_expansion", n, 64)
	p.parts = p.space.Alloc("particles", uint64(cfg.Threads)*p.boxes*4, 32)
	p.flags = p.space.Alloc("barrier", uint64(cfg.Threads), 8)

	t := p.table
	p.rMain = t.AddFunc("ParallelExecute", trace.NoRegion)
	p.rUpward = t.AddFunc("UpwardPass", trace.NoRegion)
	p.rUpLoop = t.AddLoop("UpwardPass#boxes", p.rUpward)
	p.rInter = t.AddFunc("ComputeInteractions", trace.NoRegion)
	p.rInterLoop = t.AddLoop("ComputeInteractions#lists", p.rInter)
	p.rDown = t.AddFunc("DownwardPass", trace.NoRegion)
	p.rDownLoop = t.AddLoop("DownwardPass#boxes", p.rDown)
	p.rBarrier = t.AddFunc("barrier", trace.NoRegion)
	p.thread = p.body
	return p, nil
}

// boxIdx returns the element index of box b of thread tid at a level.
func (p *fmm) boxIdx(level int, tid int32, b uint64) uint64 {
	return (uint64(level)*uint64(p.Threads())+uint64(tid))*p.boxes + b
}

func (p *fmm) body(t *exec.Thread) {
	t.EnterRegion(p.rMain)
	defer t.ExitRegion()
	nt := int32(p.Threads())
	rng := newXorshift(p.cfg.Seed, t.ID())

	// Initialize particles and leaf multipoles.
	pLo, pHi := blockRange(p.parts.Count, int(t.ID()), int(nt))
	writeRange(t, p.parts, pLo, pHi-pLo)
	commBarrier(t, p.rBarrier, p.flags)

	for step := 0; step < p.steps; step++ {
		// Upward pass: build multipole expansions bottom-up (own subtree).
		t.EnterRegion(p.rUpward)
		t.InRegion(p.rUpLoop, func() {
			for lvl := 0; lvl < p.levels; lvl++ {
				for b := uint64(0); b < p.boxes; b++ {
					if lvl > 0 {
						t.Read(p.multipole.Addr(p.boxIdx(lvl-1, t.ID(), b)), 64)
						t.Read(p.multipole.Addr(p.boxIdx(lvl-1, t.ID(), (b+1)%p.boxes)), 64)
					}
					t.Work(5)
					t.Write(p.multipole.Addr(p.boxIdx(lvl, t.ID(), b)), 64)
				}
			}
		})
		t.ExitRegion()
		commBarrier(t, p.rBarrier, p.flags)

		// Interaction lists: read sibling boxes of neighbouring threads at
		// each level, plus the ancestor chain (tid>>k) boxes.
		t.EnterRegion(p.rInter)
		t.InRegion(p.rInterLoop, func() {
			for lvl := 0; lvl < p.levels; lvl++ {
				for b := uint64(0); b < p.boxes; b++ {
					for _, d := range []int32{-2, -1, 1, 2} {
						nb := (t.ID() + d + nt) % nt
						t.Read(p.multipole.Addr(p.boxIdx(lvl, nb, b)), 64)
						t.Work(15)
					}
					anc := t.ID() >> uint(lvl+1)
					t.Read(p.multipole.Addr(p.boxIdx(lvl, anc, rng.intn(p.boxes))), 64)
					t.Write(p.local.Addr(p.boxIdx(lvl, t.ID(), b)), 64)
				}
			}
		})
		t.ExitRegion()
		commBarrier(t, p.rBarrier, p.flags)

		// Downward pass: propagate local expansions to particles.
		t.EnterRegion(p.rDown)
		t.InRegion(p.rDownLoop, func() {
			for lvl := p.levels - 1; lvl > 0; lvl-- {
				for b := uint64(0); b < p.boxes; b++ {
					t.Read(p.local.Addr(p.boxIdx(lvl, t.ID(), b)), 64)
					t.Work(4)
					t.Write(p.local.Addr(p.boxIdx(lvl-1, t.ID(), b)), 64)
				}
			}
			for i := pLo; i < pHi; i++ {
				t.Read(p.parts.Addr(i), 32)
				t.Work(3)
				t.Write(p.parts.Addr(i), 32)
			}
		})
		t.ExitRegion()
		commBarrier(t, p.rBarrier, p.flags)
	}
}
