package splash

import (
	"commprof/internal/exec"
	"commprof/internal/trace"
	"commprof/internal/vmem"
)

// radiosity implements the SPLASH-2 hierarchical radiosity application:
// iterative energy transfer between scene patches through a distributed task
// queue. Every interaction task reads a visibility sample of *uniformly*
// chosen other patches, so supplier volume spreads evenly over all threads —
// the evenly balanced hotspot the paper highlights in Fig. 8c.
type radiosity struct {
	*base
	patches uint64
	tasks   uint64 // tasks per thread per iteration
	vis     int    // patches sampled per task
	iters   int

	patch, flags vmem.Region

	rMain, rRefine, rRefineLoop, rVisLoop, rGather, rGatherLoop, rBarrier int32
}

func newRadiosity(cfg Config) (Program, error) {
	p := &radiosity{
		base:    newBase("radiosity", cfg),
		patches: scale3(cfg.Size, uint64(1024), 2048, 4096),
		tasks:   scale3(cfg.Size, uint64(24), 32, 48),
		vis:     scale3(cfg.Size, 10, 12, 16),
		iters:   2,
	}
	p.patch = p.space.Alloc("Patch", p.patches, 64)
	p.flags = p.space.Alloc("barrier", uint64(cfg.Threads), 8)

	t := p.table
	p.rMain = t.AddFunc("radiosity", trace.NoRegion)
	p.rRefine = t.AddFunc("process_tasks", trace.NoRegion)
	p.rRefineLoop = t.AddLoop("process_tasks#interactions", p.rRefine)
	p.rVisLoop = t.AddLoop("visibility#samples", p.rRefine)
	p.rGather = t.AddFunc("radiosity_converged", trace.NoRegion)
	p.rGatherLoop = t.AddLoop("radiosity_converged#sum", p.rGather)
	p.rBarrier = t.AddFunc("barrier", trace.NoRegion)
	p.thread = p.body
	return p, nil
}

func (p *radiosity) body(t *exec.Thread) {
	t.EnterRegion(p.rMain)
	defer t.ExitRegion()
	nt := p.Threads()
	rng := newXorshift(p.cfg.Seed, t.ID())
	lo, hi := blockRange(p.patches, int(t.ID()), nt)

	// Each thread initializes its patch block.
	writeRange(t, p.patch, lo, hi-lo)
	commBarrier(t, p.rBarrier, p.flags)

	for it := 0; it < p.iters; it++ {
		t.EnterRegion(p.rRefine)
		t.InRegion(p.rRefineLoop, func() {
			for task := uint64(0); task < p.tasks; task++ {
				// Pick one owned patch to refine.
				own := lo + rng.intn(hi-lo)
				t.Read(p.patch.Addr(own), 64)
				// Visibility sampling against uniformly random patches.
				t.InRegion(p.rVisLoop, func() {
					for v := 0; v < p.vis; v++ {
						t.Read(p.patch.Addr(rng.intn(p.patches)), 64)
						t.Work(20) // form-factor computation
					}
				})
				t.Write(p.patch.Addr(own), 64)
			}
		})
		t.ExitRegion()
		commBarrier(t, p.rBarrier, p.flags)

		// Convergence check: each thread re-reads a sample of all patches.
		t.EnterRegion(p.rGather)
		t.InRegion(p.rGatherLoop, func() {
			for s := 0; s < 16; s++ {
				t.Read(p.patch.Addr(rng.intn(p.patches)), 64)
			}
		})
		t.ExitRegion()
		commBarrier(t, p.rBarrier, p.flags)
	}
}
