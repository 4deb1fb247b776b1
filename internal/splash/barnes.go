package splash

import (
	"commprof/internal/exec"
	"commprof/internal/trace"
	"commprof/internal/vmem"
)

// barnes implements the SPLASH-2 Barnes-Hut n-body application. Bodies are
// space-sorted, so consecutive thread IDs own spatially adjacent bodies; the
// force pass (hackgrav) walks the octree reading cells built by other
// threads, with a probability that decays with spatial — and therefore
// thread — distance, plus the shared top-of-tree cells every traversal
// touches. The result is the n-body pattern: a heavy diagonal band with
// global low-volume background.
type barnes struct {
	*base
	nbody uint64
	cells uint64
	reads int // tree cells read per body
	steps int

	bodies, tree, top, flags vmem.Region

	rMain, rMakeTree, rMakeLoop, rHackGrav, rGravLoop, rAdvLoop, rBarrier int32
}

func newBarnes(cfg Config) (Program, error) {
	p := &barnes{
		base:  newBase("barnes", cfg),
		nbody: scale3(cfg.Size, uint64(512), 1024, 4096),
		reads: scale3(cfg.Size, 12, 16, 16),
		steps: scale3(cfg.Size, 2, 2, 2),
	}
	p.cells = p.nbody / 2
	p.bodies = p.space.Alloc("bodytab", p.nbody, 32)
	p.tree = p.space.Alloc("celltab", p.cells, 64)
	p.top = p.space.Alloc("g_root", 16, 64)
	p.flags = p.space.Alloc("barrier", uint64(cfg.Threads), 8)

	t := p.table
	p.rMain = t.AddFunc("SlaveStart", trace.NoRegion)
	p.rMakeTree = t.AddFunc("maketree", trace.NoRegion)
	p.rMakeLoop = t.AddLoop("maketree#loadtree", p.rMakeTree)
	p.rHackGrav = t.AddFunc("hackgrav", trace.NoRegion)
	p.rGravLoop = t.AddLoop("hackgrav#bodies", p.rHackGrav)
	p.rAdvLoop = t.AddLoop("advance#own", p.rMain)
	p.rBarrier = t.AddFunc("barrier", trace.NoRegion)
	p.thread = p.body
	return p, nil
}

func (p *barnes) body(t *exec.Thread) {
	t.EnterRegion(p.rMain)
	defer t.ExitRegion()
	nt := p.Threads()
	bLo, bHi := blockRange(p.nbody, int(t.ID()), nt)
	cLo, cHi := blockRange(p.cells, int(t.ID()), nt)
	rng := newXorshift(p.cfg.Seed, t.ID())

	writeRange(t, p.bodies, bLo, bHi-bLo)
	commBarrier(t, p.rBarrier, p.flags)

	for step := 0; step < p.steps; step++ {
		// maketree: each thread inserts its bodies, writing its share of the
		// cell pool; the top of the tree is contended and lock-protected.
		t.EnterRegion(p.rMakeTree)
		t.InRegion(p.rMakeLoop, func() {
			for c := cLo; c < cHi; c++ {
				t.Write(p.tree.Addr(c), 64)
			}
			t.Acquire(1)
			for i := uint64(0); i < p.top.Count; i++ {
				t.Read(p.top.Addr(i), 64)
				t.Write(p.top.Addr(i), 64)
			}
			t.Release(1)
		})
		t.ExitRegion()
		commBarrier(t, p.rBarrier, p.flags)

		// hackgrav: tree walk per owned body.
		t.EnterRegion(p.rHackGrav)
		t.InRegion(p.rGravLoop, func() {
			for b := bLo; b < bHi; b++ {
				t.Read(p.bodies.Addr(b), 32)
				// Every walk passes through the shared root cells.
				t.Read(p.top.Addr(rng.intn(p.top.Count)), 64)
				for r := 0; r < p.reads; r++ {
					// Pick a cell with owner-distance decaying geometrically:
					// mostly own/adjacent threads, occasionally far ones.
					dist := int64(0)
					for rng.intn(2) == 0 && dist < int64(nt) {
						dist++
					}
					if rng.intn(2) == 0 {
						dist = -dist
					}
					owner := (int64(t.ID()) + dist + int64(nt)) % int64(nt)
					oLo, oHi := blockRange(p.cells, int(owner), nt)
					if oHi > oLo {
						t.Read(p.tree.Addr(oLo+rng.intn(oHi-oLo)), 64)
					}
					t.Work(25) // multipole acceptance + force kernel
				}
				t.Write(p.bodies.Addr(b), 32)
			}
		})
		t.ExitRegion()
		commBarrier(t, p.rBarrier, p.flags)

		// advance: local integration of owned bodies.
		t.InRegion(p.rAdvLoop, func() {
			for b := bLo; b < bHi; b++ {
				t.Read(p.bodies.Addr(b), 32)
				t.Work(3)
				t.Write(p.bodies.Addr(b), 32)
			}
		})
		commBarrier(t, p.rBarrier, p.flags)
	}
}
