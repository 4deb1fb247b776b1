package splash

import (
	"commprof/internal/exec"
	"commprof/internal/trace"
	"commprof/internal/vmem"
)

// volrend implements the SPLASH-2 volume renderer. The voxel volume is
// loaded in parallel z-slabs; each thread then ray-casts its tile of the
// image plane, and a ray marches through voxels along its depth axis,
// crossing several adjacent slabs — communication concentrates on slab
// neighbours with decaying reach, a banded diagonal pattern distinct from
// both the stencil (width-1) and all-to-all shapes.
type volrend struct {
	*base
	vox    uint64 // volume side (vox³ voxels), slabs along z
	pixels uint64 // pixels per thread
	march  int    // voxels sampled per ray

	volume, image, flags vmem.Region

	rMain, rLoad, rLoadLoop, rRay, rRayLoop, rBarrier int32
}

func newVolrend(cfg Config) (Program, error) {
	p := &volrend{
		base:   newBase("volrend", cfg),
		vox:    scale3(cfg.Size, uint64(32), 40, 56),
		pixels: scale3(cfg.Size, uint64(64), 96, 160),
		march:  scale3(cfg.Size, 12, 16, 20),
	}
	p.volume = p.space.Alloc("opacity_map", p.vox*p.vox*p.vox, 2)
	p.image = p.space.Alloc("image", p.pixels*uint64(cfg.Threads), 4)
	p.flags = p.space.Alloc("barrier", uint64(cfg.Threads), 8)

	t := p.table
	p.rMain = t.AddFunc("Render_Loop", trace.NoRegion)
	p.rLoad = t.AddFunc("Load_Map", trace.NoRegion)
	p.rLoadLoop = t.AddLoop("Load_Map#slab", p.rLoad)
	p.rRay = t.AddFunc("Ray_Trace", trace.NoRegion)
	p.rRayLoop = t.AddLoop("Ray_Trace#pixels", p.rRay)
	p.rBarrier = t.AddFunc("barrier", trace.NoRegion)
	p.thread = p.body
	return p, nil
}

func (p *volrend) body(t *exec.Thread) {
	t.EnterRegion(p.rMain)
	defer t.ExitRegion()
	nt := p.Threads()
	rng := newXorshift(p.cfg.Seed, t.ID())
	slabArea := p.vox * p.vox
	zLo, zHi := blockRange(p.vox, int(t.ID()), nt)

	// Load the owned z-slab of the volume.
	t.EnterRegion(p.rLoad)
	t.InRegion(p.rLoadLoop, func() {
		writeRange(t, p.volume, zLo*slabArea, (zHi-zLo)*slabArea)
	})
	t.ExitRegion()
	commBarrier(t, p.rBarrier, p.flags)

	// Ray casting: rays anchored near the thread's own slab march through
	// voxels at increasing depth with geometrically decaying reach.
	t.EnterRegion(p.rRay)
	t.InRegion(p.rRayLoop, func() {
		for px := uint64(0); px < p.pixels; px++ {
			z := int64(zLo)
			for m := 0; m < p.march; m++ {
				if rng.intn(3) == 0 {
					z++ // march into the next slab
				}
				if z >= int64(p.vox) {
					break
				}
				off := rng.intn(slabArea)
				t.Read(p.volume.Addr(uint64(z)*slabArea+off), 2)
				t.Work(40) // trilinear interpolation + compositing
			}
			t.Write(p.image.Addr(uint64(t.ID())*p.pixels+px), 4)
		}
	})
	t.ExitRegion()
	commBarrier(t, p.rBarrier, p.flags)
}
