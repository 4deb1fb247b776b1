package splash

import (
	"commprof/internal/exec"
	"commprof/internal/trace"
	"commprof/internal/vmem"
)

// raytrace implements the SPLASH-2 ray tracer. The scene grid is built in
// parallel (each thread voxelizes a slice of the model), then threads pull
// tiles from a shared job queue and cast rays; each ray traverses scene
// cells whose popularity is heavily skewed toward the model's hot region
// (the Zipf-like skew of real scenes), so the supplier load across threads
// is markedly uneven — the Fig. 8b hotspot shape. Work stealing through the
// shared queue head adds a thin contention pattern.
type raytrace struct {
	*base
	sceneN uint64
	tiles  uint64
	raysPT uint64 // rays per tile
	depth  int    // cells read per ray

	scene, frame, queue, flags vmem.Region

	rMain, rBuild, rBuildLoop, rRender, rRenderLoop, rSteal, rStealLoop, rBarrier int32
}

func newRaytrace(cfg Config) (Program, error) {
	p := &raytrace{
		base:   newBase("raytrace", cfg),
		sceneN: scale3(cfg.Size, uint64(2048), 4096, 8192),
		tiles:  uint64(cfg.Threads) * scale3(cfg.Size, uint64(4), 6, 8),
		raysPT: scale3(cfg.Size, uint64(16), 24, 40),
		depth:  scale3(cfg.Size, 6, 8, 8),
	}
	p.scene = p.space.Alloc("gridcells", p.sceneN, 48)
	p.frame = p.space.Alloc("framebuffer", p.tiles*p.raysPT, 4)
	p.queue = p.space.Alloc("workpool", 8, 8)
	p.flags = p.space.Alloc("barrier", uint64(cfg.Threads), 8)

	t := p.table
	p.rMain = t.AddFunc("StartRayTrace", trace.NoRegion)
	p.rBuild = t.AddFunc("BuildHierarchy", trace.NoRegion)
	p.rBuildLoop = t.AddLoop("BuildHierarchy#voxels", p.rBuild)
	p.rRender = t.AddFunc("RayTrace", trace.NoRegion)
	p.rRenderLoop = t.AddLoop("RayTrace#rays", p.rRender)
	p.rSteal = t.AddFunc("GetJobs", trace.NoRegion)
	p.rStealLoop = t.AddLoop("GetJobs#queue", p.rSteal)
	p.rBarrier = t.AddFunc("barrier", trace.NoRegion)
	p.thread = p.body
	return p, nil
}

// skewedCell picks a scene cell with ~70% of probability mass in the first
// quarter of the scene (the hot model region).
func (p *raytrace) skewedCell(rng *xorshift) uint64 {
	if rng.intn(10) < 7 {
		return rng.intn(p.sceneN / 4)
	}
	return rng.intn(p.sceneN)
}

func (p *raytrace) body(t *exec.Thread) {
	t.EnterRegion(p.rMain)
	defer t.ExitRegion()
	nt := p.Threads()
	rng := newXorshift(p.cfg.Seed, t.ID())

	// Parallel scene build: each thread voxelizes its slice.
	sLo, sHi := blockRange(p.sceneN, int(t.ID()), nt)
	t.EnterRegion(p.rBuild)
	t.InRegion(p.rBuildLoop, func() { writeRange(t, p.scene, sLo, sHi-sLo) })
	t.ExitRegion()
	commBarrier(t, p.rBarrier, p.flags)

	// Tile loop with a shared job counter (lock-protected).
	tilesDone := uint64(0)
	myTiles := p.tiles / uint64(nt)
	for tile := uint64(0); tile < myTiles; tile++ {
		// Claim a job: read-modify-write the shared queue head.
		t.EnterRegion(p.rSteal)
		t.InRegion(p.rStealLoop, func() {
			t.Acquire(2)
			t.Read(p.queue.Addr(0), 8)
			t.Write(p.queue.Addr(0), 8)
			t.Release(2)
		})
		t.ExitRegion()

		t.EnterRegion(p.rRender)
		t.InRegion(p.rRenderLoop, func() {
			for ray := uint64(0); ray < p.raysPT; ray++ {
				for d := 0; d < p.depth; d++ {
					t.Read(p.scene.Addr(p.skewedCell(&rng)), 48)
					t.Work(60) // intersection tests and shading
				}
				t.Write(p.frame.Addr((uint64(t.ID())*myTiles+tile)*p.raysPT+ray), 4)
			}
		})
		t.ExitRegion()
		tilesDone++
	}
	commBarrier(t, p.rBarrier, p.flags)
	_ = tilesDone
}
