package splash

import (
	"commprof/internal/exec"
	"commprof/internal/trace"
	"commprof/internal/vmem"
)

// radix implements the SPLASH-2 integer radix sort kernel. Per digit pass:
// each thread histograms its contiguous key block into a private bin array;
// the per-thread histograms are combined by a pairwise reduction (odd
// threads supply, even threads consume — exactly half the threads
// communicate, which is the uneven hotspot the paper's Fig. 8a shows for
// radix), thread 0 finishes the prefix sum and broadcasts it; finally the
// permutation phase scatters every key to its rank position, which lands in
// other threads' blocks and makes the next pass's histogram read remotely —
// an all-to-all that shifts phase every pass (dynamic behaviour, §V-A4).
//
// radix is pure data movement: almost no Work() per access, so it sits at
// the high end of the instrumentation slowdown range (Fig. 4).
type radix struct {
	*base
	keysN  uint64
	bins   uint64
	passes int

	keys, keys2, hist, global, flags vmem.Region

	rMain, rInitLoop, rHist, rHistLoop, rPrefix, rPrefixLoop, rGatherLoop, rBcastLoop, rPermute, rPermuteLoop, rBarrier int32
}

func newRadix(cfg Config) (Program, error) {
	p := &radix{
		base:   newBase("radix", cfg),
		keysN:  scale3(cfg.Size, uint64(8192), 32768, 131072),
		bins:   64,
		passes: scale3(cfg.Size, 2, 2, 3),
	}
	p.keys = p.space.Alloc("keys", p.keysN, 4)
	p.keys2 = p.space.Alloc("keys2", p.keysN, 4)
	p.hist = p.space.Alloc("hist", uint64(cfg.Threads)*p.bins, 4)
	p.global = p.space.Alloc("globalHist", p.bins, 4)
	p.flags = p.space.Alloc("barrier", uint64(cfg.Threads), 8)

	t := p.table
	p.rMain = t.AddFunc("slave_sort", trace.NoRegion)
	p.rInitLoop = t.AddLoop("slave_sort#init_keys", p.rMain)
	p.rHist = t.AddFunc("rank_histogram", trace.NoRegion)
	p.rHistLoop = t.AddLoop("rank_histogram#keys", p.rHist)
	p.rPrefix = t.AddFunc("rank_prefix", trace.NoRegion)
	p.rPrefixLoop = t.AddLoop("rank_prefix#pairwise", p.rPrefix)
	p.rGatherLoop = t.AddLoop("rank_prefix#gather", p.rPrefix)
	p.rBcastLoop = t.AddLoop("rank_prefix#bcast", p.rPrefix)
	p.rPermute = t.AddFunc("permute", trace.NoRegion)
	p.rPermuteLoop = t.AddLoop("permute#scatter", p.rPermute)
	p.rBarrier = t.AddFunc("barrier", trace.NoRegion)
	p.thread = p.body
	return p, nil
}

func (p *radix) body(t *exec.Thread) {
	t.EnterRegion(p.rMain)
	defer t.ExitRegion()
	nt := p.Threads()
	lo, hi := blockRange(p.keysN, int(t.ID()), nt)
	rng := newXorshift(p.cfg.Seed, t.ID())

	// Generate owned keys.
	t.InRegion(p.rInitLoop, func() { writeRange(t, p.keys, lo, hi-lo) })
	commBarrier(t, p.rBarrier, p.flags)

	src, dst := p.keys, p.keys2
	for pass := 0; pass < p.passes; pass++ {
		// Histogram owned block into private bins.
		t.EnterRegion(p.rHist)
		t.InRegion(p.rHistLoop, func() {
			myBins := uint64(t.ID()) * p.bins
			for i := lo; i < hi; i++ {
				t.Read(src.Addr(i), 4)
				b := rng.intn(p.bins)
				t.Read(p.hist.Addr(myBins+b), 4)
				t.Write(p.hist.Addr(myBins+b), 4)
			}
		})
		t.ExitRegion()
		commBarrier(t, p.rBarrier, p.flags)

		// Pairwise reduction: even threads pull their odd partner's bins.
		// Exactly half the threads supply data here (Fig. 8a).
		t.EnterRegion(p.rPrefix)
		t.InRegion(p.rPrefixLoop, func() {
			if t.ID()%2 == 0 && int(t.ID())+1 < nt {
				partner := uint64(t.ID()+1) * p.bins
				mine := uint64(t.ID()) * p.bins
				for b := uint64(0); b < p.bins; b++ {
					t.Read(p.hist.Addr(partner+b), 4)
					t.Read(p.hist.Addr(mine+b), 4)
					t.Write(p.hist.Addr(mine+b), 4)
				}
			}
		})
		// Thread 0 gathers the even partials and builds the global prefix.
		t.InRegion(p.rGatherLoop, func() {
			if t.ID() == 0 {
				for src := 2; src < nt; src += 2 {
					for b := uint64(0); b < p.bins; b++ {
						t.Read(p.hist.Addr(uint64(src)*p.bins+b), 4)
					}
				}
				writeRange(t, p.global, 0, p.bins)
			}
		})
		t.ExitRegion()
		commBarrier(t, p.rBarrier, p.flags)

		// Everyone reads the global prefix sums (broadcast from thread 0).
		t.EnterRegion(p.rPrefix)
		t.InRegion(p.rBcastLoop, func() { readRange(t, p.global, 0, p.bins) })
		t.ExitRegion()

		// Permute: scatter owned keys to their rank positions, which are
		// spread across all threads' blocks.
		t.EnterRegion(p.rPermute)
		t.InRegion(p.rPermuteLoop, func() {
			for i := lo; i < hi; i++ {
				t.Read(src.Addr(i), 4)
				t.Write(dst.Addr(rng.intn(p.keysN)), 4)
			}
		})
		t.ExitRegion()
		commBarrier(t, p.rBarrier, p.flags)
		src, dst = dst, src
	}
}
