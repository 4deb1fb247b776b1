package main

import "commprof"

// Synthetic access streams for the two ProfileTrace workloads. Both are pure
// functions of (seed, n), use 32 threads and 8-byte words, and attribute every
// access to one loop region so the report's tree has something to sum.

const (
	synthThreads = 32
	wordBytes    = 8

	localBlockWords = 64 // private words per thread
	localBurst      = 16 // consecutive accesses by one thread
	localHaloWord   = 3  // the word of each block its neighbour reads
	localHaloOneIn  = 64 // share of accesses that read the neighbour's halo word
	localBase       = 0x1000_0000

	spreadHotWords  = 1 << 16
	spreadColdWords = 1 << 21
	spreadWritePct  = 30
	spreadHotBase   = 0x2000_0000
	spreadColdBase  = 0x4000_0000
)

var synthRegions = []commprof.Region{
	{Name: "main", Parent: -1},
	{Name: "sweep", Parent: 0, Loop: true},
}

// rng is xorshift64*: a few instructions per draw, and the same sequence on
// every Go release, which math/rand does not promise.
type rng uint64

func newRNG(seed int64) *rng {
	r := rng(uint64(seed)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03)
	if r == 0 {
		r = 1
	}
	return &r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545F4914F6CDD1D
}

// intn returns a draw in [0,n) from the generator's high bits.
func (r *rng) intn(n uint64) uint64 { return (r.next() >> 11) % n }

// synthLocal: each burst picks a thread, which then sweeps its private block.
// Every fourth word of a block is only ever written, the rest only read (3
// reads : 1 write), so the redundancy cache's same-thread rules absorb the
// sweep; one access in 64 instead reads the next thread's halo word, which
// that thread writes — the only communication, and (with the owner's next
// write) the only accesses that reach the signature.
func synthLocal(seed int64, n int) []commprof.Access {
	r := newRNG(seed)
	out := make([]commprof.Access, n)
	var pos [synthThreads]uint64
	var t uint64
	for i := range out {
		if i%localBurst == 0 {
			t = r.intn(synthThreads)
		}
		a := commprof.Access{Size: wordBytes, Thread: int32(t), Region: 1, Time: uint64(i + 1)}
		if r.intn(localHaloOneIn) == 0 {
			neighbour := (t + 1) % synthThreads
			a.Addr = localBase + (neighbour*localBlockWords+localHaloWord)*wordBytes
		} else {
			w := pos[t]
			pos[t] = (w + 1) % localBlockWords
			a.Addr = localBase + (t*localBlockWords+w)*wordBytes
			if w%4 == localHaloWord {
				a.Kind = commprof.WriteAccess
			}
		}
		out[i] = a
	}
	return out
}

// synthSpread: uniform random thread, 30 % writes, half the accesses to a hot
// set every thread shares and half to a cold set twice the default signature's
// slot count, so nearly every access is a cache miss that lands on a fresh or
// colliding signature slot.
func synthSpread(seed int64, n int) []commprof.Access {
	r := newRNG(seed)
	out := make([]commprof.Access, n)
	for i := range out {
		a := commprof.Access{Size: wordBytes, Thread: int32(r.intn(synthThreads)), Region: 1, Time: uint64(i + 1)}
		if r.intn(100) < spreadWritePct {
			a.Kind = commprof.WriteAccess
		}
		if r.intn(2) == 0 {
			a.Addr = spreadHotBase + r.intn(spreadHotWords)*wordBytes
		} else {
			a.Addr = spreadColdBase + r.intn(spreadColdWords)*wordBytes
		}
		out[i] = a
	}
	return out
}

// streamHash is FNV-1a over every field the analysis reads.
func streamHash(accs []commprof.Access) uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	for _, a := range accs {
		for _, v := range [...]uint64{a.Addr, uint64(a.Thread)<<1 | uint64(a.Kind), uint64(a.Size), a.Time} {
			h = (h ^ v) * prime
		}
	}
	return h
}
