package sig

import (
	"sync"
)

// Perfect is a collision-free signature: it records exact per-address state
// in a hash map. The paper implements the same thing ("a perfect signature
// memory without any collision") as the ground truth when measuring the
// false-positive rate of the bounded signatures (§V-A3). Its memory grows
// with the number of distinct addresses touched — exactly the unbounded
// behaviour the signature memory exists to avoid. It keeps a lock although
// its caller is single: the accuracy monitor's shadow is a Perfect, and
// Monitor.Stats reads Entries while a run is in flight.
type Perfect struct {
	mu      sync.Mutex
	threads int
	entries map[uint64]*perfectEntry
}

type perfectEntry struct {
	writer  int32 // last writer +1; 0 = never written
	readers []uint64
}

// NewPerfect builds a collision-free backend for the given thread count.
func NewPerfect(threads int) *Perfect {
	if threads <= 0 {
		panic("sig: NewPerfect needs a positive thread count")
	}
	return &Perfect{threads: threads, entries: map[uint64]*perfectEntry{}}
}

func (p *Perfect) entry(addr uint64) *perfectEntry {
	e, ok := p.entries[addr]
	if !ok {
		e = &perfectEntry{readers: make([]uint64, (p.threads+63)/64)}
		p.entries[addr] = e
	}
	return e
}

// ObserveRead implements Backend.
func (p *Perfect) ObserveRead(addr uint64, tid int32) (int32, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entry(addr)
	word, bit := tid/64, uint(tid%64)
	first := e.readers[word]&(1<<bit) == 0
	e.readers[word] |= 1 << bit
	return e.writer - 1, first
}

// ObserveWrite implements Backend.
func (p *Perfect) ObserveWrite(addr uint64, tid int32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entry(addr)
	e.writer = tid + 1
	for i := range e.readers {
		e.readers[i] = 0
	}
}

// FootprintBytes implements Backend: map entries dominate; each entry holds a
// 4-byte writer plus the reader bitmap plus ~48 bytes of map/pointer
// bookkeeping overhead.
func (p *Perfect) FootprintBytes() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	perEntry := uint64(4 + 8*((p.threads+63)/64) + 48)
	return uint64(len(p.entries)) * perEntry
}

// Entries reports the number of distinct addresses tracked.
func (p *Perfect) Entries() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}
