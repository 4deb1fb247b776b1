// Package baselines implements the comparison profilers of the paper's
// evaluation: shadow-memory tools (Memcheck, Helgrind, Helgrind+ — Fig. 5),
// the IPM event logger, an SD3-style stride-compressing dependence profiler,
// and a naive pairwise checker. Each consumes the same instrumented access
// stream as the DiscoPoP detector, so memory-consumption and throughput
// comparisons are apples-to-apples on identical workloads.
//
// The implementations are honest miniatures: shadow tools really allocate
// shadow pages on demand (memory grows with the program's footprint), IPM
// really buffers a 128-bit record per event (memory grows with event count),
// and SD3 really runs a stride-detection FSM (memory grows with the number
// of distinct access patterns).
package baselines

import (
	"fmt"

	"commprof/internal/trace"
)

// Result summarises one profiler's resource consumption over a run.
type Result struct {
	Name        string
	MemoryBytes uint64 // peak analysis-memory footprint
	OutputBytes uint64 // bytes of log/trace the tool would write
	Events      uint64 // accesses processed
}

// Profiler is the common interface all comparison tools implement.
type Profiler interface {
	// ProcessAccess consumes one instrumented access.
	ProcessAccess(a trace.Access)
	// Result reports resource consumption so far.
	Result() Result
}

// pageSize is the shadow-memory translation granule.
const pageSize = 4096

// ShadowMemory models the Valgrind family: every program byte has shadow
// state, allocated lazily in page-sized chunks on first touch. shadowScale is
// the shadow-bytes-per-program-byte ratio of the tool:
//
//	Memcheck:  ~1.4 (validity+addressability bits plus origin tracking)
//	Helgrind:  4.0  (32-bit shadow value per program byte pair, §II)
//	Helgrind+: 8.0  (64-bit shadow values)
//
// baseOverhead is the fixed tool overhead (translation tables, JIT caches).
type ShadowMemory struct {
	name         string
	shadowScale  float64
	baseOverhead uint64
	pages        map[uint64]struct{}
	events       uint64
}

// NewMemcheck builds a Memcheck-like shadow profiler.
func NewMemcheck() *ShadowMemory {
	return &ShadowMemory{name: "memcheck", shadowScale: 1.4, baseOverhead: 48 << 20, pages: map[uint64]struct{}{}}
}

// NewHelgrind builds a Helgrind-like (32-bit shadow word) profiler.
func NewHelgrind() *ShadowMemory {
	return &ShadowMemory{name: "helgrind", shadowScale: 4, baseOverhead: 64 << 20, pages: map[uint64]struct{}{}}
}

// NewHelgrindPlus builds a Helgrind+-like (64-bit shadow word) profiler.
func NewHelgrindPlus() *ShadowMemory {
	return &ShadowMemory{name: "helgrind+", shadowScale: 8, baseOverhead: 64 << 20, pages: map[uint64]struct{}{}}
}

// ProcessAccess implements Profiler: touch the shadow page(s) of the access.
func (s *ShadowMemory) ProcessAccess(a trace.Access) {
	s.events++
	first := a.Addr / pageSize
	last := (a.Addr + uint64(a.Size) - 1) / pageSize
	for p := first; p <= last; p++ {
		s.pages[p] = struct{}{}
	}
}

// Result implements Profiler.
func (s *ShadowMemory) Result() Result {
	shadow := float64(len(s.pages)*pageSize) * s.shadowScale
	return Result{
		Name:        s.name,
		MemoryBytes: s.baseOverhead + uint64(shadow),
		Events:      s.events,
	}
}

// IPM models the Integrated Performance Monitoring library: it records a
// 128-bit signature per call/event into a log that is kept in memory until
// flushed (§II: "high memory overhead since it uses 128-bit signature size
// for each MPI call"). Only inter-thread-visible events (reads) are logged;
// writes update the internal call table.
type IPM struct {
	events  uint64
	logged  uint64
	callTab map[uint64]uint32 // per-address call-site table
}

// NewIPM builds the IPM-like logger.
func NewIPM() *IPM { return &IPM{callTab: map[uint64]uint32{}} }

// recordBytes is IPM's 128-bit per-event record.
const recordBytes = 16

// ProcessAccess implements Profiler.
func (p *IPM) ProcessAccess(a trace.Access) {
	p.events++
	p.callTab[a.Addr/64]++
	p.logged += recordBytes
}

// Result implements Profiler: the in-memory log dominates; the call table
// adds entry overhead.
func (p *IPM) Result() Result {
	return Result{
		Name:        "ipm",
		MemoryBytes: p.logged + uint64(len(p.callTab))*24,
		OutputBytes: p.logged,
		Events:      p.events,
	}
}

// SD3 models Kim et al.'s scalable data-dependence profiler: strided access
// sequences are compressed by a finite state machine into (start, stride,
// count) triples, so regular loops cost O(1) memory per access pattern while
// irregular accesses fall back to point records.
type SD3 struct {
	streams map[sd3Key]*sd3FSM
	points  uint64 // uncompressed point records
	closed  uint64 // finalized stride triples
	events  uint64
}

type sd3Key struct {
	thread int32
	region int32
	kind   trace.Kind
}

type sd3FSM struct {
	state    int // 0=empty, 1=one addr, 2=stride locked
	lastAddr uint64
	stride   int64
	count    uint64
}

// NewSD3 builds the SD3-like profiler.
func NewSD3() *SD3 { return &SD3{streams: map[sd3Key]*sd3FSM{}} }

// ProcessAccess implements Profiler: advance the per-(thread,region,kind)
// stride FSM.
func (p *SD3) ProcessAccess(a trace.Access) {
	p.events++
	k := sd3Key{a.Thread, a.Region, a.Kind}
	f, ok := p.streams[k]
	if !ok {
		f = &sd3FSM{}
		p.streams[k] = f
	}
	switch f.state {
	case 0:
		f.state, f.lastAddr, f.count = 1, a.Addr, 1
	case 1:
		f.stride = int64(a.Addr) - int64(f.lastAddr)
		f.state, f.lastAddr, f.count = 2, a.Addr, 2
	case 2:
		if int64(a.Addr)-int64(f.lastAddr) == f.stride {
			f.lastAddr = a.Addr
			f.count++
			return
		}
		// Stride broken: close the triple (or a point if it never ran).
		if f.count >= 3 {
			p.closed++
		} else {
			p.points += f.count
		}
		f.state, f.lastAddr, f.count, f.stride = 1, a.Addr, 1, 0
	}
}

// Result implements Profiler: 24 bytes per closed stride triple, 16 per
// point record, plus live FSM state.
func (p *SD3) Result() Result {
	return Result{
		Name:        "sd3",
		MemoryBytes: p.closed*24 + p.points*16 + uint64(len(p.streams))*48,
		Events:      p.events,
	}
}

// Pairwise is the strawman the paper dismisses in §IV-D2: it stores the full
// access history per address and checks dependencies pairwise. Memory is
// O(accesses) and per-access cost O(history).
type Pairwise struct {
	history    map[uint64][]pairRec
	events     uint64
	deps       uint64
	capPerAddr int
}

type pairRec struct {
	thread int32
	kind   trace.Kind
}

// NewPairwise builds the pairwise checker; history per address is capped to
// keep the strawman runnable on large streams.
func NewPairwise(capPerAddr int) *Pairwise {
	if capPerAddr <= 0 {
		capPerAddr = 1 << 20
	}
	return &Pairwise{history: map[uint64][]pairRec{}, capPerAddr: capPerAddr}
}

// ProcessAccess implements Profiler.
func (p *Pairwise) ProcessAccess(a trace.Access) {
	p.events++
	h := p.history[a.Addr]
	if a.Kind == trace.Read {
		// Scan backwards for the latest write by another thread.
		for i := len(h) - 1; i >= 0; i-- {
			if h[i].kind == trace.Write {
				if h[i].thread != a.Thread {
					p.deps++
				}
				break
			}
		}
	}
	if len(h) < p.capPerAddr {
		p.history[a.Addr] = append(h, pairRec{a.Thread, a.Kind})
	}
}

// Result implements Profiler.
func (p *Pairwise) Result() Result {
	var recs uint64
	for _, h := range p.history {
		recs += uint64(len(h))
	}
	return Result{
		Name:        "pairwise",
		MemoryBytes: recs*8 + uint64(len(p.history))*48,
		Events:      p.events,
	}
}

// Verify interface compliance.
var (
	_ Profiler = (*ShadowMemory)(nil)
	_ Profiler = (*IPM)(nil)
	_ Profiler = (*SD3)(nil)
	_ Profiler = (*Pairwise)(nil)
)

// ErrUnknown is returned by NewByName for unregistered profiler names.
var ErrUnknown = fmt.Errorf("baselines: unknown profiler")

// NewByName constructs a baseline profiler by its report name.
func NewByName(name string) (Profiler, error) {
	switch name {
	case "memcheck":
		return NewMemcheck(), nil
	case "helgrind":
		return NewHelgrind(), nil
	case "helgrind+":
		return NewHelgrindPlus(), nil
	case "ipm":
		return NewIPM(), nil
	case "sd3":
		return NewSD3(), nil
	case "pairwise":
		return NewPairwise(0), nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
}
