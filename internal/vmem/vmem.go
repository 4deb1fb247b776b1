// Package vmem provides the simulated shared virtual address space the
// synthetic workloads allocate from. The profiler only ever sees addresses,
// so the space does not store data values; it hands out stable, non-
// overlapping regions so that sharing structure (which threads touch which
// words) is well defined and reproducible.
//
// This substitutes for the real process address space of the paper's natively
// executed SPLASH binaries: communication detection depends only on address
// identity and access interleaving, both of which the simulation preserves.
package vmem

import "fmt"

// Base is the first address handed out; keeping it non-zero makes accidental
// zero-address bugs visible.
const Base uint64 = 0x10_0000

// Region is a named allocation: conceptually one shared array.
type Region struct {
	Name     string
	BaseAddr uint64
	Count    uint64 // number of elements
	ElemSize uint32 // bytes per element
}

// Addr returns the address of element i. It panics if i is out of bounds —
// workloads indexing out of range is a bug in the workload, not input error.
func (r Region) Addr(i uint64) uint64 {
	if i >= r.Count {
		panic(fmt.Sprintf("vmem: index %d out of range for region %q (count %d)", i, r.Name, r.Count))
	}
	return r.BaseAddr + i*uint64(r.ElemSize)
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.BaseAddr + r.Count*uint64(r.ElemSize) }

// SizeBytes returns the region's extent in bytes.
func (r Region) SizeBytes() uint64 { return r.Count * uint64(r.ElemSize) }

// Space is an append-only address-space allocator. Not safe for concurrent
// allocation; workloads allocate during (single-threaded) setup.
type Space struct {
	next    uint64
	regions []Region
	byName  map[string]int
}

// NewSpace returns an empty space starting at Base.
func NewSpace() *Space {
	return &Space{next: Base, byName: map[string]int{}}
}

// Alloc reserves a region of count elements of elemSize bytes, aligned to
// elemSize, under a unique name. It panics on a duplicate name or zero sizes
// (workload construction bugs).
func (s *Space) Alloc(name string, count uint64, elemSize uint32) Region {
	if count == 0 || elemSize == 0 {
		panic(fmt.Sprintf("vmem: zero-sized allocation %q (count=%d elem=%d)", name, count, elemSize))
	}
	if _, dup := s.byName[name]; dup {
		panic(fmt.Sprintf("vmem: duplicate region name %q", name))
	}
	align := uint64(elemSize)
	if rem := s.next % align; rem != 0 {
		s.next += align - rem
	}
	r := Region{Name: name, BaseAddr: s.next, Count: count, ElemSize: elemSize}
	s.next = r.End()
	// Pad between regions so distinct arrays never share a cache-line-sized
	// granule; keeps sharing attribution per-array clean.
	s.next += 64
	s.byName[name] = len(s.regions)
	s.regions = append(s.regions, r)
	return r
}

// FootprintBytes returns the total bytes allocated (excluding padding).
func (s *Space) FootprintBytes() uint64 {
	var total uint64
	for _, r := range s.regions {
		total += r.SizeBytes()
	}
	return total
}
