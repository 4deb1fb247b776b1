// Package trace defines the instrumentation event model shared by the whole
// profiler: memory-access records carrying the static code-region (function /
// loop) annotation, the region table produced by static analysis, and codecs
// for persisting access streams.
//
// This is the Go equivalent of the paper's instrumentation contract (§IV-C):
// every instrumented memory access reports its access type, memory address,
// function name, variable size, current loop ID and parent loop ID. Loop IDs
// are assigned statically (Listing 1); here the static side is represented by
// a Table of Regions built either by a Go-native workload's constructor or by
// the MiniPar annotation pass.
package trace

import "fmt"

// Kind distinguishes read and write accesses.
type Kind uint8

const (
	// Read is a load from shared memory.
	Read Kind = iota
	// Write is a store to shared memory.
	Write
)

// String returns "R" or "W".
func (k Kind) String() string {
	if k == Write {
		return "W"
	}
	return "R"
}

// NoRegion marks an access outside any annotated region.
const NoRegion int32 = -1

// RegionKind says whether a static region is a function body or a loop.
type RegionKind uint8

const (
	// FuncRegion is a function body.
	FuncRegion RegionKind = iota
	// LoopRegion is a loop annotated with a UID by static analysis.
	LoopRegion
)

func (k RegionKind) String() string {
	if k == LoopRegion {
		return "loop"
	}
	return "func"
}

// Region is one node of the static code-region tree: a function body or a
// loop. Loops carry the UID assigned by the annotation pass; functions are
// the containers that appear as the outer boxes in the paper's Figs. 6 and 7.
type Region struct {
	ID     int32      // UID, dense from 0
	Parent int32      // enclosing region's ID, or NoRegion for roots
	Kind   RegionKind // function body or loop
	Name   string     // function name, or a loop label like "daxpy#1"
	// File/Line locate the region in real source when the table was built by
	// the source instrumenter (internal/instrument): the file base name and
	// the 1-based line of the function or loop keyword. Synthetic workloads
	// (splash, minipar) leave them zero; the trace codec carries them.
	File string
	Line int
}

// Label renders the region for reports: the bare Name for synthetic regions,
// or "name file.go:line" when the region carries a real source position.
func (r Region) Label() string {
	if r.File == "" {
		return r.Name
	}
	return fmt.Sprintf("%s %s:%d", r.Name, r.File, r.Line)
}

// Access is one instrumented memory operation.
type Access struct {
	Time   uint64 // logical timestamp supplying the temporal order Algorithm 1 requires
	Addr   uint64 // simulated virtual address
	Size   uint32 // accessed bytes (variable size)
	Thread int32  // executing thread ID
	Region int32  // innermost static region (loop or function), or NoRegion
	Kind   Kind   // read or write
}

// String renders an access for diagnostics.
func (a Access) String() string {
	return fmt.Sprintf("t=%d T%d %s addr=%#x size=%d region=%d", a.Time, a.Thread, a.Kind, a.Addr, a.Size, a.Region)
}

// Table is the static region table: the output of the loop-annotation pass.
// Region IDs index directly into Regions.
type Table struct {
	Regions []Region
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

// AddFunc appends a function region under parent (NoRegion for top level)
// and returns its ID.
func (t *Table) AddFunc(name string, parent int32) int32 {
	return t.add(Region{Kind: FuncRegion, Name: name, Parent: parent})
}

// AddLoop appends a loop region under parent and returns its UID. This is the
// runtime image of Listing 1's metadata annotation.
func (t *Table) AddLoop(name string, parent int32) int32 {
	return t.add(Region{Kind: LoopRegion, Name: name, Parent: parent})
}

func (t *Table) add(r Region) int32 {
	if r.Parent != NoRegion && (r.Parent < 0 || int(r.Parent) >= len(t.Regions)) {
		panic(fmt.Sprintf("trace: parent region %d does not exist", r.Parent))
	}
	r.ID = int32(len(t.Regions))
	t.Regions = append(t.Regions, r)
	return r.ID
}

// Region returns the region with the given ID.
func (t *Table) Region(id int32) (Region, error) {
	if id < 0 || int(id) >= len(t.Regions) {
		return Region{}, fmt.Errorf("trace: region %d out of range [0,%d)", id, len(t.Regions))
	}
	return t.Regions[id], nil
}

// MustRegion is Region but panics on an invalid ID (programming error).
func (t *Table) MustRegion(id int32) Region {
	r, err := t.Region(id)
	if err != nil {
		panic(err)
	}
	return r
}

// Len returns the number of regions.
func (t *Table) Len() int { return len(t.Regions) }

// Validate checks structural invariants: dense IDs, acyclic parent links.
func (t *Table) Validate() error {
	for i, r := range t.Regions {
		if int(r.ID) != i {
			return fmt.Errorf("trace: region at index %d has ID %d", i, r.ID)
		}
		if r.Parent != NoRegion {
			if r.Parent < 0 || int(r.Parent) >= len(t.Regions) {
				return fmt.Errorf("trace: region %d has invalid parent %d", r.ID, r.Parent)
			}
			if r.Parent >= r.ID {
				return fmt.Errorf("trace: region %d has non-topological parent %d", r.ID, r.Parent)
			}
		}
	}
	return nil
}
