package commprof

import (
	"fmt"

	"commprof/internal/exec"
	"commprof/internal/trace"
)

// AccessKind distinguishes reads and writes in user-supplied traces.
type AccessKind uint8

const (
	// ReadAccess is a load from shared memory.
	ReadAccess AccessKind = iota
	// WriteAccess is a store to shared memory.
	WriteAccess
)

// Access is one memory operation of a user-supplied trace. Supply accesses
// in temporal order; Region is an index into the regions passed to
// ProfileTrace, or -1 for none.
type Access struct {
	Kind   AccessKind
	Addr   uint64
	Size   uint32
	Thread int32
	Region int32
	Time   uint64
}

// Region declares one static code region for trace profiling. Parent is the
// index of the enclosing region in the same slice, or -1 for a root. Loop
// regions are the hotspot granularity. File/Line optionally locate the region
// in real source (the instrumentation shim fills them); reports then label
// the region "name file.go:line".
type Region struct {
	Name   string
	Parent int32
	Loop   bool
	File   string
	Line   int
}

// buildTable converts a public region list into the internal static region
// table shared by every trace-profiling entry point.
func buildTable(regions []Region) (*trace.Table, error) {
	table := trace.NewTable()
	for _, r := range regions {
		var id int32
		if r.Loop {
			id = table.AddLoop(r.Name, r.Parent)
		} else {
			id = table.AddFunc(r.Name, r.Parent)
		}
		table.Regions[id].File = r.File
		table.Regions[id].Line = r.Line
	}
	if err := table.Validate(); err != nil {
		return nil, fmt.Errorf("commprof: invalid region list: %w", err)
	}
	return table, nil
}

// ProfileTrace runs the profiler offline over a recorded access trace.
func ProfileTrace(accesses []Access, regions []Region, threads int, opts Options) (*Report, error) {
	opts.setDefaults()
	if threads <= 0 {
		return nil, fmt.Errorf("commprof: threads must be positive, got %d", threads)
	}
	table, err := buildTable(regions)
	if err != nil {
		return nil, err
	}
	an, err := newAnalysis(opts, threads, table)
	if err != nil {
		return nil, err
	}
	defer an.pe.Close()
	an.wire(nil)
	// The caller's slice is the only O(accesses) state: each access is
	// checked and converted straight into the analysis's quantum ring, never
	// into a second stream.
	an.start(nil, false)
	defer an.endQuanta()
	for i := range accesses {
		a := &accesses[i]
		if a.Thread < 0 || int(a.Thread) >= threads {
			return nil, fmt.Errorf("commprof: access %d has thread %d out of range", i, a.Thread)
		}
		if a.Region != trace.NoRegion && (a.Region < 0 || int(a.Region) >= table.Len()) {
			return nil, fmt.Errorf("commprof: access %d references unknown region %d", i, a.Region)
		}
		k := trace.Read
		if a.Kind == WriteAccess {
			k = trace.Write
		}
		// Field by field, never a whole trace.Access (DESIGN §5, "the copy rule").
		n := len(an.quantum)
		an.quantum = an.quantum[:n+1] // handed on at capacity
		q := &an.quantum[n]
		q.Time, q.Addr, q.Size, q.Thread, q.Region, q.Kind = a.Time, a.Addr, a.Size, a.Thread, a.Region, k
		if n+1 == quantumLen {
			an.handOn()
		}
	}
	return an.finish("trace", uint64(len(accesses)))
}

// Thread is the handle a custom workload body uses inside Run: it mirrors
// the paper's instrumentation points (memory accesses, loop entry/exit,
// synchronization).
type Thread struct {
	t       *exec.Thread
	regions int32 // length of Run's regions slice
}

// ID returns the thread index in [0, threads).
func (t *Thread) ID() int32 { return t.t.ID() }

// Read issues an instrumented load.
func (t *Thread) Read(addr uint64, size uint32) { t.t.Read(addr, size) }

// Write issues an instrumented store.
func (t *Thread) Write(addr uint64, size uint32) { t.t.Write(addr, size) }

// Work simulates units of uninstrumented computation.
func (t *Thread) Work(units int) { t.t.Work(units) }

// Barrier blocks until every thread reaches a barrier.
func (t *Thread) Barrier() { t.t.Barrier() }

// Acquire takes the mutex identified by lock.
func (t *Thread) Acquire(lock int) { t.t.Acquire(lock) }

// Release frees the mutex identified by lock.
func (t *Thread) Release(lock int) { t.t.Release(lock) }

// EnterRegion pushes static region id: an index into Run's regions slice,
// or -1 for none; any other id fails the run.
func (t *Thread) EnterRegion(id int32) { t.t.EnterRegion(t.region(id)) }

// ExitRegion pops the innermost region.
func (t *Thread) ExitRegion() { t.t.ExitRegion() }

// InRegion runs fn inside region id, as EnterRegion takes it.
func (t *Thread) InRegion(id int32, fn func()) { t.t.InRegion(t.region(id), fn) }

// region returns a valid id and panics, failing the run, on any other.
func (t *Thread) region(id int32) int32 {
	if id != trace.NoRegion && (id < 0 || id >= t.regions) {
		panic(fmt.Sprintf("commprof: thread %d enters unknown region %d of %d", t.t.ID(), id, t.regions))
	}
	return id
}

// Run executes a custom workload body once per thread on the simulated
// engine with the profiler attached, and reports its communication patterns.
// regions declares the static region table; region IDs passed to
// Thread.EnterRegion are indexes into it.
func Run(threads int, regions []Region, body func(*Thread), opts Options) (*Report, error) {
	opts.setDefaults()
	if threads <= 0 {
		return nil, fmt.Errorf("commprof: threads must be positive, got %d", threads)
	}
	table, err := buildTable(regions)
	if err != nil {
		return nil, err
	}
	return profileEngine(opts, engineSource{
		name: "custom", threads: threads, table: table,
		run: func(eng *exec.Engine) (exec.Stats, error) {
			return eng.Run(func(et *exec.Thread) { body(&Thread{t: et, regions: int32(table.Len())}) })
		},
	})
}
