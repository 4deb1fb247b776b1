// Package probe is the runtime shim linked into source-instrumented Go
// programs (see internal/instrument and cmd/commtrace). The rewriter injects
// three kinds of calls into a target package:
//
//   - Register, from a generated init function, declaring the static region
//     table (functions and loops with their file:line positions);
//   - G, at the top of each instrumented function body, resolving the
//     calling goroutine's probe handle (assigning a compact goroutine ID on
//     first use);
//   - TG.R / TG.W, before each instrumented statement, recording one shared
//     memory access as (kind, address, size, goroutine, static region).
//
// Records carry a logical timestamp from one global atomic clock, giving the
// total order Algorithm 1 requires, and batch per goroutine so the hot path
// is an uncontended mutex and a slice append. Shutdown — injected as a defer
// in main.main — flushes every goroutine's batch, sorts by the clock, and
// either writes a trace file for offline Replay (COMMPROF_TRACE=path,
// record mode: compact v3 blocks, the one format recorded; the header's
// access and goroutine counts are patched on close, since neither is known up
// front) or feeds the run straight into the sharded analysis pipeline via
// ProfileTraceParallel and prints the standard report (live mode, the
// default). Accesses issued by goroutines that outlive main are dropped, not
// recorded.
package probe

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"commprof"
	"commprof/internal/trace"
)

// batchSize is each goroutine's staging buffer in records; a full buffer
// spills into the global collector under one lock.
const batchSize = 8192

var (
	mu        sync.Mutex
	table     = trace.NewTable()
	handles   sync.Map // goid (uint64) → *TG
	all       []*TG
	collected []trace.Access
	clock     atomic.Uint64
	closed    atomic.Bool
	shutdown  sync.Once
)

// Region declares one static region to Register; a mirror of the public
// commprof.Region so instrumented programs need only this package's API.
type Region struct {
	Name   string
	Parent int32 // index of the enclosing region, or -1 for roots
	Loop   bool
	File   string
	Line   int
}

// Register installs the instrumented package's static region table. The
// rewriter emits exactly one Register call in a generated init function, so
// it runs before main and before any probe.
func Register(regions []Region) {
	mu.Lock()
	defer mu.Unlock()
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
}

// TG is one goroutine's probe handle: its compact thread ID and staging
// batch. The owning goroutine is the only appender; the mutex exists to
// serialize against Shutdown's final flush from the main goroutine.
type TG struct {
	id    int32
	mu    sync.Mutex
	batch []trace.Access
}

// G returns the calling goroutine's handle, assigning the next compact
// goroutine ID on first use. The rewriter injects one G call per instrumented
// function body, so the runtime.Stack goid parse is paid per call, not per
// memory access.
func G() *TG {
	id := goid()
	if h, ok := handles.Load(id); ok {
		return h.(*TG)
	}
	mu.Lock()
	defer mu.Unlock()
	if h, ok := handles.Load(id); ok {
		return h.(*TG)
	}
	g := &TG{id: int32(len(all)), batch: make([]trace.Access, 0, batchSize)}
	all = append(all, g)
	handles.Store(id, g)
	return g
}

// goid parses the current goroutine's runtime ID from the runtime.Stack
// header ("goroutine N [running]:"). There is no public accessor; this is
// the standard portable fallback.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// R records a read of size bytes at p inside static region.
func (g *TG) R(p unsafe.Pointer, size uint32, region int32) {
	g.record(trace.Read, p, size, region)
}

// W records a write of size bytes at p inside static region.
func (g *TG) W(p unsafe.Pointer, size uint32, region int32) {
	g.record(trace.Write, p, size, region)
}

func (g *TG) record(kind trace.Kind, p unsafe.Pointer, size uint32, region int32) {
	if closed.Load() {
		return
	}
	g.mu.Lock()
	g.batch = append(g.batch, trace.Access{
		Time:   clock.Add(1),
		Addr:   uint64(uintptr(p)),
		Size:   size,
		Thread: g.id,
		Region: region,
		Kind:   kind,
	})
	if len(g.batch) == batchSize {
		g.flushLocked()
	}
	g.mu.Unlock()
}

// flushLocked spills the staged batch into the global collector; caller holds
// g.mu.
func (g *TG) flushLocked() {
	if len(g.batch) == 0 {
		return
	}
	mu.Lock()
	collected = append(collected, g.batch...)
	mu.Unlock()
	g.batch = g.batch[:0]
}

// Shutdown finalizes the run: it stops recording, flushes every goroutine's
// batch, restores the global temporal order, and dispatches on environment —
// COMMPROF_TRACE=path writes a v3 trace file; otherwise the run is analysed
// in-process and the report printed to stdout. The rewriter injects it as the
// first defer of main.main; calling it again is a no-op.
func Shutdown() {
	shutdown.Do(func() {
		closed.Store(true)
		mu.Lock()
		gs := append([]*TG(nil), all...)
		mu.Unlock()
		for _, g := range gs {
			g.mu.Lock()
			g.flushLocked()
			g.mu.Unlock()
		}
		mu.Lock()
		accs := collected
		collected = nil
		goroutines := len(all)
		mu.Unlock()
		// Batches interleave arbitrarily across goroutines; the atomic clock
		// carried on every record restores the global order.
		sort.Slice(accs, func(i, j int) bool { return accs[i].Time < accs[j].Time })

		var err error
		if path := os.Getenv("COMMPROF_TRACE"); path != "" {
			err = record(path, accs, goroutines)
		} else {
			err = live(accs, goroutines)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "commprof/probe:", err)
		}
	})
}

// record writes the run as a v3 trace file. Header counts start as the
// unpatched sentinel and are patched on Close, so a recording that dies
// mid-write is detectably truncated rather than silently short (and
// salvageable with commtrace -mode recover).
func record(path string, accs []trace.Access, goroutines int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc, err := trace.NewDynamicEncoder(f, table)
	if err != nil {
		f.Close()
		return err
	}
	for _, a := range accs {
		if err := enc.Write(a); err != nil {
			f.Close()
			return err
		}
	}
	enc.SetThreads(goroutines)
	if err := enc.Close(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "commprof/probe: recorded %d accesses from %d goroutines to %s\n",
		len(accs), goroutines, path)
	return nil
}

// live analyses the run in-process through the sharded pipeline and prints
// the standard report, so an instrumented binary is useful stand-alone.
func live(accs []trace.Access, goroutines int) error {
	if goroutines == 0 {
		fmt.Fprintln(os.Stderr, "commprof/probe: no instrumented accesses recorded")
		return nil
	}
	regions := make([]commprof.Region, table.Len())
	for i, r := range table.Regions {
		regions[i] = commprof.Region{
			Name: r.Name, Parent: r.Parent, Loop: r.Kind == trace.LoopRegion,
			File: r.File, Line: r.Line,
		}
	}
	converted := make([]commprof.Access, len(accs))
	for i, a := range accs {
		k := commprof.ReadAccess
		if a.Kind == trace.Write {
			k = commprof.WriteAccess
		}
		converted[i] = commprof.Access{
			Kind: k, Addr: a.Addr, Size: a.Size,
			Thread: a.Thread, Region: a.Region, Time: a.Time,
		}
	}
	opts := commprof.Options{
		Threads:             goroutines,
		AnalysisShards:      envInt("COMMPROF_SHARDS", runtime.GOMAXPROCS(0)),
		PhaseWindow:         uint64(envInt("COMMPROF_PHASES", 0)),
		GranularityBits:     uint(envInt("COMMPROF_GRANULARITY", 0)),
		RedundancyCacheBits: uint(envInt("COMMPROF_REDUNDANCY_BITS", 0)),
	}
	if slots := envInt("COMMPROF_SIG", 0); slots > 0 {
		opts.SignatureSlots = uint64(slots)
	}
	// COMMPROF_TIMELINE=path records the analysis's execution timeline and
	// writes it as Chrome/Perfetto trace-event JSON alongside the report.
	timelinePath := os.Getenv("COMMPROF_TIMELINE")
	var tel *commprof.Telemetry
	if timelinePath != "" {
		tel = commprof.NewTelemetry()
		tel.EnableTimeline()
		opts.Telemetry = tel
	}
	rep, err := commprof.ProfileTraceParallel(converted, regions, goroutines, opts)
	if err != nil {
		return err
	}
	fmt.Print(rep.Summary())
	if timelinePath != "" {
		f, err := os.Create(timelinePath)
		if err != nil {
			return err
		}
		err = tel.WriteTimeline(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "commprof/probe: wrote execution timeline to %s\n", timelinePath)
	}
	return nil
}

// envInt reads an integer environment knob, falling back on absence or a
// parse failure.
func envInt(name string, fallback int) int {
	v := os.Getenv(name)
	if v == "" {
		return fallback
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "commprof/probe: ignoring %s=%q: %v\n", name, v, err)
		return fallback
	}
	return n
}
