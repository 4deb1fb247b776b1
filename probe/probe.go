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
// total order Algorithm 1 requires. The shim is a stream: each goroutine fills
// a fixed-size batch from one fixed pool (the hot path is an uncontended mutex
// and a slice append), and one writer goroutine merges the batches — each
// already in clock order — up to a watermark straight into the v3 trace
// encoder and returns the buffers. Memory is O(pool), not O(accesses); an
// empty pool is the backpressure that holds the target to the writer's pace.
//
// The encoder's sink is the COMMPROF_TRACE file (record mode: created at the
// first emission, so CRC-framed blocks reach the disk while the target runs;
// the access and goroutine counts, known only at the end, are patched into the
// header on close) or the same bytes in memory (live mode, the default), which
// Shutdown replays through the standard analysis and prints as the report.
//
// main returning (the injected defer), os.Exit in the instrumented package
// (rewritten to Exit) and SIGINT/SIGTERM (handled, then re-raised) all run
// Shutdown and leave a finalized trace. log.Fatal, os.Exit in another package,
// an un-recovered panic on another goroutine and SIGKILL do not: the file then
// holds the blocks written so far under an unpatched header — detectably
// truncated, salvageable with commtrace -mode recover — and loses only the
// unflushed tail. Accesses issued after Shutdown are dropped, not recorded.
package probe

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"

	"commprof"
	"commprof/internal/trace"
)

const (
	batchSize = 4096 // records per staging buffer (128 KB)
	poolSize  = 64   // staging buffers at most (8 MB), allocated on first use
)

// shim is the whole runtime state; the package-level functions act on the one
// instance std, which only tests replace.
type shim struct {
	mu      sync.Mutex // guards table, all, sealed, sigc
	table   *trace.Table
	all     []*TG          // by compact ID; append-only
	sealed  bool           // the header and region table are written: Register is too late
	sigc    chan os.Signal // SIGINT/SIGTERM, watched from the first Register on
	handles sync.Map       // goid (uint64) → *TG
	clock   atomic.Uint64
	closed  atomic.Bool
	once    sync.Once

	// Live mode's analyser options, parsed from COMMPROF_OPTS once: at the
	// first Register, so a malformed value is reported before the target runs.
	optsOnce sync.Once
	opts     commprof.Options
	optsErr  error

	// free is the pool: poolSize slots, nil until a buffer is first needed.
	// Every buffer not in it is in a handle or in the writer's hands.
	free chan []trace.Access
	// wake asks the writer for a sweep. One pending request is enough: a
	// sweep takes everything that exists when it starts.
	wake chan struct{}

	// Writer state, under wmu: one sweep at a time, the writer goroutine's or
	// Shutdown's final one.
	wmu    sync.Mutex
	active []*TG          // handles with batches queued for the merge
	opened bool           // open has run
	enc    *trace.Encoder // nil until then, and if it failed
	file   *os.File       // record mode's sink
	buf    *trace.Buffer  // live mode's sink
}

var std = newShim()

func newShim() *shim {
	s := &shim{
		table: trace.NewTable(),
		free:  make(chan []trace.Access, poolSize),
		wake:  make(chan struct{}, 1),
	}
	for i := 0; i < poolSize; i++ {
		s.free <- nil
	}
	go s.writer()
	return s
}

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
// it runs before main and before any probe; one that arrives after the trace
// header went out cannot be recorded and is reported. In live mode
// (COMMPROF_TRACE unset) a malformed COMMPROF_OPTS is reported here, before
// the target runs, and again by Shutdown in place of the report.
func Register(regions []Region) {
	s := std
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		fmt.Fprintf(os.Stderr, "commprof/probe: Register of %d regions after the trace header was written; ignored\n", len(regions))
		return
	}
	for _, r := range regions {
		var id int32
		if r.Loop {
			id = s.table.AddLoop(r.Name, r.Parent)
		} else {
			id = s.table.AddFunc(r.Name, r.Parent)
		}
		s.table.Regions[id].File = r.File
		s.table.Regions[id].Line = r.Line
	}
	if s.sigc == nil {
		if os.Getenv("COMMPROF_TRACE") == "" {
			if _, err := s.options(); err != nil {
				fmt.Fprintln(os.Stderr, "commprof/probe:", err)
			}
		}
		s.sigc = make(chan os.Signal, 1)
		signal.Notify(s.sigc, os.Interrupt, syscall.SIGTERM)
		go s.onSignal()
	}
}

// onSignal finalizes the trace on SIGINT/SIGTERM, then lets the signal do
// what it would have done without the shim.
func (s *shim) onSignal() {
	sig := <-s.sigc
	s.shutdown()
	signal.Reset(sig)
	if p, err := os.FindProcess(os.Getpid()); err != nil || p.Signal(sig) != nil {
		os.Exit(1)
	}
}

// TG is one goroutine's probe handle: its compact thread ID and staging
// batch. The owning goroutine is the only appender; the mutex serializes it
// against the writer's sweeps.
type TG struct {
	s  *shim
	id int32

	mu   sync.Mutex
	cur  []trace.Access   // the batch being filled; nil until the owner takes one
	full [][]trace.Access // filled batches the writer has not collected yet

	// Writer-owned (shim.wmu): collected batches, oldest first, and how far
	// into q[0] the merge has got.
	q   [][]trace.Access
	pos int
}

// G returns the calling goroutine's handle, assigning the next compact
// goroutine ID on first use. The rewriter injects one G call per instrumented
// function body, so the runtime.Stack goid parse is paid per call, not per
// memory access.
func G() *TG {
	s := std
	id := goid()
	if h, ok := s.handles.Load(id); ok {
		return h.(*TG)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g := &TG{s: s, id: int32(len(s.all))}
	s.all = append(s.all, g)
	s.handles.Store(id, g)
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
	s := g.s
	g.mu.Lock()
	if s.closed.Load() {
		g.mu.Unlock()
		return
	}
	if g.cur == nil {
		// Nothing may wait for the pool holding a handle lock: the writer
		// needs that lock to free buffers. Only the owner sets cur, so it is
		// still nil afterwards.
		g.mu.Unlock()
		b := s.take()
		g.mu.Lock()
		g.cur = b
	}
	// The clock is drawn under the lock, so a sweep that has held this lock
	// after reading the clock as W has seen every record of g's up to W.
	n := len(g.cur)
	g.cur = g.cur[:n+1] // a batch holds batchSize and is handed over full
	a := &g.cur[n]
	a.Time, a.Addr, a.Size, a.Thread, a.Region, a.Kind = s.clock.Add(1), uint64(uintptr(p)), size, g.id, region, kind
	if n+1 < batchSize {
		g.mu.Unlock()
		return
	}
	g.full = append(g.full, g.cur) // handed over by pointer
	g.cur = nil
	g.mu.Unlock()
	s.kick()
}

// kick asks the writer for a sweep, unless one is already asked for.
func (s *shim) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// take returns an empty staging buffer, waiting for the writer to free one
// when the whole pool is in use. While it waits it keeps a sweep requested,
// so the writer never parks on a taker: whoever else holds the buffers may be
// blocked for good with a partial batch, which only a sweep collects.
func (s *shim) take() []trace.Access {
	var b []trace.Access
	got := true
	select {
	case b = <-s.free:
	default:
		got = false
	}
	for !got {
		select {
		case b = <-s.free:
			got = true
		case s.wake <- struct{}{}:
		}
	}
	if b == nil {
		b = make([]trace.Access, 0, batchSize)
	}
	return b
}

// writer is the one goroutine that turns batches into trace bytes while the
// target runs.
func (s *shim) writer() {
	for range s.wake {
		s.wmu.Lock()
		if s.closed.Load() {
			s.wmu.Unlock()
			return // Shutdown makes the last sweep itself
		}
		s.sweep(s.clock.Load())
		s.wmu.Unlock()
	}
}

// sweep collects every handle's batches — the full ones and, so that a
// goroutine parked with half a batch cannot stall the stream, the partial one
// — and emits all records with clock ≤ w in clock order; it returns the number
// of handles. w must have been read from the clock before the call: a handle
// then either is in the snapshot and is locked after w was read, or was
// created later; both ways every record of it that the sweep does not collect
// is newer than w. What it collects beyond w stays queued for the next sweep.
// Caller holds wmu.
func (s *shim) sweep(w uint64) int {
	s.mu.Lock()
	all := s.all
	s.mu.Unlock()
	s.active = s.active[:0]
	for _, g := range all {
		g.mu.Lock()
		g.q = append(g.q, g.full...)
		g.full = g.full[:0]
		if len(g.cur) > 0 {
			g.q = append(g.q, g.cur)
			g.cur = nil
		}
		g.mu.Unlock()
		if len(g.q) > 0 {
			s.active = append(s.active, g)
		}
	}
	for len(s.active) > 0 {
		// The handle whose next record is the oldest runs until another
		// handle's next record is due: a k-way merge by runs, not by records.
		first, second, at := uint64(math.MaxUint64), uint64(math.MaxUint64), 0
		for i, g := range s.active {
			switch t := g.q[0][g.pos].Time; {
			case t < first:
				first, second, at = t, first, i
			case t < second:
				second = t
			}
		}
		if first > w {
			break
		}
		if !s.drain(s.active[at], min(w, second-1)) {
			last := len(s.active) - 1
			s.active[at] = s.active[last]
			s.active = s.active[:last]
		}
	}
	return len(all)
}

// drain emits g's queued records up to clock limit, returning emptied buffers
// to the pool, and reports whether g has records left.
func (s *shim) drain(g *TG, limit uint64) bool {
	if !s.opened {
		s.open()
	}
	enc := s.enc // nil if open failed: the records go nowhere
	for len(g.q) > 0 {
		b, i := g.q[0], g.pos
		for i < len(b) && b[i].Time <= limit {
			i++
		}
		if enc != nil {
			enc.WriteBatch(b[g.pos:i]) // a failure is sticky: Close reports it
		}
		if i < len(b) {
			g.pos = i
			return true
		}
		s.free <- b[:0] // never blocks: the buffer's own slot is vacant
		g.q = g.q[:copy(g.q, g.q[1:])]
		g.pos = 0
	}
	return false
}

// open creates the sink and writes the trace header and region table. If it
// cannot, that is reported, enc stays nil and batches drain into nothing: the
// target keeps running.
func (s *shim) open() {
	s.opened = true
	var ws io.WriteSeeker
	var err error
	if path := os.Getenv("COMMPROF_TRACE"); path != "" {
		s.file, err = os.Create(path)
		ws = s.file
	} else {
		s.buf = new(trace.Buffer)
		ws = s.buf
	}
	if err == nil {
		s.mu.Lock()
		s.sealed = true
		s.enc, err = trace.NewDynamicEncoder(ws, s.table)
		s.mu.Unlock()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "commprof/probe: not recording:", err)
	}
}

// Shutdown finalizes the run: it stops recording, makes the last sweep with no
// watermark, patches the counts into the trace header, and — in live mode —
// analyses the trace in-process and prints the report to stdout. The rewriter
// injects it as the first defer of main.main; calling it again waits for the
// first call and does nothing more.
func Shutdown() { std.shutdown() }

// Exit is os.Exit for instrumented programs — the rewriter substitutes it for
// os.Exit calls in the target package — finalizing the trace first.
func Exit(code int) {
	std.shutdown()
	os.Exit(code)
}

func (s *shim) shutdown() {
	s.once.Do(func() {
		s.closed.Store(true)
		s.kick() // the writer goroutine sees closed and exits
		s.wmu.Lock()
		defer s.wmu.Unlock()
		goroutines := s.sweep(math.MaxUint64)
		if !s.opened {
			s.open() // a run without accesses is still a trace
		}
		if s.enc == nil {
			return
		}
		s.enc.SetThreads(goroutines)
		err := s.enc.Close()
		if s.file != nil {
			if cerr := s.file.Close(); err == nil {
				err = cerr
			}
		}
		switch {
		case err != nil:
		case s.file != nil:
			fmt.Fprintf(os.Stderr, "commprof/probe: recorded %d accesses from %d goroutines to %s\n",
				s.enc.Written(), goroutines, s.file.Name())
		case goroutines == 0:
			fmt.Fprintln(os.Stderr, "commprof/probe: no instrumented accesses recorded")
		default:
			err = s.report(goroutines)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "commprof/probe:", err)
		}
	})
}

// options returns live mode's analyser options: the flags commtrace -mode
// live was given, in COMMPROF_OPTS (without it a stand-alone binary analyses
// at the flag defaults), parsed once.
func (s *shim) options() (commprof.Options, error) {
	s.optsOnce.Do(func() { s.opts, s.optsErr = commprof.OptionsFromEnv() })
	return s.opts, s.optsErr
}

// report is live mode's second half: the recorded bytes replayed through the
// standard analysis, so an instrumented binary is useful stand-alone.
func (s *shim) report(goroutines int) error {
	opts, err := s.options()
	if err != nil {
		return err
	}
	// COMMPROF_TIMELINE=path records the analysis's execution timeline and
	// writes it as Chrome/Perfetto trace-event JSON alongside the report.
	timelinePath := os.Getenv("COMMPROF_TIMELINE")
	if timelinePath != "" {
		opts.Telemetry = commprof.NewTelemetry()
		opts.Telemetry.EnableTimeline()
	}
	rep, err := commprof.Replay(bytes.NewReader(s.buf.Bytes()), goroutines, opts)
	if err != nil {
		return err
	}
	fmt.Print(rep.Summary())
	if err := opts.Telemetry.WriteTimelineFile(timelinePath); err != nil {
		return err
	}
	if timelinePath != "" {
		fmt.Fprintf(os.Stderr, "commprof/probe: wrote execution timeline to %s\n", timelinePath)
	}
	return nil
}
