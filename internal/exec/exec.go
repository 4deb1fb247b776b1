// Package exec runs workloads on simulated shared-memory threads and fires
// the instrumentation probe on every memory access.
//
// Threads execute cooperatively under a strict round-robin scheduler with a
// configurable access quantum: each thread is a goroutine, and the turn
// passes from one to the next over a channel, so exactly one runs at a time
// and every run produces the identical temporal access order on any number
// of cores. This supplies Algorithm 1's requirement that accesses be
// processed in temporal order, and makes all experiments reproducible.
//
// The engine substitutes for native pthread execution of the paper's testbed;
// communication-matrix shape depends only on which threads touch which
// addresses and in what order, and the scheduler fixes one valid
// interleaving. Real concurrent programs reach the analyser through the
// commprof/probe runtime instead, which merges their goroutines into one
// time-ordered stream.
package exec

import (
	"errors"
	"fmt"
	"sync/atomic"

	"commprof/internal/obs"
	"commprof/internal/trace"
)

// Probe receives every instrumented access, from one thread at a time.
type Probe func(a trace.Access)

// Options configures an Engine.
type Options struct {
	Threads int   // number of simulated threads (>=1)
	Quantum int   // accesses per scheduling turn; default 64
	Probe   Probe // may be nil (uninstrumented "native" run)
	// Probes, when non-nil, receives scheduler telemetry (quantum switches,
	// barrier/lock wait episodes). Nil keeps the uninstrumented path
	// allocation-free at the cost of one nil check per hook site.
	Probes *obs.EngineProbes
}

// Stats summarises an engine run.
type Stats struct {
	Accesses  uint64 // total instrumented accesses
	Reads     uint64
	Writes    uint64
	Elided    uint64 // accesses whose probes static coalescing elided
	WorkUnits uint64 // simulated computation units
	Barriers  uint64 // barrier episodes completed
	Clock     uint64 // final logical time
}

type threadState uint8

const (
	stRunnable threadState = iota
	stBarrier
	stLock
	stDone
)

// Engine coordinates one run of a workload body across N threads.
type Engine struct {
	opts Options

	// clock is the logical time for live readers: the thread holding the
	// turn advances now and publishes it here (Thread.publish).
	clock atomic.Uint64

	// threads is allocated at New (not Run) so live-introspection readers
	// can snapshot per-thread progress without racing on the slice itself.
	threads []*Thread

	// Scheduler state, owned by whichever goroutine holds the turn: the channel send that passes the turn orders every access.
	now           uint64
	cursor        int // next thread to consider in the current round
	live, parked  int // threads not yet done; threads waiting at the barrier
	done          chan struct{}
	locks         map[int]int32 // lock id -> holding thread, absent/-1 when free
	barrierEpochs atomic.Uint64

	ran bool
	err error
}

// New creates an engine. It panics on a non-positive thread count (a
// configuration bug, not input error).
func New(opts Options) *Engine {
	if opts.Threads <= 0 {
		panic(fmt.Sprintf("exec: invalid thread count %d", opts.Threads))
	}
	if opts.Quantum <= 0 {
		opts.Quantum = 64
	}
	e := &Engine{
		opts:  opts,
		done:  make(chan struct{}),
		locks: map[int]int32{},
	}
	e.threads = make([]*Thread, opts.Threads)
	for i := range e.threads {
		e.threads[i] = &Thread{id: int32(i), eng: e, resume: make(chan struct{})}
	}
	return e
}

// Threads returns the configured thread count.
func (e *Engine) Threads() int { return e.opts.Threads }

// Clock returns the logical time; mid-run it trails by up to a quantum.
func (e *Engine) Clock() uint64 { return e.clock.Load() }

// Run executes body once per thread and blocks until all threads finish.
// An Engine is single-shot; a second Run returns an error.
func (e *Engine) Run(body func(t *Thread)) (Stats, error) {
	if e.ran {
		return Stats{}, errors.New("exec: engine already ran")
	}
	e.ran = true
	e.live = len(e.threads)
	for _, t := range e.threads {
		go t.main(body)
	}
	e.next() <- struct{}{}
	<-e.done
	if live := e.live; live > 0 {
		e.failStuckThreads()
		return e.collectStats(), fmt.Errorf("exec: deadlock with %d live threads (mixed barrier/lock wait)", live)
	}
	return e.collectStats(), e.err
}

// next makes the round-robin decision on the goroutine that holds the turn:
// the rest of the round in thread order (waking lock waiters whose lock is
// free), then the barrier release and the deadlock check. It returns the
// next thread's resume, its budget refilled, or done when the run is over.
func (e *Engine) next() chan struct{} {
	for e.live > 0 {
		start := e.cursor
		for e.cursor < len(e.threads) {
			t := e.threads[e.cursor]
			e.cursor++
			if t.state == stLock {
				if holder, held := e.locks[t.waitLock]; !held || holder == -1 {
					t.state = stRunnable
				}
			}
			if t.state == stRunnable {
				if p := e.opts.Probes; p != nil {
					p.QuantumSwitches.Inc()
				}
				t.budget = e.opts.Quantum
				return t.resume
			}
		}
		e.cursor = 0
		// Barrier release: every live thread parked at the barrier.
		if e.parked == e.live {
			for _, t := range e.threads {
				if t.state == stBarrier {
					t.state = stRunnable
				}
			}
			e.parked = 0
			e.barrierEpochs.Add(1)
			continue
		}
		if start == 0 { // a whole round ran no thread: deadlock
			return e.done
		}
	}
	return e.done
}

// failStuckThreads unblocks deadlocked goroutines so they exit; the engine is
// unusable afterwards but does not leak goroutines.
func (e *Engine) failStuckThreads() {
	for _, t := range e.threads {
		if t.state != stDone {
			t.aborted = true
			t.budget = 1 << 30
			t.resume <- struct{}{}
			<-e.done
		}
	}
}

func (e *Engine) collectStats() Stats {
	var s Stats
	for _, t := range e.threads {
		s.Accesses += t.accesses
		s.Reads += t.accesses - t.writes
		s.Writes += t.writes
		s.Elided += t.elided
		s.WorkUnits += t.work
	}
	s.Barriers = e.BarrierEpochs()
	s.Clock = e.clock.Load()
	return s
}

// ThreadProgress snapshots each thread's instrumented access count. Safe to
// call while a run is in flight (trailing by up to a quantum) — this is the
// per-thread progress feed of the live /progress endpoint.
func (e *Engine) ThreadProgress() []uint64 {
	out := make([]uint64, len(e.threads))
	for i, t := range e.threads {
		out[i] = t.progress.Load()
	}
	return out
}

// BarrierEpochs reports completed barrier episodes so far; safe mid-run.
func (e *Engine) BarrierEpochs() uint64 { return e.barrierEpochs.Load() }
