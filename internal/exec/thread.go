package exec

import (
	"fmt"
	"sync/atomic"

	"commprof/internal/trace"
)

// Thread is the handle a workload body uses to issue memory accesses,
// synchronise, and maintain its static-region context. All methods must be
// called only from the goroutine running the body.
type Thread struct {
	id  int32
	eng *Engine

	// Region context: stack of static region IDs (functions/loops).
	regionStack []int32

	// Counters, written only by this thread and read once the run is over;
	// progress publishes accesses to live readers once per quantum.
	accesses uint64
	writes   uint64
	elided   uint64
	work     uint64
	progress atomic.Uint64

	// Scheduling.
	resume   chan struct{}
	state    threadState
	waitLock int
	budget   int
	aborted  bool

	// spin is the state of the simulated-computation PRNG; burning cycles in
	// Work gives the uninstrumented "native" run a real, measurable cost so
	// slowdown factors (Fig. 4) are meaningful ratios.
	spin uint64
}

// ID returns the thread's index in [0, Threads).
func (t *Thread) ID() int32 { return t.id }

// main drives a thread: wait for the first turn, run the body, then pass the
// turn on (back to Run if the scheduler aborted it).
func (t *Thread) main(body func(*Thread)) {
	<-t.resume
	func() {
		defer func() {
			if r := recover(); r != nil {
				if !t.aborted && t.eng.err == nil {
					t.eng.err = fmt.Errorf("exec: thread %d panicked: %v", t.id, r)
				}
			}
		}()
		body(t)
	}()
	t.publish()
	t.state = stDone
	next := t.eng.done
	if !t.aborted {
		t.eng.live--
		next = t.eng.next()
	}
	next <- struct{}{}
}

// yield publishes the counts and passes the turn on until it comes back.
func (t *Thread) yield() {
	if !t.aborted {
		t.publish()
		if next := t.eng.next(); next != t.resume {
			next <- struct{}{}
			<-t.resume
		}
	}
	if t.aborted {
		panic("exec: thread aborted by scheduler")
	}
}

// publish stores the counts live readers poll: this thread's accesses and
// the logical clock.
func (t *Thread) publish() {
	t.progress.Store(t.accesses)
	t.eng.clock.Store(t.eng.now)
}

// tick advances the logical clock by n; the turn orders it, no atomic needed.
func (t *Thread) tick(n uint64) uint64 {
	t.eng.now += n
	return t.eng.now
}

// afterStep accounts n scheduling units after an access (and its probe) have
// fully completed; at the quantum's end it yields. Yield must come last:
// preempting between the clock tick and the probe would let other threads
// emit newer timestamps first, breaking temporal order.
func (t *Thread) afterStep(n int) {
	if t.budget -= n; t.budget <= 0 {
		t.state = stRunnable
		t.yield()
	}
}

// Read issues an instrumented load of size bytes at addr.
func (t *Thread) Read(addr uint64, size uint32) {
	now := t.tick(1)
	t.accesses++
	if p := t.eng.opts.Probe; p != nil {
		p(trace.Access{Time: now, Addr: addr, Size: size, Thread: t.id, Region: t.currentRegion(), Kind: trace.Read})
	}
	t.afterStep(1)
}

// Write issues an instrumented store of size bytes at addr.
func (t *Thread) Write(addr uint64, size uint32) {
	now := t.tick(1)
	t.accesses++
	t.writes++
	if p := t.eng.opts.Probe; p != nil {
		p(trace.Access{Time: now, Addr: addr, Size: size, Thread: t.id, Region: t.currentRegion(), Kind: trace.Write})
	}
	t.afterStep(1)
}

// ReadElided accounts a load whose probe the static coalescing pass elided:
// the logical clock and the access counters advance exactly as Read's do (so
// scheduling and timestamps are bit-identical with coalescing off), but no
// probe fires.
func (t *Thread) ReadElided(size uint32) {
	t.tick(1)
	t.accesses++
	t.elided++
	if p := t.eng.opts.Probes; p != nil {
		p.ElidedProbes.Inc()
	}
	t.afterStep(1)
}

// WriteElided accounts a store whose probe the static coalescing pass elided;
// see ReadElided.
func (t *Thread) WriteElided(size uint32) {
	t.tick(1)
	t.accesses++
	t.writes++
	t.elided++
	if p := t.eng.opts.Probes; p != nil {
		p.ElidedProbes.Inc()
	}
	t.afterStep(1)
}

// Work simulates units of uninstrumented computation (register/ALU work that
// the real profiler would not instrument). It advances the logical clock and
// burns a deterministic amount of CPU.
func (t *Thread) Work(units int) {
	if units <= 0 {
		return
	}
	t.work += uint64(units)
	t.tick(uint64(units))
	s := t.spin
	if s == 0 {
		s = uint64(t.id)*0x9e3779b97f4a7c15 + 1
	}
	for i := 0; i < units; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
	}
	t.spin = s
	t.afterStep(units)
}

// Barrier blocks until every live thread reaches a barrier.
func (t *Thread) Barrier() {
	if p := t.eng.opts.Probes; p != nil {
		p.BarrierWaits.Inc()
	}
	t.state = stBarrier
	t.eng.parked++
	t.yield()
}

// Acquire takes the mutex identified by lock, blocking while it is held by
// another thread. Locks are plain integers so workloads need no setup.
func (t *Thread) Acquire(lock int) {
	for {
		holder, held := t.eng.locks[lock]
		if !held || holder == -1 {
			t.eng.locks[lock] = t.id
			return
		}
		if holder == t.id {
			panic(fmt.Sprintf("exec: thread %d re-acquired lock %d", t.id, lock))
		}
		if p := t.eng.opts.Probes; p != nil {
			p.LockWaits.Inc()
		}
		t.state = stLock
		t.waitLock = lock
		t.yield()
	}
}

// Release frees the mutex identified by lock. It panics if the caller does
// not hold it (a workload bug).
func (t *Thread) Release(lock int) {
	if holder, held := t.eng.locks[lock]; !held || holder != t.id {
		panic(fmt.Sprintf("exec: thread %d released lock %d it does not hold", t.id, lock))
	}
	t.eng.locks[lock] = -1
}

// EnterRegion pushes a static region (function or loop) onto the thread's
// context; subsequent accesses are attributed to it.
func (t *Thread) EnterRegion(id int32) {
	t.regionStack = append(t.regionStack, id)
}

// ExitRegion pops the innermost region. It panics on an empty stack.
func (t *Thread) ExitRegion() {
	if len(t.regionStack) == 0 {
		panic("exec: ExitRegion with empty region stack")
	}
	t.regionStack = t.regionStack[:len(t.regionStack)-1]
}

// InRegion runs fn with the given region pushed, popping it afterwards even
// if fn panics.
func (t *Thread) InRegion(id int32, fn func()) {
	t.EnterRegion(id)
	defer t.ExitRegion()
	fn()
}

func (t *Thread) currentRegion() int32 {
	if n := len(t.regionStack); n > 0 {
		return t.regionStack[n-1]
	}
	return trace.NoRegion
}

// Region returns the innermost current region, or trace.NoRegion.
func (t *Thread) Region() int32 { return t.currentRegion() }
