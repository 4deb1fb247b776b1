package exec

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"commprof/internal/obs"
	"commprof/internal/trace"
)

// collectProbe records accesses; safe for single-threaded deterministic runs.
func collectProbe(out *[]trace.Access) Probe {
	return func(a trace.Access) { *out = append(*out, a) }
}

func TestDeterministicRunBasics(t *testing.T) {
	var got []trace.Access
	e := New(Options{Threads: 4, Quantum: 3, Probe: collectProbe(&got)})
	stats, err := e.Run(func(th *Thread) {
		base := uint64(0x1000 + 0x100*uint64(th.ID()))
		for i := uint64(0); i < 5; i++ {
			th.Write(base+8*i, 8)
			th.Read(base+8*i, 8)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Accesses != 4*10 || stats.Reads != 20 || stats.Writes != 20 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(got) != 40 {
		t.Fatalf("probe saw %d accesses", len(got))
	}
	// Logical times must be strictly increasing in probe order
	// (the scheduler runs one thread at a time).
	for i := 1; i < len(got); i++ {
		if got[i].Time <= got[i-1].Time {
			t.Fatalf("time not increasing at %d: %d then %d", i, got[i-1].Time, got[i].Time)
		}
	}
}

func TestDeterministicReproducible(t *testing.T) {
	run := func() []trace.Access {
		var got []trace.Access
		e := New(Options{Threads: 8, Quantum: 5, Probe: collectProbe(&got)})
		if _, err := e.Run(func(th *Thread) {
			for i := 0; i < 20; i++ {
				th.Write(uint64(0x2000+i*8), 8)
				th.Work(2)
				th.Read(uint64(0x2000+((i+int(th.ID()))%20)*8), 8)
				if i%7 == 0 {
					th.Barrier()
				}
			}
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return got
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical deterministic runs produced different access orders")
	}
}

func TestQuantumInterleavesThreads(t *testing.T) {
	// With quantum 2 and two threads each doing 6 accesses, the probe order
	// must alternate in blocks of 2, not run thread 0 to completion first.
	var got []trace.Access
	e := New(Options{Threads: 2, Quantum: 2, Probe: collectProbe(&got)})
	if _, err := e.Run(func(th *Thread) {
		for i := 0; i < 6; i++ {
			th.Read(uint64(0x3000+i*8), 8)
		}
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantThreads := []int32{0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1}
	for i, a := range got {
		if a.Thread != wantThreads[i] {
			t.Fatalf("access %d from thread %d, want %d (full order %v)", i, a.Thread, wantThreads[i], threadsOf(got))
		}
	}
}

func threadsOf(as []trace.Access) []int32 {
	out := make([]int32, len(as))
	for i, a := range as {
		out[i] = a.Thread
	}
	return out
}

func TestBarrierOrdersPhases(t *testing.T) {
	// Phase 1: every thread writes; barrier; phase 2: every thread reads.
	// All writes must precede all reads in probe order.
	var got []trace.Access
	e := New(Options{Threads: 4, Quantum: 1, Probe: collectProbe(&got)})
	stats, err := e.Run(func(th *Thread) {
		th.Write(uint64(0x4000+int(th.ID())*8), 8)
		th.Barrier()
		th.Read(uint64(0x4000+((int(th.ID())+1)%4)*8), 8)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Barriers != 1 {
		t.Fatalf("Barriers = %d, want 1", stats.Barriers)
	}
	seenRead := false
	for _, a := range got {
		if a.Kind == trace.Read {
			seenRead = true
		} else if seenRead {
			t.Fatal("write after read: barrier did not order phases")
		}
	}
}

func TestMultipleBarriers(t *testing.T) {
	e := New(Options{Threads: 3})
	stats, err := e.Run(func(th *Thread) {
		for i := 0; i < 5; i++ {
			th.Work(1)
			th.Barrier()
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Barriers != 5 {
		t.Fatalf("Barriers = %d, want 5", stats.Barriers)
	}
}

func TestLockMutualExclusion(t *testing.T) {
	// Counter protected by lock 7: with quantum 1 forcing interleaving, the
	// final count must still be exact.
	counter := 0
	e := New(Options{Threads: 8, Quantum: 1})
	_, err := e.Run(func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.Acquire(7)
			v := counter
			th.Work(3) // invite preemption inside the critical section
			counter = v + 1
			th.Release(7)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if counter != 80 {
		t.Fatalf("counter = %d, want 80", counter)
	}
}

func TestReleaseWithoutHoldPanicsThread(t *testing.T) {
	e := New(Options{Threads: 1})
	_, err := e.Run(func(th *Thread) { th.Release(3) })
	if err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Fatalf("err = %v, want lock-release error", err)
	}
}

func TestRecursiveAcquirePanics(t *testing.T) {
	e := New(Options{Threads: 1})
	_, err := e.Run(func(th *Thread) {
		th.Acquire(1)
		th.Acquire(1)
	})
	if err == nil || !strings.Contains(err.Error(), "re-acquired") {
		t.Fatalf("err = %v, want re-acquire error", err)
	}
}

func TestRegionAttribution(t *testing.T) {
	var got []trace.Access
	e := New(Options{Threads: 1, Probe: collectProbe(&got)})
	if _, err := e.Run(func(th *Thread) {
		th.Read(0x10, 8) // outside any region
		th.EnterRegion(0)
		th.Read(0x18, 8)
		th.InRegion(1, func() { th.Write(0x20, 8) })
		th.Read(0x28, 8)
		th.ExitRegion()
		th.Read(0x30, 8)
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantRegions := []int32{trace.NoRegion, 0, 1, 0, trace.NoRegion}
	for i, a := range got {
		if a.Region != wantRegions[i] {
			t.Fatalf("access %d region %d, want %d", i, a.Region, wantRegions[i])
		}
	}
}

func TestExitRegionUnderflowIsThreadError(t *testing.T) {
	e := New(Options{Threads: 1})
	_, err := e.Run(func(th *Thread) { th.ExitRegion() })
	if err == nil {
		t.Fatal("expected error from region-stack underflow")
	}
}

// waitGoroutines polls until the goroutine count is back to want: a run's
// thread goroutines exit just after handing Run the result.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), want)
		}
	}
}

func TestBodyPanicBecomesError(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New(Options{Threads: 2})
	_, err := e.Run(func(th *Thread) {
		if th.ID() == 1 {
			panic("boom")
		}
		// Thread 0 must still terminate: no barrier involved.
		th.Work(10)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic error", err)
	}
	waitGoroutines(t, before)
}

func TestDeadlockDetected(t *testing.T) {
	// Thread 0 waits at a barrier holding lock 1; thread 1 waits for lock 1.
	before := runtime.NumGoroutine()
	e := New(Options{Threads: 2, Quantum: 1})
	_, err := e.Run(func(th *Thread) {
		if th.ID() == 0 {
			th.Acquire(1)
			th.Barrier()
			th.Release(1)
		} else {
			th.Acquire(1)
			th.Barrier()
			th.Release(1)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	waitGoroutines(t, before)
}

func TestEngineSingleShot(t *testing.T) {
	e := New(Options{Threads: 1})
	if _, err := e.Run(func(*Thread) {}); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if _, err := e.Run(func(*Thread) {}); err == nil {
		t.Fatal("second Run must fail")
	}
}

func TestInvalidThreadCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Options{Threads: 0})
}

func TestWorkAdvancesClock(t *testing.T) {
	e := New(Options{Threads: 1})
	stats, err := e.Run(func(th *Thread) {
		th.Work(100)
		th.Read(0x50, 8)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.WorkUnits != 100 {
		t.Fatalf("WorkUnits = %d", stats.WorkUnits)
	}
	if stats.Clock != 101 {
		t.Fatalf("Clock = %d, want 101", stats.Clock)
	}
}

// TestLiveReadersDuringDeterministicRun polls the live feeds from a second
// goroutine while a deterministic run hands turns between its threads: each
// feed may trail by a quantum but never goes backwards, and once Run returns
// each equals the run's Stats exactly.
func TestLiveReadersDuringDeterministicRun(t *testing.T) {
	const threads, rounds = 6, 300
	e := New(Options{Threads: threads, Quantum: 7})
	stop := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		var last []uint64
		var clock, epochs uint64
		for {
			select {
			case <-stop:
				polled <- nil
				return
			default:
			}
			progress, c, b := e.ThreadProgress(), e.Clock(), e.BarrierEpochs()
			for i := range last {
				if progress[i] < last[i] {
					polled <- fmt.Errorf("thread %d progress went %d -> %d", i, last[i], progress[i])
					return
				}
			}
			if c < clock || b < epochs {
				polled <- fmt.Errorf("clock %d -> %d, barrier epochs %d -> %d", clock, c, epochs, b)
				return
			}
			last, clock, epochs = progress, c, b
			runtime.Gosched()
		}
	}()
	stats, err := e.Run(func(th *Thread) {
		for i := 0; i < rounds; i++ {
			th.Write(uint64(0x5000+8*i), 8)
			th.Work(3)
			th.Read(uint64(0x5000+8*((i+int(th.ID()))%rounds)), 8)
			if i%2 == 0 {
				th.ReadElided(8)
			} else {
				th.WriteElided(8)
			}
			if i%50 == 0 {
				th.Acquire(1)
				th.Work(1)
				th.Release(1)
				th.Barrier()
			}
		}
	})
	close(stop)
	if perr := <-polled; perr != nil {
		t.Fatal(perr)
	}
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var sum uint64
	for i, n := range e.ThreadProgress() {
		if n != 3*rounds {
			t.Errorf("thread %d progress %d after Run, want %d", i, n, 3*rounds)
		}
		sum += n
	}
	if sum != stats.Accesses || e.Clock() != stats.Clock || e.BarrierEpochs() != stats.Barriers {
		t.Fatalf("after Run: progress %d clock %d epochs %d, stats %+v", sum, e.Clock(), e.BarrierEpochs(), stats)
	}
	if want := uint64(threads * (6*rounds + rounds/50)); stats.Clock != want || stats.Barriers != rounds/50 {
		t.Fatalf("stats %+v, want clock %d and %d barriers", stats, want, rounds/50)
	}
}

// BenchmarkTurnHandOff meters the deterministic scheduler alone: 32 threads
// that only Read, at the default quantum and with no probe, so the time is
// counting and passing the turn. ns/turn prices one quantum.
func BenchmarkTurnHandOff(b *testing.B) {
	const threads = 32
	perThread := b.N/threads + 1
	e := New(Options{Threads: threads})
	b.ResetTimer()
	stats, err := e.Run(func(th *Thread) {
		for i := 0; i < perThread; i++ {
			th.Read(uint64(0x1000+i*8), 8)
		}
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	// A thread yields after every full quantum and takes one more turn to
	// finish: perThread/64 + 1 turns each.
	turns := threads * (perThread/64 + 1)
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(stats.Accesses), "ns/access")
	b.ReportMetric(ns/float64(turns), "ns/turn")
}

func BenchmarkDeterministicAccess(b *testing.B) {
	e := New(Options{Threads: 4, Quantum: 256})
	n := b.N
	_, err := e.Run(func(th *Thread) {
		for i := 0; i < n/4; i++ {
			th.Read(uint64(0x1000+i*8), 8)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// TestTurnOrderGolden pins the exact interleaving the scheduler produces: the
// ordered (Time, Thread, Addr, Kind) sequence, the run's Stats and its
// scheduler counters, hashed with FNV-64a. The body exercises every turn decision at once: quantum exhaustion,
// Work, two barriers, a contended lock, elided accesses, a thread that
// finishes before the barriers, and a last thread that runs on alone (the
// scheduler hands it its own turn back). Any scheduler rewrite must keep this
// value; TestDeterministicReproducible only compares a run with itself.
func TestTurnOrderGolden(t *testing.T) {
	const want = uint64(0xae7b2a3d8f643612)
	var got []trace.Access
	probes := obs.DefaultProbes(obs.NewRegistry()).Engine
	e := New(Options{Threads: 5, Quantum: 3, Probe: collectProbe(&got), Probes: probes})
	stats, err := e.Run(func(th *Thread) {
		id := uint64(th.ID())
		base := 0x1000 + 0x40*id
		if id == 4 {
			th.Write(base, 8)
			th.Read(0x1000, 8)
			return
		}
		for i := uint64(0); i < 4; i++ {
			th.Write(base+8*i, 8)
			th.Work(int(id) + 1)
			th.Read(0x1000+0x40*((id+i)%4), 8)
		}
		th.ReadElided(8)
		th.WriteElided(4)
		th.Barrier()
		for i := 0; i < 2; i++ {
			th.Acquire(1)
			th.Read(0x9000, 8)
			th.Work(2)
			th.Write(0x9000, 8)
			th.Release(1)
		}
		th.Barrier()
		if id == 0 {
			for i := uint64(0); i < 10; i++ {
				th.Read(0xa000+8*i, 8)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if probes.LockWaits.Value() == 0 {
		t.Fatal("the lock was never contended")
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, a := range got {
		put(a.Time)
		put(uint64(a.Thread))
		put(a.Addr)
		put(uint64(a.Kind))
	}
	for _, v := range []uint64{stats.Accesses, stats.Reads, stats.Writes, stats.Elided, stats.WorkUnits, stats.Barriers, stats.Clock,
		probes.QuantumSwitches.Value(), probes.BarrierWaits.Value(), probes.LockWaits.Value()} {
		put(v)
	}
	if sum := h.Sum64(); sum != want {
		t.Fatalf("turn order hash %#x, want %#x (%d accesses, stats %+v, threads %v)", sum, want, len(got), stats, threadsOf(got))
	}
}
