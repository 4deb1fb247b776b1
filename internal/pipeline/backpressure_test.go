package pipeline

import (
	"runtime"
	"testing"
	"time"

	"commprof/internal/obs"
	"commprof/internal/sig"
	"commprof/internal/trace"
)

// gatedBackend parks every signature operation until release is closed. It
// lets a test wedge the shard worker so the queue genuinely sticks at
// capacity — the only scheduler-independent way to force enqueue stalls
// (spin-based slowdowns are unreliable at GOMAXPROCS=1, where the worker can
// drain between every producer step).
type gatedBackend struct {
	sig.Backend
	release <-chan struct{}
}

func (g *gatedBackend) ObserveRead(addr uint64, tid int32) (int32, bool) {
	<-g.release
	return g.Backend.ObserveRead(addr, tid)
}

func (g *gatedBackend) ObserveWrite(addr uint64, tid int32) {
	<-g.release
	g.Backend.ObserveWrite(addr, tid)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBackpressureBlocksProducerAtCapacity wedges a single-shard engine's
// worker and feeds ten queue capacities from one goroutine: the producer must
// stall (counted) with at most QueueCapacity accesses handed over and none
// analysed, stay blocked for as long as the worker is wedged, and — once it
// is released — deliver every access with the queue never having exceeded its
// bound. Nothing is dropped and no clock is consulted: backpressure is the
// engine's only overload behaviour.
func TestBackpressureBlocksProducerAtCapacity(t *testing.T) {
	const capacity = 4 * batchLen
	release := make(chan struct{})
	reg := obs.NewRegistry()
	e, err := New(Options{
		Shards: 1, Threads: 2, QueueCapacity: capacity,
		NewBackend: func(int) (sig.Backend, error) {
			return &gatedBackend{Backend: sig.NewPerfect(2), release: release}, nil
		},
		Probes: obs.Probes{Pipeline: obs.DefaultProbes(reg).Pipeline},
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 10 * capacity
	stream := make([]trace.Access, total)
	for i := range stream {
		stream[i] = trace.Access{Addr: uint64(8 * i), Thread: int32(i % 2), Kind: trace.Read, Size: 8}
	}
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		e.ProcessBatch(stream)
		e.Flush()
	}()
	waitFor(t, "the producer to stall on the full queue", func() bool {
		return reg.Snapshot().Counters["pipeline_enqueue_stalls_total"] >= 1
	})
	select {
	case <-returned:
		t.Fatal("producer returned while the worker was wedged")
	default:
	}
	st := e.ShardStats()[0]
	if st.Depth > capacity {
		t.Errorf("depth %d exceeds capacity %d while stalled", st.Depth, capacity)
	}
	// The detector counts an access before it asks the backend, so the one
	// the worker is wedged inside already shows.
	if st.Processed > 1 {
		t.Errorf("wedged worker analysed %d accesses", st.Processed)
	}

	close(release)
	<-returned
	e.Close()
	st = e.ShardStats()[0]
	if st.Processed != total {
		t.Errorf("analysed %d of %d accesses", st.Processed, total)
	}
	if st.PeakDepth > capacity || st.PeakDepth == 0 {
		t.Errorf("peak depth %d, want in (0, %d]", st.PeakDepth, capacity)
	}
	if st.Depth != 0 {
		t.Errorf("depth %d after Close", st.Depth)
	}
}

// TestBuffersAreRecycled pins that the hand-off reuses its buffers: a million
// accesses through two shards allocate a small multiple of the queues' own
// size, not memory proportional to the stream. A make per batch would pass
// every equivalence wall and show only as bytes per access on a benchmark.
func TestBuffersAreRecycled(t *testing.T) {
	const shards, capacity, accesses = 2, 512, 1 << 20
	stream := make([]trace.Access, accesses)
	for i := range stream {
		stream[i] = trace.Access{Time: uint64(i + 1), Addr: uint64(i%64) * 8, Thread: int32(i % 4), Kind: trace.Read, Size: 8}
	}
	e, err := New(Options{
		Shards: shards, Threads: 4, QueueCapacity: capacity,
		NewBackend: PerfectFactory(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.ProcessBatch(stream)
	e.Close()
	runtime.ReadMemStats(&after)
	const accessBytes = 32
	bound := uint64(4 * shards * (capacity + 2*batchLen) * accessBytes)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("ProcessBatch of %d accesses allocated %d bytes, want at most %d (buffers are not being reused)",
			accesses, got, bound)
	}
	if got := e.Stats().Processed; got != accesses {
		t.Errorf("analysed %d of %d accesses", got, accesses)
	}
}

// TestProducerAfterCloseIsIgnored pins the failure-path contract the facade's
// deferred Close relies on, in-thread and sharded: everything fed before
// Close is analysed (Close flushes what is staged), and a ProcessBatch or
// Flush that follows Close neither panics nor blocks and analyses nothing.
func TestProducerAfterCloseIsIgnored(t *testing.T) {
	batch := make([]trace.Access, 1000)
	for i := range batch {
		batch[i] = trace.Access{Addr: uint64(i%512) * 8, Kind: trace.Read, Size: 8}
	}
	for _, shards := range []int{0, 2} {
		e, err := New(Options{
			Shards: shards, Threads: 1, QueueCapacity: 64,
			NewBackend: PerfectFactory(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		e.ProcessBatch(batch)
		e.Close()
		if got := e.Stats().Processed; got != uint64(len(batch)) {
			t.Errorf("K = %d: analysed %d accesses before Close, want %d", shards, got, len(batch))
		}

		e.ProcessBatch(batch)
		e.Flush()
		e.Close()
		if got := e.Stats().Processed; got != uint64(len(batch)) {
			t.Errorf("K = %d: analysed count moved from %d to %d after Close", shards, len(batch), got)
		}
		if _, err := e.Global(); err != nil {
			t.Fatal(err)
		}
	}
}
