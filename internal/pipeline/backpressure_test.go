package pipeline

import (
	"runtime"
	"sync"
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
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		p := e.NewProducer(false)
		for i := 0; i < total; i++ {
			p.Process(trace.Access{Addr: uint64(8 * i), Thread: int32(i % 2), Kind: trace.Read, Size: 8})
		}
		p.Flush()
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

// TestPartialBuffersDoNotStarveProducers is the barrier hazard of handing
// buffers over by pointer: eight producers on one shard whose queue is a
// single buffer each stage one access, meet at a barrier while holding their
// partly filled buffers, and only then flush. A fixed pool that producers
// wait on hangs here (every buffer is held by a goroutine parked at the
// barrier); taking from the free list must never block.
func TestPartialBuffersDoNotStarveProducers(t *testing.T) {
	const producers = 8
	e, err := New(Options{
		Shards: 1, Threads: producers, QueueCapacity: 4,
		NewBackend: PerfectFactory(producers),
	})
	if err != nil {
		t.Fatal(err)
	}
	var staged, done sync.WaitGroup
	staged.Add(producers)
	done.Add(producers)
	for tid := int32(0); tid < producers; tid++ {
		go func(tid int32) {
			defer done.Done()
			p := e.NewProducer(false)
			p.Process(trace.Access{Addr: uint64(tid) * 8, Thread: tid, Kind: trace.Write, Size: 8})
			staged.Done()
			staged.Wait()
			for i := 0; i < 3*e.BatchSize(); i++ {
				p.Process(trace.Access{Addr: uint64(tid) * 8, Thread: tid, Kind: trace.Read, Size: 8})
			}
			p.Flush()
		}(tid)
	}
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("producers holding partly filled buffers starved each other")
	}
	e.Close()
	if got, want := e.Stats().Processed, uint64(producers*(1+3*e.BatchSize())); got != want {
		t.Errorf("analysed %d accesses, want %d", got, want)
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
	e.ProcessStream(stream)
	e.Close()
	runtime.ReadMemStats(&after)
	const accessBytes = 32
	bound := uint64(4 * shards * (capacity + 2*batchLen) * accessBytes)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("ProcessStream of %d accesses allocated %d bytes, want at most %d (buffers are not being reused)",
			accesses, got, bound)
	}
	if got := e.Stats().Processed; got != accesses {
		t.Errorf("analysed %d of %d accesses", got, accesses)
	}
}

// TestProducerAfterCloseIsIgnored pins the failure-path contract the facade's
// deferred Close relies on: a Producer whose Process or Flush follows or
// races Engine.Close neither panics nor blocks, and everything handed over
// before Close is analysed.
func TestProducerAfterCloseIsIgnored(t *testing.T) {
	const producers = 4
	e, err := New(Options{
		Shards: 2, Threads: producers, QueueCapacity: 64,
		NewBackend: PerfectFactory(producers),
	})
	if err != nil {
		t.Fatal(err)
	}
	access := func(tid int32, i int) trace.Access {
		return trace.Access{Addr: uint64(i%512) * 8, Thread: tid, Kind: trace.Read, Size: 8}
	}
	first := e.NewProducer(false)
	for i := 0; i < 1000; i++ {
		first.Process(access(0, i))
	}
	first.Flush()

	// Racing: these producers are mid-stream when Close lands.
	started := make(chan struct{}, producers)
	var wg sync.WaitGroup
	for tid := int32(0); tid < producers; tid++ {
		wg.Add(1)
		go func(tid int32) {
			defer wg.Done()
			p := e.NewProducer(false)
			for i := 0; i < 50_000; i++ {
				if i == 100 {
					started <- struct{}{}
				}
				p.Process(access(tid, i))
			}
			p.Flush()
		}(tid)
	}
	for i := 0; i < producers; i++ {
		<-started
	}
	e.Close()
	wg.Wait()
	analysed := e.Stats().Processed
	if analysed < 1000 {
		t.Errorf("analysed %d accesses, want at least the 1000 flushed before Close", analysed)
	}

	// Following: nothing more is analysed, nothing blocks.
	for i := 0; i < 10*64; i++ {
		first.Process(access(0, i))
	}
	first.Flush()
	e.Close()
	if got := e.Stats().Processed; got != analysed {
		t.Errorf("analysed count moved from %d to %d after Close", analysed, got)
	}
	if _, err := e.Global(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentProducersWithRedundancyCache exercises the per-shard
// redundancy caches under concurrent producers plus live telemetry polling —
// the shape the race detector needs to see. Correctness of the cache's
// single-consumer contract rests on address routing: all accesses to one
// granule funnel through one shard worker regardless of which producer
// enqueued them.
func TestConcurrentProducersWithRedundancyCache(t *testing.T) {
	const producers, perProducer = 8, 4096
	e, err := New(Options{
		Shards: 4, Threads: producers, QueueCapacity: 256,
		RedundancyCacheBits: 8,
		NewBackend:          PerfectFactory(producers),
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(tid int32) {
			defer wg.Done()
			prod := e.NewProducer(false)
			for i := 0; i < perProducer; i++ {
				kind := trace.Read
				if i%7 == 0 {
					kind = trace.Write
				}
				// Half the address space is shared across producers (cache
				// invalidation traffic), half is private (cache hit traffic).
				addr := uint64(8 * (i % 64))
				if i%2 == 0 {
					addr = 0x10000 + uint64(tid)<<12 + uint64(8*(i%64))
				}
				prod.Process(trace.Access{Addr: addr, Thread: tid, Kind: kind, Size: 8})
			}
			prod.Flush()
		}(int32(p))
	}
	stop := make(chan struct{})
	var poll sync.WaitGroup
	poll.Add(1)
	go func() {
		defer poll.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.RedundancyStats()
				e.Stats()
				e.ShardStats()
			}
		}
	}()
	wg.Wait()
	close(stop)
	poll.Wait()
	e.Close()

	st := e.Stats()
	if want := uint64(producers * perProducer); st.Processed != want {
		t.Errorf("Processed = %d, want %d", st.Processed, want)
	}
	rst, ok := e.RedundancyStats()
	if !ok {
		t.Fatal("RedundancyStats reports filter off")
	}
	if rst.Lookups() != st.Processed {
		t.Errorf("cache lookups %d != processed %d", rst.Lookups(), st.Processed)
	}
	if rst.Hits == 0 {
		t.Error("cache recorded no hits on a hit-heavy stream")
	}
}
