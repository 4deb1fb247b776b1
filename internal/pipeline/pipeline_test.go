package pipeline

import (
	"fmt"
	"sync"
	"testing"

	"commprof/internal/comm"
	"commprof/internal/detect"
	"commprof/internal/obs"
	"commprof/internal/sig"
	"commprof/internal/trace"
)

// Global returns the merged whole-program communication matrix, the tests'
// view of what Tree sums; it errors until Close has drained the pipeline.
func (e *Engine) Global() (*comm.Matrix, error) {
	if !e.closed.Load() {
		return nil, fmt.Errorf("pipeline: Global before Close")
	}
	e.merge()
	return e.global, nil
}

// synthetic builds a deterministic stream with heavy inter-thread RAW
// traffic: each round one writer stores a block of addresses and every other
// thread reads it back.
func synthetic(threads, rounds, addrs int) []trace.Access {
	var out []trace.Access
	var now uint64
	for r := 0; r < rounds; r++ {
		w := int32(r % threads)
		for a := 0; a < addrs; a++ {
			now++
			out = append(out, trace.Access{
				Time: now, Addr: uint64(a) * 8, Size: 8, Thread: w, Kind: trace.Write,
			})
		}
		for t := int32(0); t < int32(threads); t++ {
			if t == w {
				continue
			}
			for a := 0; a < addrs; a++ {
				now++
				out = append(out, trace.Access{
					Time: now, Addr: uint64(a) * 8, Size: 8, Thread: t, Kind: trace.Read,
				})
			}
		}
	}
	return out
}

func serialDetector(t *testing.T, threads int, table *trace.Table) *detect.Detector {
	t.Helper()
	d, err := detect.New(detect.Options{Threads: threads, Backend: sig.NewPerfect(threads), Table: table})
	if err != nil {
		t.Fatalf("detect.New: %v", err)
	}
	return d
}

func TestShardedMatchesSerialOnSyntheticStream(t *testing.T) {
	const threads = 8
	stream := synthetic(threads, 20, 64)

	ref := serialDetector(t, threads, nil)
	ref.ProcessBatch(stream)

	for _, shards := range []int{1, 2, 3, 4, 8} {
		e, err := New(Options{
			Shards: shards, Threads: threads,
			NewBackend: PerfectFactory(threads),
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		e.ProcessStream(stream)
		e.Close()
		g, err := e.Global()
		if err != nil {
			t.Fatalf("shards=%d Global: %v", shards, err)
		}
		if !g.Equal(ref.Global()) {
			t.Errorf("shards=%d: merged global matrix differs from serial detector", shards)
		}
		st := e.Stats()
		if st.Processed != uint64(len(stream)) {
			t.Errorf("shards=%d: processed %d of %d accesses", shards, st.Processed, len(stream))
		}
	}
}

func TestShardedTreeMatchesSerial(t *testing.T) {
	const threads = 4
	table := trace.NewTable()
	fn := table.AddFunc("main", trace.NoRegion)
	loop := table.AddLoop("main#0", fn)

	stream := synthetic(threads, 10, 32)
	for i := range stream {
		if i%2 == 0 {
			stream[i].Region = loop
		} else {
			stream[i].Region = fn
		}
	}

	ref := serialDetector(t, threads, table)
	ref.ProcessBatch(stream)
	refTree, err := ref.Tree()
	if err != nil {
		t.Fatalf("serial Tree: %v", err)
	}

	e, err := New(Options{Shards: 4, Threads: threads, Table: table, NewBackend: PerfectFactory(threads)})
	if err != nil {
		t.Fatal(err)
	}
	e.ProcessStream(stream)
	e.Close()
	tree, err := e.Tree()
	if err != nil {
		t.Fatalf("sharded Tree: %v", err)
	}
	if err := tree.CheckSummationLaw(); err != nil {
		t.Errorf("merged tree: %v", err)
	}
	if !tree.Global.Equal(refTree.Global) {
		t.Error("merged tree global differs from serial")
	}
	refNodes, nodes := regionNodes(refTree), regionNodes(tree)
	for id := int32(0); int(id) < table.Len(); id++ {
		n1, n2 := refNodes[id], nodes[id]
		if !n1.Own.Equal(n2.Own) {
			t.Errorf("region %d own matrix differs", id)
		}
		if !n1.Cumulative.Equal(n2.Cumulative) {
			t.Errorf("region %d cumulative matrix differs", id)
		}
		if n1.Accesses != n2.Accesses {
			t.Errorf("region %d accesses: serial %d, sharded %d", id, n1.Accesses, n2.Accesses)
		}
	}
}

func TestConcurrentProducers(t *testing.T) {
	const threads = 8
	e, err := New(Options{
		Shards: 4, Threads: threads, QueueCapacity: 64,
		NewBackend: PerfectFactory(threads),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Per-thread address ranges plus one shared block; every producer
	// goroutine plays one target thread through its own producer.
	var wg sync.WaitGroup
	const perThread = 2000
	for tid := int32(0); tid < threads; tid++ {
		wg.Add(1)
		go func(tid int32) {
			defer wg.Done()
			p := e.NewProducer(false)
			for i := 0; i < perThread; i++ {
				addr := uint64(tid)<<20 | uint64(i%128)
				k := trace.Write
				if i%3 != 0 {
					k = trace.Read
				}
				p.Process(trace.Access{Time: uint64(i), Addr: addr, Size: 4, Thread: tid, Kind: k})
			}
			p.Flush()
		}(tid)
	}
	wg.Wait()
	e.Close()
	if st := e.Stats(); st.Processed != threads*perThread {
		t.Errorf("processed %d of %d accesses", st.Processed, threads*perThread)
	}
	if _, err := e.Global(); err != nil {
		t.Fatalf("Global: %v", err)
	}
}

func TestBoundedQueuePeakNeverExceedsCapacity(t *testing.T) {
	const threads, capacity = 4, 32
	e, err := New(Options{
		Shards: 2, Threads: threads, QueueCapacity: capacity,
		NewBackend: func(int) (sig.Backend, error) {
			return &slowBackend{inner: sig.NewPerfect(threads), spin: 50}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.ProcessStream(synthetic(threads, 30, 64))
	e.Close()
	for i, st := range e.ShardStats() {
		if st.PeakDepth > capacity {
			t.Errorf("shard %d peak depth %d exceeds capacity %d", i, st.PeakDepth, capacity)
		}
		if st.Depth != 0 {
			t.Errorf("shard %d depth %d after Close", i, st.Depth)
		}
	}
}

func TestProbesCountEnqueues(t *testing.T) {
	const threads = 4
	reg := obs.NewRegistry()
	probes := obs.Probes{Pipeline: obs.DefaultProbes(reg).Pipeline}
	stream := synthetic(threads, 10, 32)
	e, err := New(Options{
		Shards: 2, Threads: threads, QueueCapacity: 16,
		NewBackend: PerfectFactory(threads),
		Probes:     probes,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.ProcessStream(stream)
	e.Close()
	snap := reg.Snapshot()
	if got := snap.Counters["pipeline_enqueued_total"]; got != uint64(len(stream)) {
		t.Errorf("pipeline_enqueued_total = %d, want %d", got, len(stream))
	}
	if bs := snap.Histograms["pipeline_batch_size"]; bs.Count == 0 {
		t.Error("pipeline_batch_size histogram is empty")
	}
}

func TestOptionValidation(t *testing.T) {
	ok := func(o Options) Options {
		o.Threads = 4
		o.NewBackend = PerfectFactory(4)
		return o
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"no backend", Options{Threads: 4}},
		{"no threads", Options{NewBackend: PerfectFactory(4)}},
		{"negative shards", ok(Options{Shards: -1})},
		{"negative capacity", ok(Options{QueueCapacity: -5})},
	}
	for _, c := range cases {
		if _, err := New(c.opts); err == nil {
			t.Errorf("%s: New accepted invalid options", c.name)
		}
	}
}

func TestResultsUnavailableBeforeClose(t *testing.T) {
	e, err := New(Options{Shards: 2, Threads: 2, NewBackend: PerfectFactory(2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Global(); err == nil {
		t.Error("Global before Close should error")
	}
	if _, err := e.Tree(); err == nil {
		t.Error("Tree before Close should error")
	}
	e.Close()
	if _, err := e.Tree(); err == nil {
		t.Error("Tree without a region table should error")
	}
}

// slowBackend wraps a backend with artificial per-operation work so tests can
// saturate shard queues deterministically on any machine.
type slowBackend struct {
	inner sig.Backend
	spin  int
}

func (s *slowBackend) ObserveRead(addr uint64, tid int32) (int32, bool) {
	s.burn()
	return s.inner.ObserveRead(addr, tid)
}

func (s *slowBackend) ObserveWrite(addr uint64, tid int32) {
	s.burn()
	s.inner.ObserveWrite(addr, tid)
}

func (s *slowBackend) burn() {
	x := uint64(1)
	for i := 0; i < s.spin; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	if x == 0 {
		panic("unreachable")
	}
}

func (s *slowBackend) FootprintBytes() uint64 { return s.inner.FootprintBytes() }
