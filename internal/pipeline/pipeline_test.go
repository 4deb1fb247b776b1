package pipeline

import (
	"fmt"
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
		e.ProcessBatch(stream)
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
	e.ProcessBatch(stream)
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

// TestProcessBatchThenCloseMatchesSerial pins the facade's feed: batches
// through ProcessBatch and then Close, with no Flush of the caller's own,
// leave nothing staged behind and match the serial detector bit for bit.
func TestProcessBatchThenCloseMatchesSerial(t *testing.T) {
	const threads = 4
	stream := synthetic(threads, 12, 100) // no multiple of the 256-access batch
	ref := serialDetector(t, threads, nil)
	ref.ProcessBatch(stream)
	for _, shards := range []int{1, 3} {
		e, err := New(Options{Shards: shards, Threads: threads, NewBackend: PerfectFactory(threads)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(stream); i += 1000 {
			e.ProcessBatch(stream[i:min(i+1000, len(stream))])
		}
		e.Close()
		g, err := e.Global()
		if err != nil {
			t.Fatal(err)
		}
		if !g.Equal(ref.Global()) {
			t.Errorf("K = %d: global matrix differs from the serial detector's", shards)
		}
		if got, want := e.Stats(), ref.Stats(); got.Processed != want.Processed || got.Detected != want.Detected || got.CommBytes != want.CommBytes {
			t.Errorf("K = %d: Stats %+v, serial detector %+v", shards, got, want)
		}
	}
}

// TestEngineIsItsOwnProducer pins the one producer: NewProducer, kept for
// bench/, hands back the engine itself at every K.
func TestEngineIsItsOwnProducer(t *testing.T) {
	for _, shards := range []int{0, 2} {
		e, err := New(Options{Shards: shards, Threads: 2, NewBackend: PerfectFactory(2)})
		if err != nil {
			t.Fatal(err)
		}
		if e.NewProducer(false) != e {
			t.Errorf("K = %d: NewProducer(false) is not the engine", shards)
		}
		e.Close()
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
	e.ProcessBatch(synthetic(threads, 30, 64))
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
	e.ProcessBatch(stream)
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
