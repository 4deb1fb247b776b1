package pipeline

import (
	"testing"

	"commprof/internal/accuracy"
	"commprof/internal/detect"
	"commprof/internal/metrics"
	"commprof/internal/sig"
	"commprof/internal/splash"
)

// TestInThreadMatchesBareDetector is the assertion that holds only at K = 0:
// on the approximate asymmetric backend — where any K > 0 partitions the slot
// budget and so lands on different collisions — the in-thread engine is
// bit-identical to a bare detect.Detector with the same slots, because it is
// that detector: same signature, same arrival order, no queue in between.
// Every bundled workload, every result surface: tree, Stats, redundancy
// stats, accuracy stats, window set. A small signature keeps collisions (and
// with them false positives and stale attributions) frequent, so "identical"
// is not vacuous.
func TestInThreadMatchesBareDetector(t *testing.T) {
	const (
		threads   = 16
		slots     = 1 << 12
		cacheBits = 10
		window    = 4000
	)
	accOpts := accuracy.Options{Threads: threads, SampleBits: 2, TargetFPR: 0.05}
	for _, name := range splash.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			stream, table := recordStream(t, name, threads)

			backend, err := sig.NewAsymmetric(sig.Options{Slots: slots, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			mon, err := accuracy.New(accOpts)
			if err != nil {
				t.Fatal(err)
			}
			seg, err := metrics.NewPhaseSegmenter(threads, window, 0.7)
			if err != nil {
				t.Fatal(err)
			}
			bare, err := detect.New(detect.Options{
				Threads: threads, Backend: backend, Table: table,
				RedundancyCacheBits: cacheBits, Accuracy: mon, OnEvent: seg.Observe,
			})
			if err != nil {
				t.Fatal(err)
			}
			bare.ProcessBatch(stream)
			seg.Flush(nil)
			wantTree, err := bare.Tree()
			if err != nil {
				t.Fatal(err)
			}

			e, err := New(Options{
				Threads: threads, Table: table,
				RedundancyCacheBits: cacheBits, Accuracy: &accOpts, PhaseWindow: window,
				NewBackend: AsymmetricFactory(slots, 0, threads, 0.001, nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			// Half access by access, half as one batch: the two in-thread
			// feeds are the same detector.
			half := len(stream) / 2
			for i := range stream[:half] {
				e.ProcessBatch(stream[i : i+1])
			}
			e.ProcessBatch(stream[half:])
			e.Close()

			gotTree, err := e.Tree()
			if err != nil {
				t.Fatal(err)
			}
			if !gotTree.Global.Equal(wantTree.Global) {
				t.Fatal("global matrix differs from the bare detector's")
			}
			if n := treeMismatches(wantTree, gotTree); n > 0 {
				t.Fatalf("%d region nodes differ from the bare detector's tree", n)
			}
			bs, es := bare.Stats(), e.Stats()
			if es.Processed != bs.Processed || es.Detected != bs.Detected || es.CommBytes != bs.CommBytes {
				t.Fatalf("Stats %+v, bare detector %+v", es, bs)
			}
			if bs.Detected == 0 {
				t.Fatal("no dependencies detected; the comparison is vacuous")
			}
			wantRed, _ := bare.RedundancyStats()
			if gotRed, ok := e.RedundancyStats(); !ok || gotRed != wantRed {
				t.Fatalf("redundancy stats %+v (on=%v), bare detector %+v", gotRed, ok, wantRed)
			}
			if gotAcc, ok := e.AccuracyStats(); !ok || gotAcc != mon.Stats() {
				t.Fatalf("accuracy stats %+v (on=%v), bare monitor %+v", gotAcc, ok, mon.Stats())
			}
			bareEst := accuracy.EstimateFrom(mon.Stats(), accOpts.SampleBits, accOpts.TargetFPR)
			if est, _ := e.AccuracyEstimate(); est != bareEst {
				t.Fatalf("accuracy estimate %+v, bare monitor %+v", est, bareEst)
			}
			ws, err := e.PhaseWindows()
			if err != nil {
				t.Fatal(err)
			}
			if !ws.Equal(seg.WindowSet()) {
				t.Fatal("window set differs from the bare detector's segmenter")
			}
			if got, want := e.SigFootprintBytes(), backend.FootprintBytes(); got != want {
				t.Fatalf("signature footprint %d, bare detector's %d", got, want)
			}
		})
	}
}

// TestInThreadAllocatesNoQueue pins what K = 0 does not build: no queue, no
// worker, no staging buffers — and therefore a zero resident-access peak and
// zero flushes however much it analyses.
func TestInThreadAllocatesNoQueue(t *testing.T) {
	e, err := New(Options{Threads: 4, QueueCapacity: 1 << 20, NewBackend: PerfectFactory(4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.shards) != 1 || e.shards[0].full != nil || e.shards[0].free != nil || e.pending != nil {
		t.Fatalf("K = 0 engine has %d shards, queue %v, free list %v, staging %v",
			len(e.shards), e.shards[0].full, e.shards[0].free, e.pending)
	}
	if e.Shards() != 0 {
		t.Fatalf("Shards() = %d on the in-thread engine, want 0", e.Shards())
	}
	stream := synthetic(4, 4, 16)
	e.ProcessBatch(stream)
	e.Close()
	if e.PeakResidentAccesses() != 0 || e.ProducerFlushes() != 0 {
		t.Fatalf("in-thread engine reports %d resident accesses, %d flushes", e.PeakResidentAccesses(), e.ProducerFlushes())
	}
	if st := e.ShardStats(); len(st) != 1 || st[0].Processed != uint64(len(stream)) || st[0].PeakDepth != 0 {
		t.Fatalf("ShardStats = %+v", st)
	}
}
