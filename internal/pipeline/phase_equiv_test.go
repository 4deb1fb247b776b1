package pipeline

import (
	"math/rand"
	"testing"

	"commprof/internal/comm"
	"commprof/internal/detect"
	"commprof/internal/metrics"
	"commprof/internal/sig"
	"commprof/internal/splash"
)

// TestPhaseIdentityAllWorkloads is the windowed-matrix acceptance test: on
// the deterministic simdev stream of every bundled SPLASH workload, under a
// randomized (shards, queue capacity, window size) configuration, the
// sharded pipeline's merged window set is bit-identical to the serial
// PhaseSegmenter's — global and per-region sub-matrices alike — and the
// segmented phase timelines agree exactly. Exact (perfect-signature)
// partitions isolate the windowed layer: any difference is a bucketing or
// merge bug, not a signature collision.
//
// Live emission is exercised too: windows streamed out by periodic
// AdvancePhases calls must arrive exactly once, in start order, with none
// late (per-shard replay arrival is time-ordered), and together cover the
// full final set.
func TestPhaseIdentityAllWorkloads(t *testing.T) {
	const threads = 16
	rng := rand.New(rand.NewSource(0x9a5e))
	for _, name := range splash.Names() {
		name := name
		shards := 2 + rng.Intn(7)   // 2..8
		queue := 256 << rng.Intn(4) // 256..2048
		window := uint64(1000 + rng.Intn(9000))
		t.Run(name, func(t *testing.T) {
			stream, table := recordStream(t, name, threads)

			seg, err := metrics.NewPhaseSegmenter(threads, window, 0.7)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := detect.New(detect.Options{
				Threads: threads, Backend: sig.NewPerfect(threads), Table: table,
				OnEvent: seg.Observe,
			})
			if err != nil {
				t.Fatal(err)
			}
			serial.ProcessBatch(stream)
			serialPhases := seg.Finish()

			var emitted []uint64
			var late bool
			e, err := New(Options{
				Shards: shards, Threads: threads, Table: table,
				QueueCapacity: queue,
				PhaseWindow:   window,
				NewBackend:    PerfectFactory(threads),
				OnWindowClose: func(w *comm.Window, end uint64) {
					emitted = append(emitted, w.Start)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			// Feed in chunks with interleaved advances so the live path (not
			// just the final flush) carries most of the windows.
			p := e.NewProducer(false)
			for i, a := range stream {
				p.Process(a)
				if i%5000 == 4999 {
					p.Flush()
					e.AdvancePhases()
				}
			}
			p.Flush()
			e.Close()
			if e.PhaseLateWindows() > 0 {
				late = true
			}

			ws, err := e.PhaseWindows()
			if err != nil {
				t.Fatal(err)
			}
			if !ws.Equal(seg.WindowSet()) {
				t.Fatalf("%s: sharded window set differs from serial segmenter (shards=%d queue=%d window=%d)",
					name, shards, queue, window)
			}
			shardedPhases := metrics.SegmentWindows(ws.Sorted(), window, 0.7)
			if len(shardedPhases) != len(serialPhases) {
				t.Fatalf("%s: %d sharded phases vs %d serial", name, len(shardedPhases), len(serialPhases))
			}
			for i := range shardedPhases {
				a, b := shardedPhases[i], serialPhases[i]
				if a.Start != b.Start || a.End != b.End || a.Windows != b.Windows || !a.Matrix.Equal(b.Matrix) {
					t.Fatalf("%s: phase %d differs between sharded and serial timelines", name, i)
				}
			}

			// Live-emission invariants: exactly once, in order, none late,
			// and complete.
			if late {
				t.Fatalf("%s: late windows on a replay feed", name)
			}
			wins := ws.Sorted()
			if len(emitted) != len(wins) {
				t.Fatalf("%s: emitted %d windows live, final set holds %d", name, len(emitted), len(wins))
			}
			for i, start := range emitted {
				if start != wins[i].Start {
					t.Fatalf("%s: emission %d start %d, want %d", name, i, start, wins[i].Start)
				}
			}
		})
	}
}

// TestPhaseWindowsParallelProducersComplete pins the weaker parallel-mode
// guarantee: with concurrent producers (arrival order racy, so live windows
// may close early and partials may surface late), the final merged window
// set still accounts for every detected byte — late partials are merged,
// never dropped.
func TestPhaseWindowsParallelProducersComplete(t *testing.T) {
	const threads, shards, window = 8, 4, 2000
	stream, table := recordStream(t, "fft", threads)

	e, err := New(Options{
		Shards: shards, Threads: threads, Table: table,
		PhaseWindow: window,
		NewBackend:  PerfectFactory(threads),
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{}, threads)
	for tid := 0; tid < threads; tid++ {
		tid := tid
		go func() {
			p := e.NewProducer(false)
			for _, a := range stream {
				if int(a.Thread) == tid {
					p.Process(a)
				}
			}
			p.Flush()
			done <- struct{}{}
		}()
	}
	for i := 0; i < threads; i++ {
		<-done
	}
	e.Close()

	ws, err := e.PhaseWindows()
	if err != nil {
		t.Fatal(err)
	}
	var windowed uint64
	for _, w := range ws.Sorted() {
		windowed += w.Global.Total()
	}
	if got := e.Stats().CommBytes; windowed != got {
		t.Fatalf("windowed bytes %d != detected bytes %d", windowed, got)
	}
}

// TestPhaseAccessorsGateCorrectly pins the API edges: PhaseWindows errors
// before Close and on a phase-less engine; AdvancePhases is a no-op without
// PhaseWindow.
func TestPhaseAccessorsGateCorrectly(t *testing.T) {
	off, err := New(Options{Shards: 2, Threads: 4, NewBackend: PerfectFactory(4)})
	if err != nil {
		t.Fatal(err)
	}
	if n := off.AdvancePhases(); n != 0 {
		t.Fatalf("AdvancePhases on a phase-less engine emitted %d", n)
	}
	if _, err := off.PhaseWindows(); err == nil {
		t.Fatal("PhaseWindows without PhaseWindow must error")
	}
	off.Close()

	on, err := New(Options{Shards: 2, Threads: 4, PhaseWindow: 100, NewBackend: PerfectFactory(4)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := on.PhaseWindows(); err == nil {
		t.Fatal("PhaseWindows before Close must error")
	}
	on.Close()
	if _, err := on.PhaseWindows(); err != nil {
		t.Fatal(err)
	}
}
