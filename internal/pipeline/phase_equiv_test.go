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
// randomized (shards, queue capacity, window size) configuration and again
// in-thread (K = 0), the engine's merged window set is bit-identical to the
// serial PhaseSegmenter's — global and per-region sub-matrices alike — and the
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

			for _, shards := range []int{shards, 0} {
				var emitted []uint64
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

				ws, err := e.PhaseWindows()
				if err != nil {
					t.Fatal(err)
				}
				if !ws.Equal(seg.WindowSet()) {
					t.Fatalf("%s: engine window set differs from serial segmenter (shards=%d queue=%d window=%d)",
						name, shards, queue, window)
				}
				enginePhases := metrics.SegmentWindows(ws.Sorted(), window, 0.7)
				if len(enginePhases) != len(serialPhases) {
					t.Fatalf("%s: K=%d: %d engine phases vs %d serial", name, shards, len(enginePhases), len(serialPhases))
				}
				for i := range enginePhases {
					a, b := enginePhases[i], serialPhases[i]
					if a.Start != b.Start || a.End != b.End || a.Windows != b.Windows || !a.Matrix.Equal(b.Matrix) {
						t.Fatalf("%s: K=%d: phase %d differs between engine and serial timelines", name, shards, i)
					}
				}

				// Live-emission invariants: exactly once, in order, none late,
				// and complete.
				if e.phaseLateWindows() > 0 {
					t.Fatalf("%s: K=%d: late windows on a replay feed", name, shards)
				}
				wins := ws.Sorted()
				if len(emitted) != len(wins) {
					t.Fatalf("%s: K=%d: emitted %d windows live, final set holds %d", name, shards, len(emitted), len(wins))
				}
				for i, start := range emitted {
					if start != wins[i].Start {
						t.Fatalf("%s: K=%d: emission %d start %d, want %d", name, shards, i, start, wins[i].Start)
					}
				}
			}
		})
	}
}

// TestPhaseWindowsParallelProducersComplete pins the multi-producer API's
// weaker guarantee: with concurrent producers (arrival order racy, so live windows
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
