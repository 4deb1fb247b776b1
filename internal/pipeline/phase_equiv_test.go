package pipeline

import (
	"math/rand"
	"strings"
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
				for i := 0; i < len(stream); i += 5000 {
					e.ProcessBatch(stream[i:min(i+5000, len(stream))])
					e.Flush()
					e.AdvancePhases()
				}
				e.Close()

				// PhaseWindows fails had a partial surfaced late.
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

				// Live-emission invariants: exactly once, in order, and
				// complete.
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

// TestLateWindowIsAnInvariantError plants a window partial below the
// frontier the engine has already emitted, as only a feed out of time order
// could leave one, in-thread and sharded: Close still completes, and
// PhaseWindows refuses the run instead of merging the partial silently.
func TestLateWindowIsAnInvariantError(t *testing.T) {
	const threads, window = 4, 100
	stream := synthetic(threads, 10, 32) // times 1..1280 across every address
	for _, shards := range []int{0, 2} {
		e, err := New(Options{
			Shards: shards, Threads: threads, PhaseWindow: window,
			NewBackend: PerfectFactory(threads),
		})
		if err != nil {
			t.Fatal(err)
		}
		e.ProcessBatch(stream)
		e.Flush()
		waitFor(t, "every shard to analyse past the first windows", func() bool {
			return e.phaseFrontier() >= 4*window
		})
		if n := e.AdvancePhases(); n == 0 {
			t.Fatalf("K = %d: no window emitted below frontier %d", shards, e.phaseFrontier())
		}
		e.shards[0].windows.Observe(5, -1, 0, 1, 8) // window [0, 100), already emitted
		e.Close()
		if _, err := e.PhaseWindows(); err == nil || !strings.Contains(err.Error(), "not time-ordered") {
			t.Fatalf("K = %d: PhaseWindows after a late partial: err %v, want the invariant error", shards, err)
		}
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
