package commprof

import (
	"bytes"
	"strings"
	"testing"
)

// checkTimeline asserts the structural invariants every phase-enabled run
// must satisfy: a timeline present, windows in increasing start order with
// the configured length and classified with in-range confidence, windowed
// volume accounting for every detected byte, and a non-empty §V-A4 phase
// list covering the same span.
func checkTimeline(t *testing.T, rep *Report, window uint64) {
	t.Helper()
	tl := rep.PhaseTimeline
	if tl == nil {
		t.Fatal("no PhaseTimeline on a PhaseWindow run")
	}
	if tl.WindowSize != window {
		t.Fatalf("timeline window size %d, want %d", tl.WindowSize, window)
	}
	if len(tl.Windows) == 0 {
		t.Fatal("timeline has no windows")
	}
	var windowed uint64
	var prev uint64
	for i, w := range tl.Windows {
		if w.End != w.Start+window {
			t.Fatalf("window %d spans [%d,%d), want length %d", i, w.Start, w.End, window)
		}
		if i > 0 && w.Start <= prev {
			t.Fatalf("window %d start %d not after %d", i, w.Start, prev)
		}
		prev = w.Start
		if w.Class == "" || w.Class == "unknown" {
			t.Fatalf("window %d unclassified: %q", i, w.Class)
		}
		if w.Confidence <= 0 || w.Confidence > 1 {
			t.Fatalf("window %d confidence %v", i, w.Confidence)
		}
		windowed += w.Bytes
	}
	if windowed != rep.CommBytes {
		t.Fatalf("windowed bytes %d != detected bytes %d", windowed, rep.CommBytes)
	}
	if len(rep.Phases) == 0 {
		t.Fatal("no §V-A4 phases on a PhaseWindow run")
	}
	var phased uint64
	for _, p := range rep.Phases {
		phased += p.Matrix.Total()
	}
	if phased != rep.CommBytes {
		t.Fatalf("phase bytes %d != detected bytes %d", phased, rep.CommBytes)
	}
}

// TestProfilePhaseWindowComposesWithShards is the regression test for the
// former hard error: -phases and -shards now compose, and the sharded run
// carries the full phase sections.
func TestProfilePhaseWindowComposesWithShards(t *testing.T) {
	rep, err := Profile(Options{Workload: "radix", Threads: 8, AnalysisShards: 2, PhaseWindow: 5000})
	if err != nil {
		t.Fatal(err)
	}
	checkTimeline(t, rep, 5000)
	if !strings.Contains(rep.Summary(), "pattern timeline") {
		t.Fatal("Summary does not render the pattern timeline")
	}
}

// TestReplayPhaseWindowShardedMatchesStructure pins Replay: a recorded trace
// replayed through the sharded pipeline with PhaseWindow yields the phase
// sections, live surfaces included, and a second replay is bit-identical
// (single-producer replay is deterministic per shard).
func TestReplayPhaseWindowSharded(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(Options{Workload: "fft", Threads: 8}, &buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	const window = 3000

	run := func() *Report {
		tel := NewTelemetry()
		defer tel.Close()
		rep, err := Replay(bytes.NewReader(raw), 8, Options{
			AnalysisShards: 2, PhaseWindow: window, Telemetry: tel,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The live surfaces must agree with the final timeline.
		snap := tel.Progress()
		if snap.PhaseWindowsClosed != uint64(len(rep.PhaseTimeline.Windows)) {
			t.Fatalf("progress reports %d windows closed, timeline holds %d",
				snap.PhaseWindowsClosed, len(rep.PhaseTimeline.Windows))
		}
		if snap.CurrentPattern == "" {
			t.Fatal("no live current pattern after a phase run")
		}
		if last := rep.PhaseTimeline.Windows[len(rep.PhaseTimeline.Windows)-1]; snap.CurrentPattern != last.Class {
			t.Fatalf("live pattern %q, final window class %q", snap.CurrentPattern, last.Class)
		}
		return rep
	}
	a, b := run(), run()
	checkTimeline(t, a, window)
	if len(a.PhaseTimeline.Windows) != len(b.PhaseTimeline.Windows) {
		t.Fatal("replay timeline not reproducible")
	}
	for i := range a.PhaseTimeline.Windows {
		if a.PhaseTimeline.Windows[i] != b.PhaseTimeline.Windows[i] {
			t.Fatalf("replay window %d differs between runs", i)
		}
	}
}

// TestReplayPhaseWindowSerialSharded runs the same trace through the serial
// and sharded replay analysers and checks both produce their phase sections;
// bit-identity of the window layer under exact signatures is pinned at the
// pipeline level (TestPhaseIdentityAllWorkloads).
func TestReplayPhaseWindowSerial(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(Options{Workload: "lu_cb", Threads: 8}, &buf); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(bytes.NewReader(buf.Bytes()), 8, Options{PhaseWindow: 2500})
	if err != nil {
		t.Fatal(err)
	}
	checkTimeline(t, rep, 2500)
}

// TestProfileTraceParallelPhaseWindow pins the third entry point the old
// error could reach: a user trace analysed by the sharded pipeline with
// windowed phases, loop digest included.
func TestProfileTraceParallelPhaseWindow(t *testing.T) {
	regions := []Region{
		{Name: "main", Parent: -1},
		{Name: "main#loop", Parent: 0, Loop: true},
	}
	var accesses []Access
	var now uint64
	// A pipeline-shaped exchange inside the loop region: thread i writes a
	// block, thread i+1 reads it, repeatedly.
	for round := 0; round < 200; round++ {
		for tid := int32(0); tid < 4; tid++ {
			addr := uint64(tid) * 64
			now++
			accesses = append(accesses, Access{Kind: WriteAccess, Addr: addr, Size: 8, Thread: tid, Region: 1, Time: now})
			now++
			accesses = append(accesses, Access{Kind: ReadAccess, Addr: addr, Size: 8, Thread: (tid + 1) % 4, Region: 1, Time: now})
		}
	}
	rep, err := ProfileTrace(accesses, regions, 4, Options{AnalysisShards: 2, PhaseWindow: 100})
	if err != nil {
		t.Fatal(err)
	}
	checkTimeline(t, rep, 100)
	if len(rep.PhaseTimeline.Loops) == 0 {
		t.Fatal("no loop digest despite all communication inside a loop region")
	}
	if rep.PhaseTimeline.Loops[0].Region != "main#loop" {
		t.Fatalf("loop digest names %q, want main#loop", rep.PhaseTimeline.Loops[0].Region)
	}

	// The serial trace analyser gets the same sections.
	srep, err := ProfileTrace(accesses, regions, 4, Options{PhaseWindow: 100})
	if err != nil {
		t.Fatal(err)
	}
	checkTimeline(t, srep, 100)
}
