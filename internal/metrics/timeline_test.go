package metrics

import (
	"math/rand"
	"testing"

	"commprof/internal/comm"
	"commprof/internal/detect"
	"commprof/internal/patterns"
)

func timelineKNN(t *testing.T) *patterns.KNN {
	t.Helper()
	rng := rand.New(rand.NewSource(0x7e57))
	knn, err := patterns.NewKNN(5, patterns.Corpus(40, []int{8, 16}, 0, rng))
	if err != nil {
		t.Fatal(err)
	}
	return knn
}

// windowSetFromPatterns builds a window set whose windows carry generated
// pattern matrices: wins[i] uses class classes[i], with region regions[i]
// (negative = global only).
func windowSetFromPatterns(t *testing.T, threads int, size uint64, classes []patterns.Class, regions []int32) *comm.WindowSet {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	ws, err := comm.NewWindowSet(threads, size)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range classes {
		m := patterns.Generate(c, threads, rng)
		start := uint64(i) * size
		for s := 0; s < threads; s++ {
			for d := 0; d < threads; d++ {
				if v := m.At(s, d); v > 0 {
					ws.Observe(start, regions[i], int32(s), int32(d), v)
				}
			}
		}
	}
	return ws
}

func TestBuildTimeline(t *testing.T) {
	knn := timelineKNN(t)
	const threads, size = 16, 100
	classes := []patterns.Class{
		patterns.Pipeline, patterns.Pipeline,
		patterns.MasterWorker, patterns.MasterWorker,
	}
	regions := []int32{3, 3, 7, -1}
	ws := windowSetFromPatterns(t, threads, size, classes, regions)

	isLoop := func(r int32) bool { return r == 3 || r == 7 }
	tl := BuildTimeline(ws, knn, isLoop, 10)
	if tl.WindowSize != size {
		t.Fatalf("WindowSize %d, want %d", tl.WindowSize, size)
	}
	if len(tl.Windows) != 4 {
		t.Fatalf("%d timeline windows, want 4", len(tl.Windows))
	}
	for i, w := range tl.Windows {
		if w.Start != uint64(i)*size || w.End != uint64(i+1)*size {
			t.Fatalf("window %d bounds [%d,%d)", i, w.Start, w.End)
		}
		if w.Confidence <= 0 || w.Confidence > 1 {
			t.Fatalf("window %d confidence %v", i, w.Confidence)
		}
		if w.Bytes == 0 {
			t.Fatalf("window %d has no volume", i)
		}
	}
	// The corpora are cleanly separable, so the forced pattern change at
	// window 2 must produce a transition at its start.
	if len(tl.Transitions) == 0 {
		t.Fatal("no transitions across a forced pattern change")
	}
	found := false
	for _, tr := range tl.Transitions {
		if tr.At == 2*size && tr.From != tr.To {
			found = true
		}
	}
	if !found {
		t.Fatalf("no transition at t=%d: %+v", 2*size, tl.Transitions)
	}
	if len(tl.Loops) != 2 {
		t.Fatalf("%d loop digests, want 2", len(tl.Loops))
	}
	// Region 3 appeared in two windows, region 7 in one.
	byRegion := map[int32]LoopTimeline{}
	for _, l := range tl.Loops {
		byRegion[l.Region] = l
	}
	if byRegion[3].Windows != 2 || byRegion[7].Windows != 1 {
		t.Fatalf("loop window counts %+v", byRegion)
	}
	if tl.Loops[0].Bytes < tl.Loops[1].Bytes {
		t.Fatal("loops not sorted by bytes desc")
	}

	// Determinism: a second build is identical.
	tl2 := BuildTimeline(ws, knn, isLoop, 10)
	if len(tl2.Windows) != len(tl.Windows) || len(tl2.Transitions) != len(tl.Transitions) {
		t.Fatal("BuildTimeline is not deterministic")
	}
	for i := range tl.Windows {
		if tl.Windows[i] != tl2.Windows[i] {
			t.Fatalf("window %d differs between builds", i)
		}
	}
}

func TestLivePhasesSnapshot(t *testing.T) {
	knn := timelineKNN(t)
	const threads, size = 16, 100
	classes := []patterns.Class{patterns.Pipeline, patterns.Pipeline, patterns.MasterWorker}
	regions := []int32{3, 7, 3}
	ws := windowSetFromPatterns(t, threads, size, classes, regions)

	lp := NewLivePhases(knn, func(r int32) bool { return r == 3 || r == 7 }, 2, nil)
	for _, w := range ws.Sorted() {
		lp.ObserveWindow(w, w.Start+size)
	}

	snap := lp.Snapshot(10)
	if snap.WindowsClosed != 3 {
		t.Fatalf("WindowsClosed %d, want 3", snap.WindowsClosed)
	}
	if snap.Transitions == 0 {
		t.Fatal("no live transitions across a forced pattern change")
	}
	if !snap.HasCurrent || snap.Current.Start != 2*size {
		t.Fatalf("snapshot current %+v", snap.Current)
	}
	if len(snap.Recent) != 2 {
		t.Fatalf("recent ring kept %d, want 2", len(snap.Recent))
	}
	if len(snap.Loops) != 2 {
		t.Fatalf("%d live loops, want 2", len(snap.Loops))
	}
	if snap.Loops[0].Bytes < snap.Loops[1].Bytes {
		t.Fatal("live loops not sorted by bytes desc")
	}
	var counts uint64
	for _, n := range lp.ClassCounts() {
		counts += n
	}
	if counts != 3 {
		t.Fatalf("class counts sum %d, want 3", counts)
	}
	if got := lp.Snapshot(1); len(got.Loops) != 1 {
		t.Fatalf("maxLoops=1 returned %d loops", len(got.Loops))
	}
}

// TestLivePhasesStream drives the live layer over generated windows with a
// forced class change and checks current/recent/transition tracking (it was
// patterns.TestOnlineStream, of the streaming classifier LivePhases absorbed).
func TestLivePhasesStream(t *testing.T) {
	knn := timelineKNN(t)
	rng := rand.New(rand.NewSource(4))
	lp := NewLivePhases(knn, nil, 3, nil)

	// Phase 1: three pipeline windows; phase 2: three master-worker windows.
	var lastClass patterns.Class
	for i := 0; i < 6; i++ {
		gen := patterns.Pipeline
		if i >= 3 {
			gen = patterns.MasterWorker
		}
		m := patterns.Generate(gen, 16, rng)
		start := uint64(i) * 100
		transitions := lp.Snapshot(0).Transitions
		lp.ObserveWindow(&comm.Window{Start: start, Global: m}, start+100)
		wc, ok := lp.Current()
		if !ok || wc.Start != start || wc.End != start+100 {
			t.Fatalf("window %d: Current() = %+v, %v", i, wc, ok)
		}
		if wc.Bytes != m.Total() {
			t.Fatalf("window %d bytes %d, want %d", i, wc.Bytes, m.Total())
		}
		transition := lp.Snapshot(0).Transitions > transitions
		if i == 0 && transition {
			t.Fatal("first window must not be a transition")
		}
		if i > 0 && transition != (wc.Class != lastClass) {
			t.Fatalf("window %d transition=%v with class %v after %v", i, transition, wc.Class, lastClass)
		}
		lastClass = wc.Class
	}

	snap := lp.Snapshot(0)
	if !snap.HasCurrent || snap.Current.Start != 500 {
		t.Fatalf("snapshot current = %+v, %v; want last window", snap.Current, snap.HasCurrent)
	}
	if len(snap.Recent) != 3 || snap.Recent[0].Start != 300 || snap.Recent[2].Start != 500 {
		t.Fatalf("recent ring %+v, want windows 300..500", snap.Recent)
	}
	if snap.WindowsClosed != 6 {
		t.Fatalf("WindowsClosed = %d, want 6", snap.WindowsClosed)
	}
	var total uint64
	for _, n := range lp.ClassCounts() {
		total += n
	}
	if total != 6 {
		t.Fatalf("class counts sum to %d, want 6", total)
	}
	// The generated corpora are cleanly separable, so the forced class change
	// at window 3 must register at least one transition.
	if snap.Transitions == 0 {
		t.Fatal("no transitions observed across a forced pattern change")
	}
}

// TestLivePhasesEmptyWindow pins that an all-zero window classifies without
// panicking and still counts (it was patterns.TestOnlineEmptyWindow).
func TestLivePhasesEmptyWindow(t *testing.T) {
	lp := NewLivePhases(timelineKNN(t), nil, 0, nil)
	lp.ObserveWindow(&comm.Window{Start: 0, Global: comm.NewMatrix(8)}, 100)
	if wc, ok := lp.Current(); !ok || wc.Bytes != 0 {
		t.Fatalf("empty window: Current() = %+v, %v", wc, ok)
	}
	if snap := lp.Snapshot(0); snap.WindowsClosed != 1 || len(snap.Recent) != 0 {
		t.Fatalf("WindowsClosed = %d, want 1; keep=0 retained %d windows", snap.WindowsClosed, len(snap.Recent))
	}
}

// TestSegmenterStreamingMatchesFinish pins that advancing the segmenter's
// closer periodically to the newest event (the live path) emits exactly the
// windows Finish would aggregate, in order, and that Finish still returns the
// same phases as a never-advanced twin.
func TestSegmenterStreamingMatchesFinish(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	mk := func() *PhaseSegmenter {
		p, err := NewPhaseSegmenter(8, 50, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	streamed, plain := mk(), mk()
	var emitted []uint64
	onClose := func(w *comm.Window, end uint64) { emitted = append(emitted, w.Start) }
	for i := 0; i < 1000; i++ {
		ev := detect.Event{
			Time:   uint64(i),
			Writer: int32(rng.Intn(8)),
			Reader: int32(rng.Intn(8)),
			Bytes:  uint32(1 + rng.Intn(8)),
			Region: int32(rng.Intn(4)) - 1,
		}
		streamed.Observe(ev)
		plain.Observe(ev)
		if i%97 == 0 {
			streamed.closer.Advance(ev.Time, []*comm.WindowSet{streamed.live}, onClose)
		}
	}
	streamed.Flush(onClose)

	a, b := streamed.Finish(), plain.Finish()
	if !streamed.WindowSet().Equal(plain.WindowSet()) {
		t.Fatal("streamed and plain window sets differ")
	}
	if len(a) != len(b) {
		t.Fatalf("streamed %d phases, plain %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].End != b[i].End || a[i].Windows != b[i].Windows || !a[i].Matrix.Equal(b[i].Matrix) {
			t.Fatalf("phase %d differs", i)
		}
	}
	wins := streamed.WindowSet().Sorted()
	if len(emitted) != len(wins) {
		t.Fatalf("emitted %d windows, set holds %d", len(emitted), len(wins))
	}
	for i, start := range emitted {
		if start != wins[i].Start {
			t.Fatalf("emission %d start %d, want %d", i, start, wins[i].Start)
		}
	}
}
