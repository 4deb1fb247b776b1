package metrics

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"commprof/internal/comm"
	"commprof/internal/patterns"
)

// countingClassifier counts the predictions it makes for an inner classifier.
type countingClassifier struct {
	inner patterns.ConfidenceClassifier
	n     atomic.Int64
}

func (c *countingClassifier) Predict(f [patterns.FeatureDim]float64) patterns.Class {
	c.n.Add(1)
	return c.inner.Predict(f)
}

func (c *countingClassifier) PredictWithConfidence(f [patterns.FeatureDim]float64) (patterns.Class, float64) {
	c.n.Add(1)
	return c.inner.PredictWithConfidence(f)
}

// loopyWindowSet builds windows windows over threads threads in which each
// of loops loop regions (ids 0..loops-1) carries a generated pattern matrix.
func loopyWindowSet(t *testing.T, threads, windows, loops int, size uint64) *comm.WindowSet {
	t.Helper()
	ws, err := comm.NewWindowSet(threads, size)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < windows; i++ {
		for r := 0; r < loops; r++ {
			observePattern(ws, patterns.Class((i+r)%int(patterns.NumClasses)), uint64(i)*size, int32(r), uint64(r+1), threads, int64(i*loops+r))
		}
	}
	return ws
}

// observePattern records one generated pattern matrix, scaled by weight, into
// ws at time t under region.
func observePattern(ws *comm.WindowSet, c patterns.Class, t uint64, region int32, weight uint64, threads int, seed int64) {
	m := patterns.Generate(c, threads, rand.New(rand.NewSource(seed)))
	for s := 0; s < threads; s++ {
		for d := 0; d < threads; d++ {
			if v := m.At(s, d); v > 0 {
				ws.Observe(t, region, int32(s), int32(d), v*weight)
			}
		}
	}
}

// TestClassificationsPerWindow pins the phase layer's classification budget:
// the live layer classifies each closed window once and a loop's latest
// window only when a Snapshot returns that loop (at most maxLoops, none when
// nothing changed since); the live Timeline reuses every window it saw
// unchanged and classifies only the loop digest; BuildTimeline alone
// classifies each window once plus the digest. Both timelines are equal.
func TestClassificationsPerWindow(t *testing.T) {
	const threads, windows, loops, maxLoops, size = 16, 12, 8, 3, 100
	knn := timelineKNN(t)
	isLoop := func(r int32) bool { return r >= 0 }
	ws := loopyWindowSet(t, threads, windows, loops, size)

	bare := &countingClassifier{inner: knn}
	want := BuildTimeline(ws, bare, isLoop, maxLoops)
	if got := bare.n.Load(); got != windows+maxLoops {
		t.Fatalf("BuildTimeline classified %d times, want %d windows + %d digest loops", got, windows, maxLoops)
	}
	if len(want.Loops) != maxLoops || want.Loops[0].Bytes < want.Loops[maxLoops-1].Bytes {
		t.Fatalf("loop digest %+v, want the %d heaviest loops, hottest first", want.Loops, maxLoops)
	}

	cc := &countingClassifier{inner: knn}
	lp := NewLivePhases(cc, isLoop, 4, nil)
	for _, w := range ws.Sorted() {
		lp.ObserveWindow(w, w.Start+size)
	}
	if got := cc.n.Load(); got != windows {
		t.Fatalf("live layer classified %d times over %d windows", got, windows)
	}
	snap := lp.Snapshot(maxLoops)
	if got := cc.n.Load(); got != windows+maxLoops || len(snap.Loops) != maxLoops {
		t.Fatalf("Snapshot(%d): %d loops, %d classifications after %d windows", maxLoops, len(snap.Loops), got, windows)
	}
	lp.Snapshot(maxLoops)
	if got := cc.n.Load(); got != windows+maxLoops {
		t.Fatalf("a second Snapshot over unchanged loops classified %d more", got-windows-maxLoops)
	}
	for _, l := range snap.Loops {
		var last *comm.Matrix
		for _, w := range ws.Sorted() {
			if m, ok := w.Regions[l.Region]; ok {
				last = m
			}
		}
		class, conf := patterns.ClassifyMatrixWithConfidence(knn, last)
		if l.Class != class || l.Confidence != conf || l.Windows != windows {
			t.Fatalf("live loop %d: %+v, want latest window's (%v, %v) over %d windows", l.Region, l, class, conf, windows)
		}
	}

	before := cc.n.Load()
	got := lp.Timeline(ws, maxLoops)
	if n := cc.n.Load() - before; n != maxLoops {
		t.Fatalf("live Timeline classified %d times, want only the %d digest loops", n, maxLoops)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("live Timeline differs from BuildTimeline:\n%+v\n%+v", got, want)
	}
}

// hookClassifier runs hook (once) the first time it is asked to classify.
type hookClassifier struct {
	patterns.ConfidenceClassifier
	hook func()
}

func (c *hookClassifier) PredictWithConfidence(f [patterns.FeatureDim]float64) (patterns.Class, float64) {
	if h := c.hook; h != nil {
		c.hook = nil
		h()
	}
	return c.ConfidenceClassifier.PredictWithConfidence(f)
}

// TestSnapshotClassifiesOutsideLock closes a window from inside the
// classification a Snapshot runs — which would deadlock were the lock held —
// and checks the snapshot describes the loop window it copied, while the
// stale class is not kept: the next Snapshot classifies the new window once.
func TestSnapshotClassifiesOutsideLock(t *testing.T) {
	const threads, size = 16, 100
	knn := timelineKNN(t)
	wins := loopyWindowSet(t, threads, 2, 1, size).Sorted()
	cc := &countingClassifier{inner: knn}
	hc := &hookClassifier{ConfidenceClassifier: cc}
	lp := NewLivePhases(hc, func(r int32) bool { return r >= 0 }, 0, nil)
	lp.ObserveWindow(wins[0], size)
	// want is the loop's status after the first n windows.
	want := func(n int) LoopStatus {
		s := LoopStatus{Windows: uint64(n)}
		for _, w := range wins[:n] {
			s.Bytes += w.Regions[0].Total()
		}
		s.Class, s.Confidence = patterns.ClassifyMatrixWithConfidence(knn, wins[n-1].Regions[0])
		return s
	}

	hc.hook = func() { lp.ObserveWindow(wins[1], 2*size) }
	if got := lp.Snapshot(1).Loops; len(got) != 1 || got[0] != want(1) {
		t.Fatalf("snapshot during a window close: %+v, want %+v", got, want(1))
	}
	before := cc.n.Load()
	if got := lp.Snapshot(1).Loops; len(got) != 1 || got[0] != want(2) || cc.n.Load()-before != 1 {
		t.Fatalf("next snapshot: %+v after %d classifications, want %+v after 1", got, cc.n.Load()-before, want(2))
	}
	lp.Snapshot(1)
	if n := cc.n.Load() - before; n != 1 {
		t.Fatalf("a snapshot over an unchanged loop classified %d more", n-1)
	}
}

// TestLiveTimelineReclassifiesChangedWindows covers late partials, which no
// time-ordered feed produces but the closer still handles: a window that gained events after its emission, and one that
// was never emitted, are classified afresh — the live Timeline still equals
// BuildTimeline over the final set — while a Snapshot keeps describing the
// loop window it was handed, not the closer's since-merged one.
func TestLiveTimelineReclassifiesChangedWindows(t *testing.T) {
	const threads, windows, loops, size = 16, 6, 2, 100
	knn := timelineKNN(t)
	isLoop := func(r int32) bool { return r >= 0 }
	ws := loopyWindowSet(t, threads, windows, loops, size)
	cc := &countingClassifier{inner: knn}
	lp := NewLivePhases(cc, isLoop, 0, nil)
	wins := ws.Sorted()
	for _, w := range wins {
		lp.ObserveWindow(w, w.Start+size)
	}
	lastLoop := wins[windows-1].Regions[1].Clone()

	// A late partial merges into the last emitted window (changing its class
	// inputs), and a window below the frontier appears that was never emitted.
	observePattern(ws, patterns.Barrier, uint64(windows-1)*size, 1, 50, threads, 7)
	observePattern(ws, patterns.MasterWorker, uint64(windows)*size, -1, 1, threads, 8)

	before := cc.n.Load()
	got := lp.Timeline(ws, 0)
	if n := cc.n.Load() - before; n != 2+loops {
		t.Fatalf("live Timeline classified %d times, want 2 changed windows + %d digest loops", n, loops)
	}
	if want := BuildTimeline(ws, knn, isLoop, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("live Timeline differs from BuildTimeline after late partials:\n%+v\n%+v", got, want)
	}

	class, conf := patterns.ClassifyMatrixWithConfidence(knn, lastLoop)
	for _, l := range lp.Snapshot(0).Loops {
		if l.Region == 1 && (l.Class != class || l.Confidence != conf) {
			t.Fatalf("live loop 1 reads (%v, %v), want its emitted window's (%v, %v)", l.Class, l.Confidence, class, conf)
		}
	}
}
