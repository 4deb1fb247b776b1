package metrics

import (
	"sort"
	"sync"

	"commprof/internal/comm"
	"commprof/internal/obs"
	"commprof/internal/patterns"
)

// TimelineWindow is one classified communication window of the final report.
type TimelineWindow struct {
	Start, End uint64
	Class      patterns.Class
	Confidence float64
	Bytes      uint64
}

// Transition marks a whole-program pattern change between two consecutive
// windows; At is the start of the window that introduced the new class.
type Transition struct {
	At   uint64
	From patterns.Class
	To   patterns.Class
}

// LoopTimeline aggregates one loop region's windowed communication.
type LoopTimeline struct {
	Region  int32
	Class   patterns.Class // classification of the loop's summed matrix
	Bytes   uint64
	Windows int // windows in which the loop communicated
}

// Timeline is the classified phase timeline of one run.
type Timeline struct {
	WindowSize  uint64
	Windows     []TimelineWindow
	Transitions []Transition
	Loops       []LoopTimeline
}

// BuildTimeline classifies every window of a complete merged set, in time
// order, into the report timeline. It is a deterministic function of the
// window set and the classifier, so the serial and sharded paths — which
// build bit-identical window sets — produce bit-identical timelines.
// isLoop (nil = none) selects which regions are loop regions; the loop
// digest keeps the top maxLoops by communicated bytes, and only those are
// classified.
func BuildTimeline(ws *comm.WindowSet, cls patterns.Classifier, isLoop func(int32) bool, maxLoops int) Timeline {
	return buildTimeline(ws, cls, isLoop, maxLoops, nil)
}

// buildTimeline is BuildTimeline taking each window's class and confidence
// from seen, a start-ordered log of earlier classifications, wherever the log
// has the window at its current byte total.
func buildTimeline(ws *comm.WindowSet, cls patterns.Classifier, isLoop func(int32) bool, maxLoops int, seen []patterns.WindowClass) Timeline {
	tl := Timeline{WindowSize: ws.WindowSize()}
	wins := ws.Sorted()
	loops := make(map[int32]*LoopTimeline)
	for _, w := range wins {
		bytes := w.Global.Total()
		for len(seen) > 0 && seen[0].Start < w.Start {
			seen = seen[1:]
		}
		var class patterns.Class
		var conf float64
		if len(seen) > 0 && seen[0].Start == w.Start && seen[0].Bytes == bytes {
			class, conf = seen[0].Class, seen[0].Confidence
		} else {
			class, conf = patterns.ClassifyMatrixWithConfidence(cls, w.Global)
		}
		if n := len(tl.Windows); n > 0 && tl.Windows[n-1].Class != class {
			tl.Transitions = append(tl.Transitions, Transition{At: w.Start, From: tl.Windows[n-1].Class, To: class})
		}
		tl.Windows = append(tl.Windows, TimelineWindow{
			Start: w.Start, End: w.Start + ws.WindowSize(),
			Class: class, Confidence: conf, Bytes: bytes,
		})
		for region, m := range w.Regions {
			if isLoop == nil || !isLoop(region) {
				continue
			}
			l, ok := loops[region]
			if !ok {
				l = &LoopTimeline{Region: region}
				loops[region] = l
			}
			l.Bytes += m.Total()
			l.Windows++
		}
	}
	for _, l := range loops {
		tl.Loops = append(tl.Loops, *l)
	}
	sortLoops(tl.Loops, func(l LoopTimeline) (int32, uint64) { return l.Region, l.Bytes })
	if maxLoops > 0 && len(tl.Loops) > maxLoops {
		tl.Loops = tl.Loops[:maxLoops]
	}
	for i := range tl.Loops {
		sum := comm.NewMatrix(ws.Threads())
		for _, w := range wins {
			if m, ok := w.Regions[tl.Loops[i].Region]; ok {
				sum.AddMatrix(m)
			}
		}
		tl.Loops[i].Class, _ = patterns.ClassifyMatrixWithConfidence(cls, sum)
	}
	return tl
}

// sortLoops orders loop entries hottest first (bytes descending, region id
// ascending on ties).
func sortLoops[T any](ls []T, key func(T) (region int32, bytes uint64)) {
	sort.Slice(ls, func(i, j int) bool {
		ri, bi := key(ls[i])
		rj, bj := key(ls[j])
		if bi != bj {
			return bi > bj
		}
		return ri < rj
	})
}

// LoopStatus is one hot loop's live classification state.
type LoopStatus struct {
	Region     int32
	Class      patterns.Class
	Confidence float64
	Bytes      uint64
	Windows    uint64
}

// LiveSnapshot is the phase layer's contribution to a /progress snapshot.
type LiveSnapshot struct {
	Current       patterns.WindowClass
	HasCurrent    bool
	WindowsClosed uint64
	Transitions   uint64
	Recent        []patterns.WindowClass
	Loops         []LoopStatus // hottest first
}

// LivePhases multiplexes a stream of closed windows into live classification
// state: the log of every window's whole-program classification (the current
// pattern, the recent ring, the counters, and what Timeline reuses) and each
// communicating loop region's latest window. ObserveWindow is shaped to serve
// directly as the pipeline's OnWindowClose callback (and the serial
// segmenter's Advance callback); Snapshot serves /progress and the metric
// gauges concurrently. Each closed window is classified once; a loop's latest
// window only when a Snapshot reports it.
type LivePhases struct {
	cls    patterns.Classifier
	isLoop func(int32) bool
	keep   int
	probes *obs.PhaseProbes

	mu          sync.Mutex
	seen        []patterns.WindowClass // every observed window, in order
	counts      [patterns.NumClasses]uint64
	transitions uint64
	loops       map[int32]*liveLoop
}

// liveLoop is one loop region's live state.
type liveLoop struct {
	// latest is a copy of the loop's newest window matrix: a late partial can
	// still merge into the closer's window after its emission.
	latest  *comm.Matrix
	bytes   uint64
	windows uint64 // also latest's generation: it grows whenever latest changes
	// classifiedAt is the generation class and confidence describe (0 = none).
	classifiedAt uint64
	class        patterns.Class
	confidence   float64
}

// NewLivePhases builds the live multiplexer. isLoop (nil = no per-loop
// tracking) selects loop regions; keep bounds the recent-window ring; probes
// (nil ok) receives window/transition counter increments.
func NewLivePhases(cls patterns.Classifier, isLoop func(int32) bool, keep int, probes *obs.PhaseProbes) *LivePhases {
	return &LivePhases{cls: cls, isLoop: isLoop, keep: max(keep, 0), probes: probes, loops: make(map[int32]*liveLoop)}
}

// ObserveWindow classifies one closed window's whole-program matrix — a new
// phase begins when its class differs from the previous window's; an empty
// window is classified like any other — keeps its communicating loop
// regions' matrices for Snapshot, and updates the live counters.
func (l *LivePhases) ObserveWindow(w *comm.Window, end uint64) {
	class, conf := patterns.ClassifyMatrixWithConfidence(l.cls, w.Global)
	l.mu.Lock()
	defer l.mu.Unlock()
	transition := len(l.seen) > 0 && l.seen[len(l.seen)-1].Class != class
	l.seen = append(l.seen, patterns.WindowClass{Start: w.Start, End: end, Class: class, Confidence: conf, Bytes: w.Global.Total()})
	l.counts[class]++
	if transition {
		l.transitions++
	}
	if l.probes != nil {
		l.probes.WindowsClosed.Inc()
		if transition {
			l.probes.Transitions.Inc()
		}
	}
	for region, m := range w.Regions {
		if l.isLoop == nil || !l.isLoop(region) {
			continue
		}
		lp, ok := l.loops[region]
		if !ok {
			lp = &liveLoop{latest: comm.NewMatrix(m.N())}
			l.loops[region] = lp
		}
		lp.latest.CopyFrom(m)
		lp.bytes += m.Total()
		lp.windows++
	}
}

// Current returns the latest whole-program window classification.
func (l *LivePhases) Current() (patterns.WindowClass, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.seen) == 0 {
		return patterns.WindowClass{}, false
	}
	return l.seen[len(l.seen)-1], true
}

// ClassCounts returns per-class closed-window counts.
func (l *LivePhases) ClassCounts() [patterns.NumClasses]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts
}

// Snapshot captures the live state for /progress: the current whole-program
// pattern, the last keep windows (oldest first), and the maxLoops hottest
// loops (by bytes communicated so far) with the classification of each one's
// latest window — computed here, for the loops returned, unless an earlier
// Snapshot already classified that window. The classification runs on copies
// outside the lock, so a poll never stalls ObserveWindow.
func (l *LivePhases) Snapshot(maxLoops int) LiveSnapshot {
	l.mu.Lock()
	n := len(l.seen)
	snap := LiveSnapshot{
		HasCurrent:    n > 0,
		WindowsClosed: uint64(n),
		Transitions:   l.transitions,
		Recent:        append([]patterns.WindowClass(nil), l.seen[n-min(n, l.keep):]...),
	}
	if n > 0 {
		snap.Current = l.seen[n-1]
	}
	for region, lp := range l.loops {
		snap.Loops = append(snap.Loops, LoopStatus{Region: region, Bytes: lp.bytes, Windows: lp.windows})
	}
	sortLoops(snap.Loops, func(s LoopStatus) (int32, uint64) { return s.Region, s.Bytes })
	if maxLoops > 0 && len(snap.Loops) > maxLoops {
		snap.Loops = snap.Loops[:maxLoops]
	}
	pending := make(map[int]*comm.Matrix) // snap.Loops index → latest's copy
	for i, s := range snap.Loops {
		lp := l.loops[s.Region]
		if lp.classifiedAt == s.Windows {
			snap.Loops[i].Class, snap.Loops[i].Confidence = lp.class, lp.confidence
		} else {
			pending[i] = lp.latest.Clone()
		}
	}
	l.mu.Unlock()
	for i, m := range pending {
		snap.Loops[i].Class, snap.Loops[i].Confidence = patterns.ClassifyMatrixWithConfidence(l.cls, m)
	}
	if len(pending) > 0 {
		l.mu.Lock()
		for i := range pending {
			s := snap.Loops[i]
			if lp := l.loops[s.Region]; lp.windows == s.Windows {
				lp.classifiedAt, lp.class, lp.confidence = s.Windows, s.Class, s.Confidence
			}
		}
		l.mu.Unlock()
	}
	return snap
}

// Timeline is BuildTimeline over the run's complete merged window set with
// this layer's classifier and loop predicate, reusing the class and
// confidence ObserveWindow gave every window that has not changed since (same
// classifier, same matrix: its byte total, which only grows, is the one it
// had then). A window that was never emitted is classified afresh, so the
// result equals BuildTimeline's. (One that gained a late partial after its
// emission never gets here: the engine's PhaseWindows refuses such a run.)
func (l *LivePhases) Timeline(ws *comm.WindowSet, maxLoops int) Timeline {
	l.mu.Lock()
	seen := l.seen
	l.mu.Unlock()
	return buildTimeline(ws, l.cls, l.isLoop, maxLoops, seen)
}
