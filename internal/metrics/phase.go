package metrics

import (
	"fmt"
	"math"

	"commprof/internal/comm"
	"commprof/internal/detect"
)

// Phase is one interval of stable communication behaviour.
type Phase struct {
	Start, End uint64 // logical-time interval [Start, End)
	Matrix     *comm.Matrix
	Windows    int // number of sample windows merged into the phase
}

// PhaseSegmenter consumes the detector's event stream, builds a communication
// matrix per fixed logical-time window, and merges adjacent windows whose
// matrices are similar. Applications that "transition into different phases
// of computation at runtime" (§V-A4) show up as a sequence of phases with
// distinct matrices, which is what lets the profiler notify an optimizer of
// behaviour changes instead of reporting one static whole-program pattern.
//
// Window storage delegates to comm.WindowSet — the same windowed sub-matrix
// layer the sharded pipeline accumulates per shard — so the serial and
// sharded paths share one bucketing rule (window = event time / windowSize)
// and are bit-identical by construction. Events may arrive in any time
// order; windows are keyed by the global access index carried on each event,
// not by arrival.
//
// Feed events via Observe (usable as a detect Options.OnEvent callback),
// optionally emit the windows in order via Flush, and call Finish once.
type PhaseSegmenter struct {
	threads    int
	windowSize uint64
	threshold  float64 // cosine-similarity merge threshold

	live   *comm.WindowSet
	closer *comm.WindowCloser
}

// NewPhaseSegmenter creates a segmenter with the given window length in
// logical-time units and a merge threshold in (0,1]; adjacent windows with
// cosine similarity >= threshold join the same phase.
func NewPhaseSegmenter(threads int, windowSize uint64, threshold float64) (*PhaseSegmenter, error) {
	if threads <= 0 {
		return nil, fmt.Errorf("metrics: threads must be positive")
	}
	if windowSize == 0 {
		return nil, fmt.Errorf("metrics: window size must be positive")
	}
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("metrics: threshold must be in (0,1], got %v", threshold)
	}
	live, err := comm.NewWindowSet(threads, windowSize)
	if err != nil {
		return nil, err
	}
	closer, err := comm.NewWindowCloser(threads, windowSize)
	if err != nil {
		return nil, err
	}
	return &PhaseSegmenter{threads: threads, windowSize: windowSize, threshold: threshold, live: live, closer: closer}, nil
}

// Observe records one communication event into its time window.
func (p *PhaseSegmenter) Observe(ev detect.Event) {
	p.live.Observe(ev.Time, ev.Region, ev.Writer, ev.Reader, uint64(ev.Bytes))
}

// Flush closes every remaining window, emitting each unemitted one to
// onClose (nil ok).
func (p *PhaseSegmenter) Flush(onClose func(w *comm.Window, end uint64)) int {
	return p.closer.Advance(^uint64(0), []*comm.WindowSet{p.live}, onClose)
}

// WindowSet returns the merged set of every closed window. Complete after
// Flush or Finish.
func (p *PhaseSegmenter) WindowSet() *comm.WindowSet {
	return p.closer.Done()
}

// Finish merges windows into phases and returns them in time order.
func (p *PhaseSegmenter) Finish() []Phase {
	p.Flush(nil)
	return SegmentWindows(p.closer.Done().Sorted(), p.windowSize, p.threshold)
}

// SegmentWindows merges a time-ordered window sequence into phases: adjacent
// windows whose global matrices have cosine similarity >= threshold join the
// same phase. The input windows are not mutated.
func SegmentWindows(wins []*comm.Window, windowSize uint64, threshold float64) []Phase {
	var phases []Phase
	for _, w := range wins {
		if len(phases) > 0 {
			last := &phases[len(phases)-1]
			if CosineSimilarity(last.Matrix, w.Global) >= threshold {
				last.Matrix.AddMatrix(w.Global)
				last.End = w.Start + windowSize
				last.Windows++
				continue
			}
		}
		phases = append(phases, Phase{
			Start:   w.Start,
			End:     w.Start + windowSize,
			Matrix:  w.Global.Clone(),
			Windows: 1,
		})
	}
	return phases
}

// CosineSimilarity compares two matrices as flattened vectors, in [0,1] for
// non-negative matrices. Two all-zero matrices are defined as similar (1);
// one zero and one non-zero matrix are dissimilar (0).
func CosineSimilarity(a, b *comm.Matrix) float64 {
	if a.N() != b.N() {
		panic(fmt.Sprintf("metrics: dimension mismatch %d vs %d", a.N(), b.N()))
	}
	var dot, na, nb float64
	n := a.N()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			av, bv := float64(a.At(s, d)), float64(b.At(s, d))
			dot += av * bv
			na += av * av
			nb += bv * bv
		}
	}
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}
