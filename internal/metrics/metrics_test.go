package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"commprof/internal/comm"
	"commprof/internal/detect"
)

func matrixFromRows(t *testing.T, rows [][]uint64) *comm.Matrix {
	t.Helper()
	m, err := comm.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestThreadLoadEq1(t *testing.T) {
	// 4 threads; thread 0 supplies 40B, thread 2 supplies 8B.
	m := matrixFromRows(t, [][]uint64{
		{0, 10, 10, 20},
		{0, 0, 0, 0},
		{8, 0, 0, 0},
		{0, 0, 0, 0},
	})
	load := ThreadLoad(m)
	want := []float64{10, 0, 2, 0} // row sums / threads_count
	for i := range want {
		if load[i] != want[i] {
			t.Fatalf("load = %v, want %v", load, want)
		}
	}
}

func TestActiveThreads(t *testing.T) {
	if got := ActiveThreads([]float64{0, 1, 0, 2}); got != 2 {
		t.Fatalf("ActiveThreads = %d", got)
	}
	if got := ActiveThreads(nil); got != 0 {
		t.Fatalf("ActiveThreads(nil) = %d", got)
	}
}

func TestBalanceMetrics(t *testing.T) {
	even := []float64{5, 5, 5, 5}
	if b := BalanceIndex(even); b != 1 {
		t.Fatalf("even BalanceIndex = %v", b)
	}
	if cv := CV(even); cv != 0 {
		t.Fatalf("even CV = %v", cv)
	}
	if g := Gini(even); g != 0 {
		t.Fatalf("even Gini = %v", g)
	}
	skew := []float64{20, 0, 0, 0}
	if b := BalanceIndex(skew); b != 4 {
		t.Fatalf("skew BalanceIndex = %v", b)
	}
	if g := Gini(skew); math.Abs(g-0.75) > 1e-12 {
		t.Fatalf("skew Gini = %v", g)
	}
	zero := []float64{0, 0}
	if BalanceIndex(zero) != 0 || CV(zero) != 0 || Gini(zero) != 0 {
		t.Fatal("zero vector metrics must be 0")
	}
}

func TestGiniBounds(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		load := make([]float64, len(vals))
		for i, v := range vals {
			load[i] = float64(v)
		}
		g := Gini(load)
		return g >= 0 && g < 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	m := matrixFromRows(t, [][]uint64{
		{0, 8, 0, 0},
		{0, 0, 8, 0},
		{0, 0, 0, 8},
		{8, 0, 0, 0},
	})
	s := Summarize(m)
	if s.Active != 4 || s.Balance != 1 || s.CV != 0 {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

func TestCosineSimilarity(t *testing.T) {
	a := matrixFromRows(t, [][]uint64{{0, 10}, {0, 0}})
	b := matrixFromRows(t, [][]uint64{{0, 20}, {0, 0}}) // same direction
	c := matrixFromRows(t, [][]uint64{{0, 0}, {10, 0}}) // orthogonal
	if s := CosineSimilarity(a, b); math.Abs(s-1) > 1e-12 {
		t.Fatalf("parallel similarity = %v", s)
	}
	if s := CosineSimilarity(a, c); s != 0 {
		t.Fatalf("orthogonal similarity = %v", s)
	}
	z := comm.NewMatrix(2)
	if s := CosineSimilarity(z, z.Clone()); s != 1 {
		t.Fatalf("zero-zero similarity = %v", s)
	}
	if s := CosineSimilarity(z, a); s != 0 {
		t.Fatalf("zero-nonzero similarity = %v", s)
	}
}

func TestCosineSimilarityDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CosineSimilarity(comm.NewMatrix(2), comm.NewMatrix(3))
}

func TestPhaseSegmenterValidation(t *testing.T) {
	if _, err := NewPhaseSegmenter(0, 10, 0.5); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := NewPhaseSegmenter(2, 0, 0.5); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewPhaseSegmenter(2, 10, 0); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := NewPhaseSegmenter(2, 10, 1.5); err == nil {
		t.Error("threshold > 1 accepted")
	}
}

func TestPhaseSegmentationDetectsTransition(t *testing.T) {
	// Phase A (t<1000): T0->T1 traffic. Phase B (t>=1000): T2->T3 traffic.
	ps, err := NewPhaseSegmenter(4, 100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for tm := uint64(0); tm < 1000; tm += 10 {
		ps.Observe(detect.Event{Time: tm, Writer: 0, Reader: 1, Bytes: 8})
	}
	for tm := uint64(1000); tm < 2000; tm += 10 {
		ps.Observe(detect.Event{Time: tm, Writer: 2, Reader: 3, Bytes: 8})
	}
	phases := ps.Finish()
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(phases))
	}
	if phases[0].Matrix.At(0, 1) == 0 || phases[0].Matrix.At(2, 3) != 0 {
		t.Fatal("phase 0 matrix wrong")
	}
	if phases[1].Matrix.At(2, 3) == 0 || phases[1].Matrix.At(0, 1) != 0 {
		t.Fatal("phase 1 matrix wrong")
	}
	if phases[0].End > phases[1].Start {
		t.Fatal("phases overlap")
	}
	if phases[0].Windows != 10 || phases[1].Windows != 10 {
		t.Fatalf("window counts = %d,%d", phases[0].Windows, phases[1].Windows)
	}
}

func TestPhaseSegmentationMergesStableBehaviour(t *testing.T) {
	ps, err := NewPhaseSegmenter(2, 50, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for tm := uint64(0); tm < 5000; tm += 5 {
		ps.Observe(detect.Event{Time: tm, Writer: 0, Reader: 1, Bytes: 4})
	}
	phases := ps.Finish()
	if len(phases) != 1 {
		t.Fatalf("stable stream split into %d phases", len(phases))
	}
	if phases[0].Matrix.At(0, 1) != 4000 {
		t.Fatalf("merged volume = %d", phases[0].Matrix.At(0, 1))
	}
}

func TestPhaseSegmenterEmpty(t *testing.T) {
	ps, err := NewPhaseSegmenter(2, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.Finish(); len(got) != 0 {
		t.Fatalf("empty segmenter produced %d phases", len(got))
	}
}
