package patterns

import (
	"math/rand"
	"testing"

	"commprof/internal/comm"
)

func TestClassNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Class(0); c < NumClasses; c++ {
		n := c.String()
		if n == "" || n == "unknown" || seen[n] {
			t.Fatalf("bad class name %q for %d", n, c)
		}
		seen[n] = true
	}
	if Class(99).String() != "unknown" {
		t.Fatal("out-of-range class must be unknown")
	}
}

func TestFeaturesZeroMatrix(t *testing.T) {
	f := Features(comm.NewMatrix(8))
	for i, v := range f {
		if v != 0 {
			t.Fatalf("feature %s = %v for zero matrix", FeatureNames[i], v)
		}
	}
}

func TestFeaturesRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for c := Class(0); c < NumClasses; c++ {
		for trial := 0; trial < 10; trial++ {
			f := Features(Generate(c, 16, rng))
			for i, v := range f {
				// Share-type features live in [0,1]; CVs and distances are
				// non-negative and bounded for these generators.
				if v < -1e-9 || v > 25 {
					t.Fatalf("%v feature %s = %v out of range", c, FeatureNames[i], v)
				}
			}
		}
	}
}

func TestFeaturesScaleInvariant(t *testing.T) {
	// Features must not depend on absolute volume.
	a, err := comm.FromRows([][]uint64{
		{0, 10, 0, 0}, {0, 0, 10, 0}, {0, 0, 0, 10}, {0, 0, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := comm.FromRows([][]uint64{
		{0, 10000, 0, 0}, {0, 0, 10000, 0}, {0, 0, 0, 10000}, {0, 0, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := Features(a), Features(b)
	for i := range fa {
		if diff := fa[i] - fb[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("feature %s not scale-invariant: %v vs %v", FeatureNames[i], fa[i], fb[i])
		}
	}
}

func TestGeneratorsTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Pipeline: forward ring share near 1.
	f := Features(Generate(Pipeline, 16, rng))
	if f[3] < 0.6 {
		t.Fatalf("pipeline ringFwd = %v", f[3])
	}
	// MasterWorker: row0+col0 dominant.
	f = Features(Generate(MasterWorker, 16, rng))
	if f[5]+f[6] < 0.7 {
		t.Fatalf("master/worker row0+col0 = %v", f[5]+f[6])
	}
	// Spectral: high density.
	f = Features(Generate(Spectral, 16, rng))
	if f[8] < 0.95 {
		t.Fatalf("spectral density = %v", f[8])
	}
	// StructuredGrid: band share high, density low.
	f = Features(Generate(StructuredGrid, 16, rng))
	if f[8] > 0.5 {
		t.Fatalf("grid density = %v", f[8])
	}
}

func TestGenerateSmallNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate(Spectral, 2, rand.New(rand.NewSource(1)))
}

func TestRuleBasedOnCleanData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	test := Corpus(30, []int{8, 16, 32}, 0, rng)
	ev := Evaluate(RuleBased{}, test)
	if ev.Accuracy < 0.85 {
		t.Fatalf("rule-based accuracy %.3f < 0.85; confusion: %v", ev.Accuracy, ev.Confusion)
	}
}

func TestKNNReproducesPaperAccuracy(t *testing.T) {
	// §VI: ">97% accuracy with the aid of algorithmic methods and
	// supervised learning".
	rng := rand.New(rand.NewSource(4))
	train := Corpus(60, []int{8, 16, 32}, 0, rng)
	test := Corpus(40, []int{8, 16, 32}, 0, rng)
	knn, err := NewKNN(5, train)
	if err != nil {
		t.Fatal(err)
	}
	ev := Evaluate(knn, test)
	if ev.Accuracy < 0.97 {
		t.Fatalf("kNN accuracy %.3f < 0.97; confusion: %v", ev.Accuracy, ev.Confusion)
	}
}

func TestNaiveBayesAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	train := Corpus(60, []int{8, 16, 32}, 0, rng)
	test := Corpus(40, []int{8, 16, 32}, 0, rng)
	nb, err := NewNaiveBayes(train)
	if err != nil {
		t.Fatal(err)
	}
	ev := Evaluate(nb, test)
	if ev.Accuracy < 0.9 {
		t.Fatalf("NB accuracy %.3f < 0.9; confusion: %v", ev.Accuracy, ev.Confusion)
	}
}

func TestLearnerCompensatesSignatureNoise(t *testing.T) {
	// §VI: "the negative effect of false positives could be compensated by
	// using machine learning classification methods". Train on noisy data,
	// test on noisy data: accuracy must stay high, and must beat the
	// rule-based classifier evaluated on the same noisy test set.
	rng := rand.New(rand.NewSource(6))
	const noise = 0.25
	train := Corpus(60, []int{8, 16, 32}, noise, rng)
	test := Corpus(40, []int{8, 16, 32}, noise, rng)
	knn, err := NewKNN(5, train)
	if err != nil {
		t.Fatal(err)
	}
	evKNN := Evaluate(knn, test)
	evRule := Evaluate(RuleBased{}, test)
	if evKNN.Accuracy < 0.9 {
		t.Fatalf("kNN on noisy data %.3f < 0.9", evKNN.Accuracy)
	}
	if evKNN.Accuracy < evRule.Accuracy {
		t.Fatalf("learning (%.3f) did not compensate noise vs rules (%.3f)", evKNN.Accuracy, evRule.Accuracy)
	}
}

func TestEvaluatePerClassRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	train := Corpus(50, []int{16}, 0, rng)
	test := Corpus(20, []int{16}, 0, rng)
	knn, err := NewKNN(3, train)
	if err != nil {
		t.Fatal(err)
	}
	ev := Evaluate(knn, test)
	for c := Class(0); c < NumClasses; c++ {
		total := 0
		for _, n := range ev.Confusion[c] {
			total += n
		}
		if hit := ev.Confusion[c][c]; total == 0 || float64(hit) < 0.8*float64(total) {
			t.Errorf("recall for %v = %d of %d", c, hit, total)
		}
	}
	if ev.N != len(test) {
		t.Fatalf("N = %d", ev.N)
	}
}

func TestTrainingValidation(t *testing.T) {
	if _, err := NewKNN(0, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewKNN(5, make([]Sample, 2)); err == nil {
		t.Error("too-small training set accepted")
	}
	// NB requires all classes present.
	partial := []Sample{{Class: Spectral}, {Class: Spectral}}
	if _, err := NewNaiveBayes(partial); err == nil {
		t.Error("missing classes accepted")
	}
}

func TestAddSignatureNoiseIncreasesVolume(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := Generate(StructuredGrid, 16, rng)
	before := m.Total()
	AddSignatureNoise(m, 0.3, rng)
	after := m.Total()
	if after <= before {
		t.Fatalf("noise did not add volume: %d -> %d", before, after)
	}
	AddSignatureNoise(m, 0, rng) // zero rate: no-op
	if m.Total() != after {
		t.Fatal("zero-rate noise changed the matrix")
	}
}

func TestClassifyMatrixEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	train := Corpus(60, []int{8, 16, 32}, 0, rng)
	knn, err := NewKNN(5, train)
	if err != nil {
		t.Fatal(err)
	}
	m := Generate(Pipeline, 16, rng)
	if got := ClassifyMatrix(knn, m); got != Pipeline {
		t.Fatalf("ClassifyMatrix = %v, want Pipeline", got)
	}
}

func BenchmarkFeatureExtraction32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := Generate(Spectral, 32, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Features(m)
	}
}

func BenchmarkKNNPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	train := Corpus(60, []int{8, 16, 32}, 0, rng)
	knn, err := NewKNN(5, train)
	if err != nil {
		b.Fatal(err)
	}
	f := Features(Generate(NBody, 16, rng))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knn.Predict(f)
	}
}

func TestFamilyTaxonomy(t *testing.T) {
	want := map[Class]Family{
		LinearAlgebra:  Computational,
		Spectral:       Computational,
		NBody:          Computational,
		StructuredGrid: Computational,
		MasterWorker:   Architectural,
		Pipeline:       Architectural,
		Barrier:        Synchronization,
	}
	for c, f := range want {
		if got := FamilyOf(c); got != f {
			t.Errorf("FamilyOf(%v) = %v, want %v", c, got, f)
		}
	}
	for _, f := range []Family{Computational, Architectural, Synchronization} {
		if f.String() == "" || f.String() == "unknown" {
			t.Errorf("family %d has bad name", f)
		}
	}
	if Family(9).String() != "unknown" {
		t.Error("out-of-range family")
	}
}
