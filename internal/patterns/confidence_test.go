package patterns

import (
	"math/rand"
	"testing"
)

func trainedKNN(t *testing.T, rng *rand.Rand) *KNN {
	t.Helper()
	knn, err := NewKNN(5, Corpus(40, []int{8, 16}, 0, rng))
	if err != nil {
		t.Fatal(err)
	}
	return knn
}

// TestPredictWithConfidenceAgrees pins that the confidence-bearing entry
// points return exactly the class Predict would, with a confidence in (0,1].
func TestPredictWithConfidenceAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := Corpus(40, []int{8, 16}, 0, rng)
	knn, err := NewKNN(5, train)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := NewNaiveBayes(train)
	if err != nil {
		t.Fatal(err)
	}
	test := Corpus(10, []int{8, 16}, 0.02, rng)
	for name, c := range map[string]ConfidenceClassifier{"knn": knn, "naive-bayes": nb} {
		for _, s := range test {
			class, conf := c.PredictWithConfidence(s.Features)
			if class != c.Predict(s.Features) {
				t.Fatalf("%s: PredictWithConfidence class differs from Predict", name)
			}
			if conf <= 0 || conf > 1 {
				t.Fatalf("%s: confidence %v outside (0,1]", name, conf)
			}
		}
	}
}

// TestKNNConfidenceIsVoteShare checks the KNN confidence is quantized to
// vote fractions of k.
func TestKNNConfidenceIsVoteShare(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	knn := trainedKNN(t, rng)
	for _, s := range Corpus(5, []int{8}, 0.05, rng) {
		_, conf := knn.PredictWithConfidence(s.Features)
		votes := conf * 5
		if diff := votes - float64(int(votes+0.5)); diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("confidence %v is not a multiple of 1/k", conf)
		}
	}
}

// TestClassifyMatrixWithConfidenceFallback pins the confidence-less
// classifier path: same class as ClassifyMatrix, confidence exactly 1.
func TestClassifyMatrixWithConfidenceFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := Generate(Pipeline, 8, rng)
	class, conf := ClassifyMatrixWithConfidence(RuleBased{}, m)
	if class != ClassifyMatrix(RuleBased{}, m) {
		t.Fatal("fallback class differs from ClassifyMatrix")
	}
	if conf != 1 {
		t.Fatalf("fallback confidence %v, want 1", conf)
	}
}
