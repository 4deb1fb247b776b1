package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"commprof/internal/patterns"
	"commprof/internal/splash"
)

// PatternsResult is the §VI reproduction: classifier accuracies on the
// synthetic corpus (clean and with signature-noise injection) plus the
// classes assigned to the real profiled workloads.
type PatternsResult struct {
	KNNCleanAccuracy  float64
	KNNNoisyAccuracy  float64
	NBCleanAccuracy   float64
	RuleCleanAccuracy float64
	RuleNoisyAccuracy float64
	// WorkloadClasses maps each profiled benchmark to its predicted class.
	WorkloadClasses map[string]patterns.Class
}

// Patterns trains the supervised classifiers on the canonical-topology
// corpus, reproduces the >97% accuracy claim and the "learning compensates
// signature false positives" observation, and classifies the communication
// matrices of the real workloads.
func Patterns(env Env, size splash.Size) (*PatternsResult, error) {
	rng := rand.New(rand.NewSource(env.Seed))
	threadCounts := []int{8, 16, 32}

	train := patterns.Corpus(60, threadCounts, 0, rng)
	test := patterns.Corpus(40, threadCounts, 0, rng)
	knn, err := patterns.NewKNN(5, train)
	if err != nil {
		return nil, err
	}
	nb, err := patterns.NewNaiveBayes(train)
	if err != nil {
		return nil, err
	}
	res := &PatternsResult{
		KNNCleanAccuracy:  patterns.Evaluate(knn, test).Accuracy,
		NBCleanAccuracy:   patterns.Evaluate(nb, test).Accuracy,
		RuleCleanAccuracy: patterns.Evaluate(patterns.RuleBased{}, test).Accuracy,
		WorkloadClasses:   map[string]patterns.Class{},
	}

	const noise = 0.25
	trainN := patterns.Corpus(60, threadCounts, noise, rng)
	testN := patterns.Corpus(40, threadCounts, noise, rng)
	knnN, err := patterns.NewKNN(5, trainN)
	if err != nil {
		return nil, err
	}
	res.KNNNoisyAccuracy = patterns.Evaluate(knnN, testN).Accuracy
	res.RuleNoisyAccuracy = patterns.Evaluate(patterns.RuleBased{}, testN).Accuracy

	// Classify the real workloads' global matrices.
	for _, app := range []string{"fft", "ocean_cp", "water_nsq", "barnes", "lu_ncb", "radiosity"} {
		d, _, err := env.profile(app, size)
		if err != nil {
			return nil, err
		}
		res.WorkloadClasses[app] = patterns.ClassifyMatrix(knn, d.Global())
	}
	return res, nil
}

// Render formats the results.
func (r *PatternsResult) Render() string {
	var b strings.Builder
	b.WriteString("§VI — parallel-pattern detection from communication matrices\n\n")
	fmt.Fprintf(&b, "kNN accuracy (clean corpus):        %.1f%%  (paper: >97%%)\n", 100*r.KNNCleanAccuracy)
	fmt.Fprintf(&b, "naive Bayes accuracy (clean):       %.1f%%\n", 100*r.NBCleanAccuracy)
	fmt.Fprintf(&b, "rule-based accuracy (clean):        %.1f%%\n", 100*r.RuleCleanAccuracy)
	fmt.Fprintf(&b, "kNN accuracy (signature-FP noise):  %.1f%%\n", 100*r.KNNNoisyAccuracy)
	fmt.Fprintf(&b, "rule-based accuracy (same noise):   %.1f%%\n", 100*r.RuleNoisyAccuracy)
	b.WriteString("\nClassified workload matrices:\n")
	for _, app := range []string{"fft", "ocean_cp", "water_nsq", "barnes", "lu_ncb", "radiosity"} {
		if c, ok := r.WorkloadClasses[app]; ok {
			fmt.Fprintf(&b, "  %-10s -> %s\n", app, c)
		}
	}
	return b.String()
}
