package patterns

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"commprof/internal/comm"
)

// referenceFeatures is Features as it was before it stopped allocating: the
// non-zero cells and the row sums collected into slices, then reduced. Kept
// as the oracle the allocation-free version must equal bit for bit.
func referenceFeatures(m *comm.Matrix) [FeatureDim]float64 {
	n := m.N()
	var f [FeatureDim]float64
	var total float64
	cells := make([]float64, 0, n*n-n)
	rows := make([]float64, n)
	var band1, band2, bandLog, ringF, ringB, row0, col0, pow2 float64
	var maxCell, meanDist float64

	logBand := int(math.Ceil(math.Log2(float64(n))))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			v := float64(m.At(s, d))
			total += v
			if v > 0 {
				cells = append(cells, v)
			}
			rows[s] += v
			dist := s - d
			if dist < 0 {
				dist = -dist
			}
			if dist <= 1 {
				band1 += v
			}
			if dist <= 2 {
				band2 += v
			}
			if dist <= logBand {
				bandLog += v
			}
			if d == (s+1)%n {
				ringF += v
			}
			if d == (s-1+n)%n {
				ringB += v
			}
			if s == 0 {
				row0 += v
			}
			if d == 0 {
				col0 += v
			}
			if dist&(dist-1) == 0 {
				pow2 += v
			}
			if v > maxCell {
				maxCell = v
			}
			meanDist += v * float64(dist)
		}
	}
	if total == 0 {
		return f
	}
	f[0] = band1 / total
	f[1] = band2 / total
	f[2] = bandLog / total
	f[3] = ringF / total
	f[4] = ringB / total
	f[5] = row0 / total
	f[6] = col0 / total
	var asym float64
	for s := 0; s < n; s++ {
		for d := s + 1; d < n; d++ {
			asym += math.Abs(float64(m.At(s, d)) - float64(m.At(d, s)))
		}
	}
	f[7] = 1 - asym/total
	f[8] = float64(len(cells)) / float64(n*n-n)
	f[9] = referenceCV(cells)
	maxRow := 0.0
	for _, r := range rows {
		if r > maxRow {
			maxRow = r
		}
	}
	f[10] = referenceCV(rows)
	f[11] = maxRow / total
	f[12] = maxCell / total
	f[13] = meanDist / total / float64(n)
	f[14] = pow2 / total
	active := 0
	for _, r := range rows {
		if r > 0 {
			active++
		}
	}
	f[15] = float64(active) / float64(n)
	return f
}

func referenceCV(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}

// referenceNeighbours is the sort the top-k selection replaced: every
// training distance, sorted. The sort is stable, so equal distances keep
// training order — the tie rule vote documents.
func referenceNeighbours(m *KNN, f [FeatureDim]float64) []neighbour {
	q := m.scale(f)
	ds := make([]neighbour, len(m.points))
	for i, p := range m.points {
		var sum float64
		for j := range p {
			diff := p[j] - q[j]
			sum += diff * diff
		}
		ds[i] = neighbour{sum, m.labels[i]}
	}
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].d < ds[j].d })
	return ds
}

// referenceVote counts the labels of the first k sorted neighbours.
func referenceVote(sorted []neighbour, k int) [NumClasses]int {
	var votes [NumClasses]int
	for i := 0; i < k && i < len(sorted); i++ {
		votes[sorted[i].label]++
	}
	return votes
}

// confidenceOf is PredictWithConfidence's reduction of a vote tally.
func confidenceOf(votes [NumClasses]int, k int) (Class, float64) {
	best, bestV := Class(0), -1
	for c, v := range votes {
		if v > bestV {
			best, bestV = Class(c), v
		}
	}
	return best, float64(bestV) / float64(k)
}

// corpusMatrices generates matrices the way Corpus does (Generate, then
// optional signature noise), perClass of every class at each thread count.
func corpusMatrices(perClass int, threads []int, noise float64, rng *rand.Rand) []*comm.Matrix {
	var out []*comm.Matrix
	for c := Class(0); c < NumClasses; c++ {
		for i := 0; i < perClass; i++ {
			m := Generate(c, threads[rng.Intn(len(threads))], rng)
			if noise > 0 {
				AddSignatureNoise(m, noise, rng)
			}
			out = append(out, m)
		}
	}
	return out
}

// TestFeaturesMatchesReference pins the allocation-free Features to the
// collect-then-reduce reference by exact equality over every class, the
// thread counts the layer sees, several noise rates and the zero matrix.
func TestFeaturesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ms := []*comm.Matrix{comm.NewMatrix(4), comm.NewMatrix(32)}
	for _, noise := range []float64{0, 0.05, 0.25} {
		ms = append(ms, corpusMatrices(6, []int{4, 5, 8, 16, 31, 32, 64}, noise, rng)...)
	}
	for i, m := range ms {
		if got, want := Features(m), referenceFeatures(m); got != want {
			t.Fatalf("matrix %d (n=%d): Features\n%v\nreference\n%v", i, m.N(), got, want)
		}
	}
}

// TestVoteMatchesSortReference is the top-k vote's differential wall: over
// 5 040 generated queries at four noise rates and five thread counts, the
// zero vector, and every training point itself (a distance-0 self-match),
// the selection gives the sort-based reference's votes and confidence, at
// the layer's k = 5 and at k = 1 and 9 (past the fixed-size array).
func TestVoteMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	train := Corpus(60, []int{8, 16, 32}, 0, rng)
	queries := [][FeatureDim]float64{{}}
	for _, s := range train {
		queries = append(queries, s.Features)
	}
	generated := 0
	for _, noise := range []float64{0, 0.01, 0.05, 0.2} {
		for _, threads := range []int{4, 8, 16, 32, 64} {
			for _, s := range Corpus(36, []int{threads}, noise, rng) {
				queries = append(queries, s.Features)
				generated++
			}
		}
	}
	if generated < 5000 {
		t.Fatalf("only %d generated queries", generated)
	}
	var knns []*KNN
	for _, k := range []int{1, 5, 9} {
		knn, err := NewKNN(k, train)
		if err != nil {
			t.Fatal(err)
		}
		knns = append(knns, knn)
	}
	for i, q := range queries {
		// Same training set, same standardisation: one sort serves every k.
		sorted := referenceNeighbours(knns[0], q)
		for _, knn := range knns {
			got, want := knn.vote(q), referenceVote(sorted, knn.k)
			if got != want {
				t.Fatalf("k=%d query %d: votes %v, reference %v", knn.k, i, got, want)
			}
			class, conf := knn.PredictWithConfidence(q)
			if wc, wconf := confidenceOf(want, knn.k); class != wc || conf != wconf {
				t.Fatalf("k=%d query %d: (%v, %v), reference (%v, %v)", knn.k, i, class, conf, wc, wconf)
			}
		}
	}
}

// TestVoteTiesGoToTrainingOrder pins the tie rule: among equidistant
// training points the lower index is nearer.
func TestVoteTiesGoToTrainingOrder(t *testing.T) {
	var a, b [FeatureDim]float64
	a[0], b[0] = 1, -1 // both at distance 1 from the origin after scaling
	train := []Sample{{Pipeline, a}, {Barrier, b}, {Pipeline, a}, {Barrier, b}}
	knn, err := NewKNN(1, train)
	if err != nil {
		t.Fatal(err)
	}
	if got := knn.Predict([FeatureDim]float64{}); got != Pipeline {
		t.Fatalf("tie went to %v, want the first training point's Pipeline", got)
	}
}

// TestClassifyAllocatesNothing pins the classification path — Features plus
// the k = 5 vote — at zero allocations.
func TestClassifyAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	knn, err := NewKNN(5, Corpus(20, []int{8, 16, 32}, 0, rng))
	if err != nil {
		t.Fatal(err)
	}
	m := Generate(NBody, 32, rng)
	if n := testing.AllocsPerRun(50, func() { ClassifyMatrixWithConfidence(knn, m) }); n != 0 {
		t.Fatalf("ClassifyMatrixWithConfidence allocates %v times per call", n)
	}
}

var classSink Class

// BenchmarkTrain meters TrainKNN, what a non-default seed's
// NewPatternClassifier pays: the 420-matrix corpus and its kNN. Set it
// against BenchmarkDefaultKNN, what the shipped model costs instead.
func BenchmarkTrain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TrainKNN(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassify is the layer's in-package meter: one window's
// classification (features + k = 5 vote over the default 420-point corpus).
func BenchmarkClassify(b *testing.B) {
	knn, err := TrainKNN(1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, threads := range []int{8, 32, 64} {
		m := Generate(StructuredGrid, threads, rng)
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				classSink, _ = ClassifyMatrixWithConfidence(knn, m)
			}
		})
	}
}
