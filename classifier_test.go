package commprof

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"commprof/internal/comm"
	"commprof/internal/obs"
	"commprof/internal/patterns"
	"commprof/internal/trace"
)

// TestPatternClassifierConcurrent drives NewPatternClassifier from eight
// goroutines over four seeds, classifying as they go: every classifier
// predicts exactly what one built serially from the same seed does. Seeds 0
// and 42 share the shipped default model, so four goroutines classify with
// one *KNN at once; 3 and 5 train their own.
func TestPatternClassifierConcurrent(t *testing.T) {
	seeds := []int64{0, 42, 3, 5}
	rng := rand.New(rand.NewSource(1))
	var queries []*comm.Matrix
	for c := patterns.Class(0); c < patterns.NumClasses; c++ {
		for _, n := range []int{8, 16, 32} {
			m := patterns.Generate(c, n, rng)
			patterns.AddSignatureNoise(m, 0.1, rng)
			queries = append(queries, m)
		}
	}
	type prediction struct {
		class patterns.Class
		conf  float64
	}
	predict := func(cls patterns.Classifier) []prediction {
		out := make([]prediction, len(queries))
		for i, m := range queries {
			out[i].class, out[i].conf = patterns.ClassifyMatrixWithConfidence(cls, m)
		}
		return out
	}

	var wg sync.WaitGroup
	preds := make([][]prediction, 8)
	errs := make([]error, 8)
	for g := range preds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c *PatternClassifier
			if c, errs[g] = NewPatternClassifier(seeds[g%len(seeds)]); errs[g] == nil {
				preds[g] = predict(c.knn)
			}
		}()
	}
	wg.Wait()
	for i, seed := range seeds {
		serial, err := NewPatternClassifier(seed)
		if err != nil {
			t.Fatal(err)
		}
		want := predict(serial.knn)
		for g := i; g < len(preds); g += len(seeds) {
			if errs[g] != nil {
				t.Fatal(errs[g])
			}
			if !reflect.DeepEqual(preds[g], want) {
				t.Fatalf("seed %d: goroutine %d predicts %v, serially trained %v", seed, g, preds[g], want)
			}
		}
	}
}

// TestPhaseStateTrainsNothing pins that a run's phase layer costs no training
// at a non-default seed: after the process has decoded the shipped model once,
// newPhaseState allocates under 64 KiB where training allocates ~1.8 MB. The
// least of three measurements, against other goroutines' allocations.
func TestPhaseStateTrainsNothing(t *testing.T) {
	opts := Options{Seed: 7, PhaseWindow: 3000}
	build := func() {
		if _, err := newPhaseState(opts, trace.NewTable(), nil, obs.Probes{}); err != nil {
			t.Fatal(err)
		}
	}
	build()
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 64<<10 {
		t.Fatalf("newPhaseState allocated %d bytes at Seed 7: is the run training a classifier again?", least)
	}
}

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

// countPhaseClassifications makes every run's phase layer classify through a
// counter for the rest of the test.
func countPhaseClassifications(t *testing.T) *countingClassifier {
	t.Helper()
	orig := phaseClassifier
	cc := &countingClassifier{}
	phaseClassifier = func() (patterns.Classifier, error) {
		c, err := orig()
		if err != nil {
			return nil, err
		}
		cc.inner = c.(patterns.ConfidenceClassifier)
		return cc, nil
	}
	t.Cleanup(func() { phaseClassifier = orig })
	return cc
}

// TestReplayClassifiesEachWindowOnce pins the phase layer's classification
// count end to end, through Replay with PhaseWindow: one per closed window
// plus one per loop of the report's digest, with telemetry (the live layer
// classifies, the report reuses) or without; a /progress snapshot adds at
// most phaseMaxLoops, and a second one over unchanged loops none. Every run
// reports the same timeline.
func TestReplayClassifiesEachWindowOnce(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(Options{Workload: "fft", Threads: 8}, &buf); err != nil {
		t.Fatal(err)
	}
	cc := countPhaseClassifications(t)
	var first *PhaseTimelineReport
	for _, c := range []struct {
		name      string
		opts      Options
		telemetry bool
	}{
		{"replay-full shape", Options{AnalysisShards: 2, RedundancyCacheBits: 10, AccuracyTargetFPR: 0.05, PhaseWindow: 3000}, true},
		{"in-thread, telemetry", Options{PhaseWindow: 3000}, true},
		{"in-thread", Options{PhaseWindow: 3000}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var tel *Telemetry
			if c.telemetry {
				tel = NewTelemetry()
				defer tel.Close()
				c.opts.Telemetry = tel
			}
			cc.n.Store(0)
			rep, err := Replay(bytes.NewReader(buf.Bytes()), 8, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			tl := rep.PhaseTimeline
			if want := int64(len(tl.Windows) + len(tl.Loops)); cc.n.Load() != want || len(tl.Loops) == 0 {
				t.Fatalf("%d classifications, want %d windows + %d digest loops", cc.n.Load(), len(tl.Windows), len(tl.Loops))
			}
			if first == nil {
				first = tl
			} else if !reflect.DeepEqual(tl, first) {
				t.Fatalf("timeline differs from the first run's:\n%+v\n%+v", tl, first)
			}
			if tel == nil {
				return
			}
			before := cc.n.Load()
			snap := tel.Progress()
			added := cc.n.Load() - before
			if len(snap.LoopPatterns) == 0 || added != int64(len(snap.LoopPatterns)) || added > phaseMaxLoops {
				t.Fatalf("/progress reported %d loops for %d classifications (bound %d)", len(snap.LoopPatterns), added, phaseMaxLoops)
			}
			tel.Progress()
			if again := cc.n.Load() - before - added; again != 0 {
				t.Fatalf("a second /progress over unchanged loops classified %d more", again)
			}
		})
	}
}
