package experiments

import (
	"strings"
	"testing"

	"commprof/internal/splash"
)

func TestSamplingAblation(t *testing.T) {
	res, err := SamplingAblation(testEnv(), "lu_ncb", splash.SimDev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	full := res.Rows[0]
	if full.Fraction != 1 || full.Fidelity < 0.999 {
		t.Fatalf("full-rate row wrong: %+v", full)
	}
	// Fidelity stays reasonable even at 1/16 and fractions descend.
	for i := 1; i < len(res.Rows); i++ {
		r := res.Rows[i]
		if r.Fraction >= res.Rows[i-1].Fraction {
			t.Fatalf("fractions not descending at %d", i)
		}
		if r.Fidelity < 0.7 {
			t.Errorf("fidelity at 1/%d = %v; sampled shape collapsed", r.Period, r.Fidelity)
		}
		if r.VolumeRatio < 0.4 || r.VolumeRatio > 2.0 {
			t.Errorf("volume estimate at 1/%d off: %v", r.Period, r.VolumeRatio)
		}
	}
	if !strings.Contains(res.Render(), "fidelity") {
		t.Error("render incomplete")
	}
}

func TestSparseAblation(t *testing.T) {
	res, err := SparseAblation(testEnv(), splash.SimDev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The synthetic rings at high thread counts must favour sparse storage.
	ringWins := 0
	for _, r := range res.Rows {
		if strings.HasPrefix(r.Label, "ring-") {
			if r.Winner == "sparse" {
				ringWins++
			}
			if r.NonZero != 2*r.Threads {
				t.Errorf("%s nonzero = %d, want %d", r.Label, r.NonZero, 2*r.Threads)
			}
		}
	}
	if ringWins < 3 {
		t.Fatalf("sparse won only %d/4 ring configurations", ringWins)
	}
	if !strings.Contains(res.Render(), "winner") {
		t.Error("render incomplete")
	}
}

func TestThroughputComparison(t *testing.T) {
	res, err := Throughput(testEnv(), "fft", splash.SimDev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d: %+v", len(res.Rows), res.Rows)
	}
	analysed := map[string]uint64{}
	for _, r := range res.Rows {
		if r.Events == 0 || r.MEventsPerS <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		analysed[r.Name] = r.Analysed
	}
	// What the experiment determines is how much work each profiler does:
	// sampling must analyse fewer accesses than full analysis, every other
	// row all of them. Which of two ~30 ms wall-clock rows comes out ahead
	// is the host's business, not the test's.
	events := res.Rows[0].Events
	if s := analysed["discopop-sampled-1/8"]; s == 0 || s >= analysed["discopop"] {
		t.Errorf("sampling analysed %d accesses, full analysis %d", s, analysed["discopop"])
	}
	for name, n := range analysed {
		if name != "discopop-sampled-1/8" && n != events {
			t.Errorf("%s analysed %d of %d accesses", name, n, events)
		}
	}
	if !strings.Contains(res.Render(), "Mevents/s") {
		t.Error("render incomplete")
	}
}

func TestPhasesSegmentsRadix(t *testing.T) {
	res, err := Phases(testEnv(), "radix", splash.SimDev)
	if err != nil {
		t.Fatal(err)
	}
	// radix alternates reduction and scatter phases: more than one phase
	// must be detected (the whole point of §V-A4).
	if len(res.Phases) < 2 {
		t.Fatalf("only %d phases detected", len(res.Phases))
	}
	var vol uint64
	for i, ph := range res.Phases {
		if ph.End <= ph.Start {
			t.Fatalf("phase %d interval invalid", i)
		}
		vol += ph.Matrix.Total()
	}
	if vol == 0 {
		t.Fatal("no communication in any phase")
	}
	if !res.Identical {
		t.Fatal("sharded merged window set differs from the serial segmenter's")
	}
	if len(res.Timeline.Windows) == 0 {
		t.Fatal("no classified timeline windows")
	}
	var windowed uint64
	for _, w := range res.Timeline.Windows {
		windowed += w.Bytes
	}
	if windowed != vol {
		t.Fatalf("timeline bytes %d != phase bytes %d", windowed, vol)
	}
	out := res.Render()
	for _, want := range []string{"phase 1", "radix", "BIT-IDENTICAL", "classified timeline"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestHashAblationMurmurWins(t *testing.T) {
	res, err := HashAblation(testEnv(), splash.SimDev, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var mSum, fSum float64
	for _, r := range res.Rows {
		mSum += r.MurmurFPR
		fSum += r.FoldFPR
	}
	// The paper's justification for MurmurHash: fewer collisions. On
	// average over strided workloads the weak fold must be worse.
	if mSum >= fSum {
		t.Fatalf("murmur avg FPR %.3f not better than fold %.3f", mSum/6, fSum/6)
	}
	if !strings.Contains(res.Render(), "murmur") {
		t.Error("render incomplete")
	}
}

func TestQueueArchitecture(t *testing.T) {
	res, err := Queue(testEnv(), "radix", splash.SimDev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Events == 0 {
		t.Fatalf("result shape: %+v", res)
	}
	byRegime := map[string]QueueRow{}
	for _, r := range res.Rows {
		if !r.MatrixMatches {
			t.Fatalf("queued analysis (%s) diverged from in-thread", r.Regime)
		}
		byRegime[r.Regime] = r
	}
	// §V-A2's critique: a bursty producer overruns the analyser and the
	// queue grows toward the full stream, far beyond the paced regime.
	paced, bursty := byRegime["paced"], byRegime["bursty"]
	if bursty.PeakQueueLen < int(res.Events)/2 {
		t.Fatalf("bursty peak %d too small for %d events", bursty.PeakQueueLen, res.Events)
	}
	if paced.PeakQueueLen*4 > bursty.PeakQueueLen {
		t.Fatalf("paced peak %d not clearly below bursty %d", paced.PeakQueueLen, bursty.PeakQueueLen)
	}
	// On the virtual clock both peaks follow from the rate model: when the
	// n-th access of a run is issued the analyser has retired one per
	// queueAnalyserCost of the n-1 before it — over a paced run, and over the
	// whole bursty stream.
	peakAfter := func(n int) int { return n - (n-1)/queueAnalyserCost }
	if want := peakAfter(queuePacedBurst); paced.PeakQueueLen != want {
		t.Errorf("paced peak %d, rate model says %d", paced.PeakQueueLen, want)
	}
	if want := peakAfter(int(res.Events)); bursty.PeakQueueLen != want {
		t.Errorf("bursty peak %d, rate model says %d", bursty.PeakQueueLen, want)
	}
	if !strings.Contains(res.Render(), "peak queue") {
		t.Error("render incomplete")
	}
}

func TestFig2Walkthrough(t *testing.T) {
	res, err := Fig2(testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 10 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
	// The scripted scenario has exactly these communicating steps (1-based
	// times 2, 4, 7, 8): first reads of another thread's value; the final
	// T2 read follows T2's own write, so it does not communicate.
	wantComm := map[int]bool{1: true, 3: true, 6: true, 7: true}
	for i, s := range res.Steps {
		if s.Communicating != wantComm[i] {
			t.Errorf("step %d: communicating=%v, want %v", i+1, s.Communicating, wantComm[i])
		}
	}
	if !strings.Contains(res.Render(), "BLACK") {
		t.Error("render incomplete")
	}
}
