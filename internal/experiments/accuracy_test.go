package experiments

import (
	"testing"

	"commprof/internal/accuracy"
	"commprof/internal/detect"
	"commprof/internal/sig"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// monitoredFPR runs one workload under the online accuracy monitor (the
// production asymmetric detector with a shadow slice) and returns the
// monitor's estimate.
func monitoredFPR(t *testing.T, env Env, app string, size splash.Size, slots uint64, bits uint, seed uint64) accuracy.Estimate {
	t.Helper()
	prog, err := splash.New(app, splash.Config{Threads: env.Threads, Size: size, Seed: env.Seed})
	if err != nil {
		t.Fatal(err)
	}
	asym, err := env.newSignature(slots, sig.HashMurmur)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := accuracy.New(accuracy.Options{
		Threads: env.Threads, SampleBits: bits, TargetFPR: accuracy.DefaultTargetFPR, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := detect.New(detect.Options{Threads: env.Threads, Backend: asym, Accuracy: mon})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run(newEngine(env, func(a trace.Access) { d.Process(a) })); err != nil {
		t.Fatal(err)
	}
	return accuracy.EstimateFrom(mon.Stats(), bits, accuracy.DefaultTargetFPR)
}

// TestOnlineFPRMatchesOfflineSweep is the estimator's ground-truth
// cross-check: at full sampling (AccuracySampleBits = 0) the online
// monitor's trial and false-positive counts must equal the offline §V-A3
// methodology (fprOne's lockstep exact diff) exactly — same workload, same
// signature size, same deterministic stream.
func TestOnlineFPRMatchesOfflineSweep(t *testing.T) {
	env := DefaultEnv()
	env.Threads = 16
	const app = "fft"
	for _, slots := range []uint64{256, 4096} {
		cell, err := fprOne(env, app, splash.SimSmall, slots)
		if err != nil {
			t.Fatal(err)
		}
		est := monitoredFPR(t, env, app, splash.SimSmall, slots, 0, 0)
		if est.SigEvents != cell.SigEvents || est.FalsePositives != cell.FalsePos {
			t.Errorf("slots=%d: online %d events / %d fp, offline %d / %d",
				slots, est.SigEvents, est.FalsePositives, cell.SigEvents, cell.FalsePos)
		}
		if est.EstimatedFPR != cell.FPR {
			t.Errorf("slots=%d: online FPR %v, offline %v", slots, est.EstimatedFPR, cell.FPR)
		}
		if cell.SigEvents == 0 {
			t.Fatalf("slots=%d: offline sweep saw no events; cross-check is vacuous", slots)
		}
	}
}

// TestSampledEstimateCoverage validates the shadow-sampling estimator at
// 1/8 sampling across 20 different sample-selector seeds against the true
// (full-sampling) FPR. Two properties are asserted:
//
//  1. Unbiasedness: the mean of the 20 sampled estimates is within 3 FPR
//     points of the truth. The hash selector is an unbiased 1/2^k sample of
//     granules, so slice estimates average out to the population FPR.
//  2. Concentration: each individual estimate lands within the truth-centred
//     band [truth-0.1, truth+0.1] in at least 18 of 20 slices, and the
//     truth lands inside each estimate's Wilson CI widened by 0.05 in at
//     least 18 of 20.
//
// Strict access-level Wilson coverage is deliberately NOT asserted: the
// interval counts each signature event as an independent trial, but events
// cluster by granule (a hot granule contributes thousands of correlated
// verdicts), so the effective sample size is nearer the granule count and
// the raw interval undercovers — empirically ~50-85% here instead of 95%.
// The widened band is what the interval is used for operationally (the
// alarm fires on FPRLow > target, a one-sided test that clustering makes
// conservative in the other direction).
func TestSampledEstimateCoverage(t *testing.T) {
	env := DefaultEnv()
	env.Threads = 16
	const app = "fft"
	const slots = 1024 // saturated: FPR high enough that every slice sees events
	truth := monitoredFPR(t, env, app, splash.SimSmall, slots, 0, 0)
	if truth.SigEvents == 0 {
		t.Fatal("no events at full sampling")
	}
	var sum float64
	inBand, ciCovered, nonEmpty := 0, 0, 0
	for seed := uint64(1); seed <= 20; seed++ {
		est := monitoredFPR(t, env, app, splash.SimSmall, slots, 3, seed)
		if est.SigEvents == 0 {
			continue
		}
		nonEmpty++
		sum += est.EstimatedFPR
		if est.EstimatedFPR >= truth.EstimatedFPR-0.1 && est.EstimatedFPR <= truth.EstimatedFPR+0.1 {
			inBand++
		}
		if truth.EstimatedFPR >= est.FPRLow-0.05 && truth.EstimatedFPR <= est.FPRHigh+0.05 {
			ciCovered++
		}
	}
	if nonEmpty < 18 {
		t.Fatalf("only %d of 20 slices saw signature events; sample too thin for coverage check", nonEmpty)
	}
	if mean := sum / float64(nonEmpty); mean < truth.EstimatedFPR-0.03 || mean > truth.EstimatedFPR+0.03 {
		t.Errorf("sampled estimates biased: mean %.4f vs truth %.4f", mean, truth.EstimatedFPR)
	}
	if inBand < 18 {
		t.Errorf("only %d of %d sampled estimates within ±0.1 of truth %.4f", inBand, nonEmpty, truth.EstimatedFPR)
	}
	if ciCovered < 18 {
		t.Errorf("truth %.4f inside only %d of %d widened CIs", truth.EstimatedFPR, ciCovered, nonEmpty)
	}
}
