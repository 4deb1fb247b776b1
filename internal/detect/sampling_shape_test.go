// External test package: metrics imports detect, so the shape check that
// uses metrics.CosineSimilarity cannot live inside package detect.
package detect_test

import (
	"testing"

	"commprof/internal/detect"
	"commprof/internal/metrics"
	"commprof/internal/sig"
	"commprof/internal/trace"
)

func newShapeDetector(t *testing.T) *detect.Detector {
	t.Helper()
	s, err := sig.NewAsymmetric(sig.Options{Slots: 1 << 18, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	d, err := detect.New(detect.Options{Threads: 4, Backend: s})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSamplingReducesWorkPreservesShape(t *testing.T) {
	// A stable producer->consumer stream; quarter-rate sampling must skip
	// ~3/4 of reads yet preserve the matrix's shape and (scaled) volume.
	gen := func(process func(trace.Access)) {
		tm := uint64(0)
		for round := 0; round < 400; round++ {
			for i := 0; i < 16; i++ {
				tm++
				process(trace.Access{Time: tm, Addr: uint64(0x100 + 8*i), Size: 8, Thread: int32(i % 2), Kind: trace.Write, Region: trace.NoRegion})
			}
			for i := 0; i < 16; i++ {
				tm++
				process(trace.Access{Time: tm, Addr: uint64(0x100 + 8*i), Size: 8, Thread: int32(2 + i%2), Kind: trace.Read, Region: trace.NoRegion})
			}
		}
	}
	full := newShapeDetector(t)
	gen(func(a trace.Access) { full.Process(a) })

	sampled := newShapeDetector(t)
	g, err := detect.NewGate(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	gen(func(a trace.Access) {
		if g.Admit(a.Kind, a.Thread) {
			sampled.Process(a)
		}
	})

	fullStats, sampStats := full.Stats(), sampled.Stats()
	if sampStats.Processed >= fullStats.Processed {
		t.Fatalf("sampling did not reduce processed accesses: %d vs %d", sampStats.Processed, fullStats.Processed)
	}
	// Shape preserved: the same producer→consumer cells carry traffic, in
	// the same proportions.
	fm, sm := full.Global(), sampled.Global()
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			if (fm.At(src, dst) == 0) != (sm.At(src, dst) == 0) {
				t.Fatalf("cell (%d,%d): full %d bytes, sampled %d", src, dst, fm.At(src, dst), sm.At(src, dst))
			}
		}
	}
	if fid := metrics.CosineSimilarity(fm, sm); fid < 0.95 {
		t.Fatalf("sampled shape fidelity %v < 0.95", fid)
	}
	// Scaled volume within 40% of the truth.
	if g.Fraction() != 0.25 {
		t.Fatalf("Fraction = %v", g.Fraction())
	}
	ratio := float64(sm.Total()) / g.Fraction() / float64(fm.Total())
	if ratio < 0.6 || ratio > 1.4 {
		t.Fatalf("scaled estimate %v of the truth", ratio)
	}
}
