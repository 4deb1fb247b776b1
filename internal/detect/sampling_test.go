package detect

import (
	"math/rand"
	"testing"

	"commprof/internal/comm"
	"commprof/internal/sig"
	"commprof/internal/trace"
)

func TestNewSamplerValidation(t *testing.T) {
	d := newDetector(t, 4, nil)
	for _, bad := range [][2]uint32{{0, 4}, {4, 0}, {5, 4}} {
		if _, err := NewSampler(d, bad[0], bad[1]); err == nil {
			t.Errorf("sampling %v accepted", bad)
		}
	}
	if _, err := NewSampler(d, 1, 1); err != nil {
		t.Errorf("full sampling rejected: %v", err)
	}
}

func TestFullSamplingMatchesDetector(t *testing.T) {
	// burst == period must behave exactly like the unwrapped detector.
	gen := func() []trace.Access {
		rng := rand.New(rand.NewSource(5))
		var as []trace.Access
		for i := 0; i < 5000; i++ {
			as = append(as, trace.Access{
				Time:   uint64(i),
				Addr:   uint64(0x1000 + 8*rng.Intn(256)),
				Size:   8,
				Thread: int32(rng.Intn(4)),
				Kind:   trace.Kind(rng.Intn(2)),
				Region: trace.NoRegion,
			})
		}
		return as
	}
	d1 := newDetector(t, 4, nil)
	d1.ProcessBatch(gen())

	d2 := newDetector(t, 4, nil)
	s, err := NewSampler(d2, 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range gen() {
		s.Process(a)
	}
	if !d1.Global().Equal(d2.Global()) {
		t.Fatal("full sampling diverged from plain detection")
	}
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
	full := newDetector(t, 4, nil)
	gen(func(a trace.Access) { full.Process(a) })

	sampledD := newDetector(t, 4, nil)
	smp, err := NewSampler(sampledD, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	gen(func(a trace.Access) { smp.Process(a) })

	fullStats, sampStats := full.Stats(), sampledD.Stats()
	if sampStats.Processed >= fullStats.Processed {
		t.Fatalf("sampling did not reduce processed accesses: %d vs %d", sampStats.Processed, fullStats.Processed)
	}
	// Shape preserved.
	if fid := Fidelity(full.Global(), sampledD.Global()); fid < 0.95 {
		t.Fatalf("sampled shape fidelity %v < 0.95", fid)
	}
	// Scaled volume within 40% of the truth.
	scaled := smp.ScaledGlobal().Total()
	truth := full.Global().Total()
	ratio := float64(scaled) / float64(truth)
	if ratio < 0.6 || ratio > 1.4 {
		t.Fatalf("scaled estimate %d vs truth %d (ratio %v)", scaled, truth, ratio)
	}
	if smp.SampleFraction() != 0.25 {
		t.Fatalf("SampleFraction = %v", smp.SampleFraction())
	}
	if smp.Detector() != sampledD {
		t.Fatal("Detector() identity")
	}
}

func TestSamplingNeverSkipsWrites(t *testing.T) {
	d := newDetector(t, 2, nil)
	smp, err := NewSampler(d, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Writes only: all must be processed.
	for i := 0; i < 100; i++ {
		smp.Process(trace.Access{Time: uint64(i), Addr: 8, Size: 8, Thread: 0, Kind: trace.Write, Region: trace.NoRegion})
	}
	if d.Stats().Processed != 100 {
		t.Fatalf("processed %d writes, want 100", d.Stats().Processed)
	}
}

func TestFidelity(t *testing.T) {
	a := comm.NewMatrix(2)
	a.Add(0, 1, 100)
	b := comm.NewMatrix(2)
	b.Add(0, 1, 25) // same shape, quarter volume
	if f := Fidelity(a, b); f < 0.999 {
		t.Fatalf("same-shape fidelity %v", f)
	}
	c := comm.NewMatrix(2)
	c.Add(1, 0, 100)
	if f := Fidelity(a, c); f != 0 {
		t.Fatalf("orthogonal fidelity %v", f)
	}
	if f := Fidelity(comm.NewMatrix(2), comm.NewMatrix(2)); f != 1 {
		t.Fatalf("zero-zero fidelity %v", f)
	}
}

func TestFidelityDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Fidelity(comm.NewMatrix(2), comm.NewMatrix(3))
}

func BenchmarkSampledProcess(b *testing.B) {
	s, _ := sig.NewAsymmetric(sig.Options{Slots: 1 << 20, Threads: 32})
	d, _ := New(Options{Threads: 32, Backend: s})
	smp, _ := NewSampler(d, 1, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kind := trace.Read
		if i%4 == 0 {
			kind = trace.Write
		}
		smp.Process(trace.Access{Time: uint64(i), Addr: uint64(i&0xffff) * 8, Size: 8, Thread: int32(i & 31), Kind: kind, Region: trace.NoRegion})
	}
}
