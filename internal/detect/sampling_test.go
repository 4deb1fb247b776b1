package detect

import (
	"math/rand"
	"testing"

	"commprof/internal/sig"
	"commprof/internal/trace"
)

// gated feeds a to d when g admits it.
func gated(g *Gate, d *Detector, a trace.Access) {
	if g.Admit(a.Kind, a.Thread) {
		d.Process(a)
	}
}

func TestNewGateValidation(t *testing.T) {
	if _, err := NewGate(4, 0); err == nil {
		t.Error("sampling period 0 accepted")
	}
	if _, err := NewGate(0, 1); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := NewGate(4, 1); err != nil {
		t.Errorf("full sampling rejected: %v", err)
	}
}

func TestFullSamplingMatchesDetector(t *testing.T) {
	// Period 1 must behave exactly like the ungated detector.
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
	g, err := NewGate(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range gen() {
		gated(g, d2, a)
	}
	if !d1.Global().Equal(d2.Global()) {
		t.Fatal("full sampling diverged from plain detection")
	}
}

func TestSamplingNeverSkipsWrites(t *testing.T) {
	d := newDetector(t, 2, nil)
	g, err := NewGate(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Writes only: all must be processed.
	for i := 0; i < 100; i++ {
		gated(g, d, trace.Access{Time: uint64(i), Addr: 8, Size: 8, Thread: 0, Kind: trace.Write, Region: trace.NoRegion})
	}
	if d.Stats().Processed != 100 {
		t.Fatalf("processed %d writes, want 100", d.Stats().Processed)
	}
}

func BenchmarkSampledProcess(b *testing.B) {
	s, _ := sig.NewAsymmetric(sig.Options{Slots: 1 << 20, Threads: 32})
	d, _ := New(Options{Threads: 32, Backend: s})
	g, _ := NewGate(32, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kind := trace.Read
		if i%4 == 0 {
			kind = trace.Write
		}
		gated(g, d, trace.Access{Time: uint64(i), Addr: uint64(i&0xffff) * 8, Size: 8, Thread: int32(i & 31), Kind: kind, Region: trace.NoRegion})
	}
}
