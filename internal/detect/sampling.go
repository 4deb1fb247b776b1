package detect

import (
	"fmt"
	"math"

	"commprof/internal/comm"
	"commprof/internal/trace"
)

// Sampler wraps a Detector with read sampling — the paper's §VII outlook
// ("in the future we plan to apply sampling technique to reduce the overhead
// of instrumentation").
//
// Writes are always forwarded: skipping them would corrupt the last-writer
// record and reader-set invalidation, turning undersampling into wrong
// attribution rather than mere volume loss. Reads are analysed in bursts:
// for each window of Period reads per thread, the first Burst are processed
// and the rest bypass the signature entirely (paying only a counter
// increment, the cheap path that reduces overhead). Detected volumes
// therefore underestimate true communication by roughly Burst/Period;
// ScaledGlobal rescales for comparison with full profiling.
type Sampler struct {
	d    *Detector
	gate *Gate
}

// Gate is the burst/period read-admission policy underlying the Sampler,
// extracted so the facade's pre-enqueue read thinning (Options.SamplePeriod,
// in front of either engine) shares one definition: of
// every Period reads per thread, the first Burst are admitted. Each phase
// counter is only ever advanced by its own thread, so a Gate is safe in
// parallel engine mode without atomics.
type Gate struct {
	burst  uint32
	period uint32
	// Per-thread read counters; sized at construction.
	phase []uint32
}

// NewGate builds an admission gate for the given thread count. burst must be
// in [1, period].
func NewGate(threads int, burst, period uint32) (*Gate, error) {
	if threads <= 0 {
		return nil, fmt.Errorf("detect: gate needs a positive thread count, got %d", threads)
	}
	if burst == 0 || period == 0 || burst > period {
		return nil, fmt.Errorf("detect: invalid sampling %d/%d (need 1 <= burst <= period)", burst, period)
	}
	return &Gate{burst: burst, period: period, phase: make([]uint32, threads)}, nil
}

// Admit reports whether tid's next read should be analysed, advancing tid's
// burst/period phase.
func (g *Gate) Admit(tid int32) bool {
	p := g.phase[tid]
	g.phase[tid] = (p + 1) % g.period
	return p < g.burst
}

// Fraction returns the admitted fraction burst/period.
func (g *Gate) Fraction() float64 { return float64(g.burst) / float64(g.period) }

// NewSampler wraps d so that burst of every period reads are analysed.
// burst must be in [1, period].
func NewSampler(d *Detector, burst, period uint32) (*Sampler, error) {
	gate, err := NewGate(d.opts.Threads, burst, period)
	if err != nil {
		return nil, err
	}
	return &Sampler{d: d, gate: gate}, nil
}

// Process forwards one access, applying read sampling. It reports whether
// the access produced a communication event.
func (s *Sampler) Process(a trace.Access) (Event, bool) {
	if a.Kind == trace.Write {
		return s.d.Process(a)
	}
	if !s.gate.Admit(a.Thread) {
		return Event{}, false
	}
	return s.d.Process(a)
}

// Probe adapts the sampler to the executor hook. In parallel engine mode the
// per-thread phase counters are only touched by their own thread, so this is
// safe.
func (s *Sampler) Probe() func(trace.Access) {
	return func(a trace.Access) { s.Process(a) }
}

// Detector returns the wrapped detector.
func (s *Sampler) Detector() *Detector { return s.d }

// SampleFraction returns the configured analysed fraction of reads.
func (s *Sampler) SampleFraction() float64 { return s.gate.Fraction() }

// ScaledGlobal returns the global matrix rescaled by 1/SampleFraction, the
// estimator for the unsampled communication volume.
func (s *Sampler) ScaledGlobal() *comm.Matrix {
	m := s.d.Global()
	out := comm.NewMatrix(m.N())
	scale := 1 / s.SampleFraction()
	for src := 0; src < m.N(); src++ {
		for dst := 0; dst < m.N(); dst++ {
			if v := m.At(src, dst); v > 0 {
				out.Add(int32(src), int32(dst), uint64(float64(v)*scale+0.5))
			}
		}
	}
	return out
}

// Fidelity quantifies how well a sampled matrix preserves the full matrix's
// shape: the cosine similarity of the two matrices viewed as vectors
// (1 = identical shape). Both all-zero yields 1; exactly one all-zero
// yields 0. (Kept local to avoid a dependency cycle with internal/metrics,
// which consumes this package's events.)
func Fidelity(full, sampled *comm.Matrix) float64 {
	if full.N() != sampled.N() {
		panic(fmt.Sprintf("detect: dimension mismatch %d vs %d", full.N(), sampled.N()))
	}
	var dot, na, nb float64
	n := full.N()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			av, bv := float64(full.At(s, d)), float64(sampled.At(s, d))
			dot += av * bv
			na += av * av
			nb += bv * bv
		}
	}
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}
