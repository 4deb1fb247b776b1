package detect

import (
	"fmt"

	"commprof/internal/trace"
)

// Gate is read sampling — the paper's §VII outlook ("in the future we plan to
// apply sampling technique to reduce the overhead of instrumentation") — as
// one admission policy in front of the analyser: of every period reads per
// thread, the first is analysed and the rest bypass the signature entirely
// (paying only a counter increment, the cheap path that reduces overhead).
// Detected volumes therefore underestimate true communication by roughly
// 1/period.
//
// Writes are always admitted: skipping them would corrupt the last-writer
// record and reader-set invalidation, turning undersampling into wrong
// attribution rather than mere volume loss.
//
// A Gate sits on the analyser's one time-ordered feed (the executor's turn,
// a replay loop), so it has one caller at a time and needs no atomics.
type Gate struct {
	period uint32
	// Per-thread read counters; sized at construction.
	phase []uint32
}

// NewGate builds an admission gate for the given thread count analysing one
// of every period reads; period 1 admits every read.
func NewGate(threads int, period uint32) (*Gate, error) {
	if threads <= 0 {
		return nil, fmt.Errorf("detect: gate needs a positive thread count, got %d", threads)
	}
	if period == 0 {
		return nil, fmt.Errorf("detect: sampling period must be positive")
	}
	return &Gate{period: period, phase: make([]uint32, threads)}, nil
}

// Admit reports whether an access of the given kind by tid should be
// analysed. A read advances tid's phase; a write always passes.
func (g *Gate) Admit(kind trace.Kind, tid int32) bool {
	if kind == trace.Write {
		return true
	}
	p := g.phase[tid]
	g.phase[tid] = (p + 1) % g.period
	return p == 0
}

// Fraction returns the admitted fraction of reads, 1/period.
func (g *Gate) Fraction() float64 { return 1 / float64(g.period) }
