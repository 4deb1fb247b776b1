package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one finished phase of a profiling run, with both wall-clock and
// logical-clock extent. Logical clocks are 0 when the tracer had no clock
// source at the time (e.g. the workload-setup phase runs before the engine
// that owns the logical clock exists).
type Span struct {
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	WallNanos  int64     `json:"wall_nanos"`
	StartClock uint64    `json:"start_clock"`
	EndClock   uint64    `json:"end_clock"`
}

// Tracer records the profiling pipeline's phases (workload setup → engine
// run → tree build → report) as spans. Start/End nest: Current reports the
// innermost open span, which is what a live /progress snapshot shows as the
// run's phase. A nil *Tracer is a no-op.
type Tracer struct {
	clock atomic.Value // func() uint64; set once the engine exists

	mu    sync.Mutex
	open  []*SpanHandle
	spans []Span
}

// NewTracer returns an empty tracer with no logical-clock source.
func NewTracer() *Tracer { return &Tracer{} }

// SetClock installs the logical-clock source (typically exec.Engine.Clock).
// Open spans that started before the source existed are backfilled with the
// clock's value at install time — the earliest coherent reading — so a span
// like workload-setup no longer records a permanent StartClock 0 merely
// because it opened before the engine that owns the clock was built.
func (t *Tracer) SetClock(fn func() uint64) {
	if t == nil || fn == nil {
		return
	}
	t.clock.Store(fn)
	now := fn()
	t.mu.Lock()
	for _, h := range t.open {
		if h.startClock == 0 {
			h.startClock = now
		}
	}
	t.mu.Unlock()
}

func (t *Tracer) now() uint64 {
	if fn, ok := t.clock.Load().(func() uint64); ok {
		return fn()
	}
	return 0
}

// SpanHandle is an open span; call End to record it. A nil handle's End is a
// no-op, so callers never need to guard on a disabled tracer.
type SpanHandle struct {
	t          *Tracer
	name       string
	start      time.Time
	startClock uint64
}

// Start opens a span.
func (t *Tracer) Start(name string) *SpanHandle {
	if t == nil {
		return nil
	}
	h := &SpanHandle{t: t, name: name, start: time.Now(), startClock: t.now()}
	t.mu.Lock()
	t.open = append(t.open, h)
	t.mu.Unlock()
	return h
}

// End closes the span and records it. Ending out of order is tolerated (the
// handle is removed wherever it sits in the open stack).
func (h *SpanHandle) End() {
	if h == nil {
		return
	}
	t := h.t
	sp := Span{
		Name:      h.name,
		Start:     h.start,
		WallNanos: time.Since(h.start).Nanoseconds(),
		EndClock:  t.now(),
	}
	t.mu.Lock()
	// startClock is read under the tracer lock: SetClock backfills it on
	// open handles, possibly from another goroutine.
	sp.StartClock = h.startClock
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == h {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Current returns the name of the innermost open span, or "" when idle.
func (t *Tracer) Current() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.open); n > 0 {
		return t.open[n-1].name
	}
	return ""
}

// Spans returns a copy of the finished spans in completion order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}
