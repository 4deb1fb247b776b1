// Package obs is the profiler's self-observability layer: a dependency-free,
// concurrency-safe metrics registry (counters, gauges, histograms with fixed
// log2 buckets) plus a span-based run tracer for the profiling pipeline's
// phases. The paper's whole evaluation (Fig. 4 slowdown, Fig. 5 memory, the
// signature false-positive sweep) is about the profiler's own runtime
// behaviour; this package makes those quantities watchable while a run is in
// flight instead of only in end-of-run aggregates.
//
// Design constraints:
//
//   - Dependency-free: only the standard library, so every internal package
//     can import it without cycles.
//   - Nil-safe: all instrument methods are no-ops on nil receivers, so hot
//     layers thread *Counter / *Histogram fields through behind a single
//     nil check on the enclosing probes struct and the uninstrumented path
//     stays allocation-free.
//   - Lock-free updates: counters, gauges and histogram buckets are plain
//     atomics; the analysis runs inside the target program's own threads
//     and must not serialize them.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil *Counter is a no-op, which is how disabled probes cost nothing.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down, stored as float64 bits.
// A nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates a distribution of uint64 observations into fixed
// log2 buckets: bucket i counts values whose bit length is i, i.e. values in
// [2^(i-1), 2^i). Bucket 0 counts zeros. Fixed geometry means no allocation
// and no configuration on the hot path. A nil *Histogram is a no-op.
type Histogram struct {
	buckets [65]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveN records n observations of v at the cost of one: the batch form a
// hot loop uses after tallying a run of equal values itself.
func (h *Histogram) ObserveN(v, n uint64) {
	if h == nil || n == 0 {
		return
	}
	h.buckets[bits.Len64(v)].Add(n)
	h.count.Add(n)
	h.sum.Add(v * n)
}

// Sum returns the total of all observed values (0 on nil). For the stage
// latency histograms, whose observations are nanoseconds, this is the
// stage's total time.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket is one cell of a histogram snapshot: Count observations were at
// most UpperBound.
type Bucket struct {
	UpperBound uint64 `json:"le"`
	Count      uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"` // cumulative, trailing-empty trimmed
}

// Snapshot copies the histogram's current state. Buckets are cumulative (the
// Prometheus convention) and trimmed after the last bucket with growth.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	var cum uint64
	last := -1
	raw := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		raw[i] = h.buckets[i].Load()
		if raw[i] > 0 {
			last = i
		}
	}
	for i := 0; i <= last; i++ {
		cum += raw[i]
		ub := uint64(math.MaxUint64)
		if i < 64 {
			ub = (uint64(1) << i) - 1 // bit length i ⇒ v ≤ 2^i − 1
		}
		s.Buckets = append(s.Buckets, Bucket{UpperBound: ub, Count: cum})
	}
	return s
}

// Registry holds named metrics. Get-or-create lookups take a short lock;
// the returned handles update lock-free, so callers resolve names once at
// wiring time and never on the hot path. A nil *Registry returns nil handles
// (which are themselves no-ops), so a whole telemetry configuration can be
// switched off by a single nil.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() float64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		gaugeFns: map[string]func() float64{},
		hists:    map[string]*Histogram{},
	}
}

// validName enforces the Prometheus metric-name charset so exports never
// produce an unparsable dump. Violations panic: metric names are compile-time
// constants, so a bad one is a configuration bug, matching this repository's
// convention (cf. comm.NewMatrix).
func validName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
}

// checkUnique panics when name is already registered under a different kind.
// mu must be held.
func (r *Registry) checkUnique(name, kind string) {
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic(fmt.Sprintf("obs: %s %q already registered as counter", kind, name))
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic(fmt.Sprintf("obs: %s %q already registered as gauge", kind, name))
	}
	if _, ok := r.gaugeFns[name]; ok && kind != "gaugefunc" {
		panic(fmt.Sprintf("obs: %s %q already registered as gauge func", kind, name))
	}
	if _, ok := r.hists[name]; ok && kind != "histogram" {
		panic(fmt.Sprintf("obs: %s %q already registered as histogram", kind, name))
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	validName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkUnique(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	validName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkUnique(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// GaugeFunc registers a pull-based gauge: fn is evaluated at snapshot/export
// time. Re-registering a name replaces the previous function, so a registry
// can be reused across runs with each run wiring its own live objects.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	validName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkUnique(name, "gaugefunc")
	r.gaugeFns[name] = fn
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	validName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkUnique(name, "histogram")
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry. Gauge
// functions are evaluated into Gauges alongside the set gauges.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every registered metric. Safe to call concurrently with
// updates; values are per-metric atomic reads, not a global cut.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]uint64{}, Gauges: map[string]float64{}}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	fns := make(map[string]func() float64, len(r.gaugeFns))
	for k, v := range r.gaugeFns {
		fns[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()
	// Evaluate outside the lock: gauge functions may read live run state.
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, fn := range fns {
		s.Gauges[k] = fn()
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for k, h := range hists {
			s.Histograms[k] = h.Snapshot()
		}
	}
	return s
}

// sortedKeys returns map keys in deterministic order for rendering.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
