package comm

import (
	"fmt"
	"sort"
	"sync"
)

// Window is one fixed logical-time bucket of communication: the global
// sub-matrix of every event whose time falls in [Start, Start+windowSize),
// plus sparse per-region sub-matrices keyed by the reading access's innermost
// static region. Windows are bucketed by the globally-ordered access index
// the execution engine stamps on every access (one shared atomic clock), so
// any partition of the event stream — per analysis shard, per producer —
// assigns every event to the same window without coordination, and partial
// windows merge back by plain summation.
type Window struct {
	Start   uint64
	Global  *Matrix
	Regions map[int32]*Matrix
}

// AddWindow sums another window's matrices into w (the windows must share
// Start and dimension). Summation is commutative and associative, so shard
// partials merge in any order to the same result — the same argument that
// makes shard-partition and accuracy-monitor merges exact.
func (w *Window) AddWindow(o *Window) {
	w.Global.AddMatrix(o.Global)
	for region, m := range o.Regions {
		dst, ok := w.Regions[region]
		if !ok {
			dst = NewMatrix(m.N())
			w.Regions[region] = dst
		}
		dst.AddMatrix(m)
	}
}

// EqualWindow reports whether two windows hold identical matrices, global
// and per-region alike.
func (w *Window) EqualWindow(o *Window) bool {
	if w.Start != o.Start || !w.Global.Equal(o.Global) {
		return false
	}
	if len(w.Regions) != len(o.Regions) {
		return false
	}
	for region, m := range w.Regions {
		om, ok := o.Regions[region]
		if !ok || !m.Equal(om) {
			return false
		}
	}
	return true
}

// WindowSet accumulates time-windowed communication sub-matrices. It is safe
// for concurrent Observe calls (events are far rarer than accesses, so one
// mutex around the window map costs nothing measurable on the access hot
// path), and sets built from any partition of one event stream merge to the
// same result.
type WindowSet struct {
	threads int
	size    uint64

	mu   sync.Mutex
	wins map[uint64]*Window
}

// NewWindowSet builds an empty set with the given window length in
// logical-time units.
func NewWindowSet(threads int, windowSize uint64) (*WindowSet, error) {
	if threads <= 0 {
		return nil, fmt.Errorf("comm: window set threads must be positive, got %d", threads)
	}
	if windowSize == 0 {
		return nil, fmt.Errorf("comm: window size must be positive")
	}
	return &WindowSet{threads: threads, size: windowSize, wins: make(map[uint64]*Window)}, nil
}

// Threads returns the matrix dimension.
func (ws *WindowSet) Threads() int { return ws.threads }

// WindowSize returns the configured window length.
func (ws *WindowSet) WindowSize() uint64 { return ws.size }

// Observe records one communication event into its time window. region is
// the reading access's innermost static region (a negative id — NoRegion —
// records only into the global sub-matrix). Events may arrive in any order.
func (ws *WindowSet) Observe(time uint64, region, src, dst int32, bytes uint64) {
	start := time / ws.size * ws.size
	ws.mu.Lock()
	w, ok := ws.wins[start]
	if !ok {
		w = &Window{Start: start, Global: NewMatrix(ws.threads), Regions: make(map[int32]*Matrix)}
		ws.wins[start] = w
	}
	w.Global.Add(src, dst, bytes)
	if region >= 0 {
		rm, ok := w.Regions[region]
		if !ok {
			rm = NewMatrix(ws.threads)
			w.Regions[region] = rm
		}
		rm.Add(src, dst, bytes)
	}
	ws.mu.Unlock()
}

// WindowEvent is one communication event in the windowed layer's own terms
// (src/dst thread, the reading access's region, the global access index).
// Shard workers stage events in a private buffer and apply them with
// ObserveBatch, paying one lock per drained batch instead of one per event.
type WindowEvent struct {
	Time   uint64
	Region int32
	Src    int32
	Dst    int32
	Bytes  uint64
}

// ObserveBatch records a batch of events under one lock acquisition. Events
// from one detector batch are strongly time-clustered, so the per-event work
// reduces to a matrix add plus two cached pointer checks.
func (ws *WindowSet) ObserveBatch(evs []WindowEvent) {
	if len(evs) == 0 {
		return
	}
	ws.mu.Lock()
	var cw *Window
	var cwStart uint64
	var crM *Matrix
	crRegion := int32(-1)
	for _, ev := range evs {
		start := ev.Time / ws.size * ws.size
		if cw == nil || start != cwStart {
			w, ok := ws.wins[start]
			if !ok {
				w = &Window{Start: start, Global: NewMatrix(ws.threads), Regions: make(map[int32]*Matrix)}
				ws.wins[start] = w
			}
			cw, cwStart = w, start
			crRegion = -1
		}
		cw.Global.Add(ev.Src, ev.Dst, ev.Bytes)
		if ev.Region >= 0 {
			if ev.Region != crRegion {
				rm, ok := cw.Regions[ev.Region]
				if !ok {
					rm = NewMatrix(ws.threads)
					cw.Regions[ev.Region] = rm
				}
				crM, crRegion = rm, ev.Region
			}
			crM.Add(ev.Src, ev.Dst, ev.Bytes)
		}
	}
	ws.mu.Unlock()
}

// MergeWindow sums one window into the set. Merging is off the access hot
// path, so the whole summation (including region-map inserts) stays under
// the set lock.
func (ws *WindowSet) MergeWindow(w *Window) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	dst, ok := ws.wins[w.Start]
	if !ok {
		ws.wins[w.Start] = w
		return
	}
	dst.AddWindow(w)
}

// Drain removes and returns every window wholly below the frontier
// (Start+windowSize <= frontier), sorted by Start. A frontier of ^uint64(0)
// drains everything.
func (ws *WindowSet) Drain(frontier uint64) []*Window {
	ws.mu.Lock()
	var out []*Window
	for start, w := range ws.wins {
		if start+ws.size <= frontier && start <= frontier {
			out = append(out, w)
			delete(ws.wins, start)
		}
	}
	ws.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Sorted returns the held windows in increasing Start order. The windows are
// shared, not copied; treat them as read-only unless the set is quiescent.
func (ws *WindowSet) Sorted() []*Window {
	ws.mu.Lock()
	out := make([]*Window, 0, len(ws.wins))
	for _, w := range ws.wins {
		out = append(out, w)
	}
	ws.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Equal reports whether two sets hold identical windows — the bit-identity
// check the sharded-vs-serial phase property tests pin.
func (ws *WindowSet) Equal(other *WindowSet) bool {
	a, b := ws.Sorted(), other.Sorted()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].EqualWindow(b[i]) {
			return false
		}
	}
	return true
}

// WindowCloser tracks which windows of a set of concurrently-filled
// WindowSets have been closed and emitted. Advance drains every source below
// a caller-supplied frontier (a logical time no future event can precede),
// merges the drained partials into one done-set, and emits each newly
// completed window exactly once, in increasing Start order.
//
// Every feed is time-ordered per source, so no window reappears after its
// emission. One that does (per-source event order not monotone in time) is
// still merged into the done-set (the final timeline is recomputed from
// complete merged windows) but is counted late rather than re-emitted, so a
// live consumer's window sequence stays ordered and duplicate-free; Late is
// the tripwire for the invariant.
type WindowCloser struct {
	mu      sync.Mutex
	done    *WindowSet
	emitted uint64 // every window with Start+size <= emitted has been emitted
	closed  uint64
	late    uint64
}

// NewWindowCloser builds a closer whose done-set uses the given dimensions.
func NewWindowCloser(threads int, windowSize uint64) (*WindowCloser, error) {
	done, err := NewWindowSet(threads, windowSize)
	if err != nil {
		return nil, err
	}
	return &WindowCloser{done: done}, nil
}

// Advance drains every source below frontier, merges the partials, and calls
// onClose (nil ok) for each newly completed window in Start order with the
// window and its exclusive end time. Returns the number of windows emitted.
// Calls are serialized internally, so one closer may be driven from both a
// periodic sampler and a final close path.
func (c *WindowCloser) Advance(frontier uint64, sources []*WindowSet, onClose func(w *Window, end uint64)) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	size := c.done.WindowSize()
	for _, src := range sources {
		for _, w := range src.Drain(frontier) {
			if w.Start+size <= c.emitted {
				c.late++
			}
			c.done.MergeWindow(w)
		}
	}
	n := 0
	for _, w := range c.done.Sorted() {
		end := w.Start + size
		if end <= c.emitted || end > frontier {
			continue
		}
		if onClose != nil {
			onClose(w, end)
		}
		n++
	}
	c.closed += uint64(n)
	if frontier > c.emitted {
		c.emitted = frontier
	}
	return n
}

// Done returns the merged set of every drained window. Complete once a final
// Advance with frontier ^uint64(0) has run and the sources are quiescent.
func (c *WindowCloser) Done() *WindowSet {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done
}

// Closed returns the number of windows emitted so far.
func (c *WindowCloser) Closed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Late returns the number of drained partial windows that arrived after
// their window had already been emitted: 0 while every source's event order
// is monotone in time, as every feed's is.
func (c *WindowCloser) Late() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.late
}
