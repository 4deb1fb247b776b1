// Package detect implements Algorithm 1 of the paper: on-the-fly detection
// of read-after-write dependencies *between threads* over the instrumented
// access stream, using a pluggable signature backend, and accumulation of the
// results into global and per-region communication matrices.
//
// The communicating-access rule (Fig. 2 and §V-A5): a read by thread R
// counts as communication from thread W exactly when
//
//  1. the address hits the write signature (some thread wrote it),
//  2. the recorded last writer W differs from R (inter-thread; the paper's
//     pseudocode prints "lastWrite.tid = a.tid", an evident typo for "≠" —
//     §III-A defines communication as one worker writing a value and another
//     reading it, and §V-A5's false-communication discussion confirms it),
//  3. R has not already read the address since its last write (first-access-
//     only, which makes the analysis resilient to false communication from
//     threads merely reusing an address at different times).
//
// Every write makes the writing thread the new "last writer" and clears the
// recorded reader set so later readers count again.
package detect

import (
	"fmt"
	"sync/atomic"
	"time"

	"commprof/internal/accuracy"
	"commprof/internal/comm"
	"commprof/internal/exec"
	"commprof/internal/obs"
	"commprof/internal/redundancy"
	"commprof/internal/sig"
	"commprof/internal/trace"
)

// Event is one detected inter-thread RAW dependence.
type Event struct {
	Time   uint64
	Writer int32
	Reader int32
	Bytes  uint32
	Region int32 // innermost static region of the *reading* access
}

// Options configures a Detector.
type Options struct {
	// Threads is the target program's thread count (matrix dimension).
	Threads int
	// Backend stores the access history; required. Use sig.NewAsymmetric
	// for the paper's profiler or sig.NewPerfect for exact ground truth.
	Backend sig.Backend
	// Table is the static region table; nil disables per-region attribution.
	Table *trace.Table
	// OnEvent, when non-nil, receives every detected dependence (used by
	// phase segmentation and the FPR experiments). In parallel runs it must
	// be safe for concurrent use.
	OnEvent func(Event)
	// GranularityBits coarsens the analysis granularity: addresses are
	// shifted right by this amount before consulting the signature, so 0
	// analyses per byte address (the DiscoPoP default), 3 per 8-byte word,
	// 6 per 64-byte cache line — the granularity of the trace-based
	// characterization studies the paper cites ([4]). Coarser granularity
	// shrinks the effective working set (fewer collisions at equal slots)
	// but merges neighbouring variables, which manufactures false sharing.
	GranularityBits uint
	// RedundancyCacheBits, when non-zero, enables the redundancy-filtering
	// fast path in front of the signature backend: a 2^bits-entry
	// direct-mapped cache of the last (thread, kind) to touch each
	// granularity-coarsened address, filtering out accesses Algorithm 1 is
	// guaranteed to classify as non-communicating (see internal/redundancy
	// for the three skip rules and their soundness argument). The cache is
	// NOT goroutine-safe, so set this only when exactly one goroutine calls
	// Process — the serial replay loop, or one sharded-pipeline worker.
	// Filtered accesses still count toward Stats.Processed and the
	// per-region access counters; only the backend consultation is skipped.
	RedundancyCacheBits uint
	// Accuracy, when non-nil, pairs every production verdict with an exact
	// shadow verdict over the monitor's sampled granule slice, producing a
	// live signature-FPR estimate (see internal/accuracy). The monitor sits
	// behind the redundancy fast path — skipped accesses reach neither the
	// backend nor the shadow, which keeps verdict pairs aligned. Like the
	// redundancy cache, a monitor belongs to exactly one Process goroutine.
	Accuracy *accuracy.Monitor
	// Probes, when non-nil, receives self-observability telemetry (event
	// counts and sizes, stale-writer drops). Nil keeps the hot path
	// uninstrumented at the cost of one nil check per hook site.
	Probes *obs.DetectProbes
	// Overhead, when non-nil, enables the sampled overhead split: one access
	// in every 2^overheadSampleShift times its redundancy-cache check and
	// shadow-monitor calls individually and publishes the scaled-up
	// nanoseconds, so the self-attribution report can divide detector time
	// into signature / redundancy / shadow without per-access clock reads.
	// Nil costs one branch per access.
	Overhead *obs.OverheadProbes
}

// Detector consumes accesses in temporal order and accumulates communication
// matrices. Safe for concurrent use when its backend and OnEvent are.
type Detector struct {
	opts    Options
	global  *comm.Matrix
	outside *comm.Matrix
	// perRegion matrices and access counters indexed by region ID.
	perRegion []*comm.Matrix
	regionAcc []atomic.Uint64
	processed atomic.Uint64
	detected  atomic.Uint64
	commBytes atomic.Uint64
	redun     *redundancy.Cache
}

// New builds a detector. It returns an error on missing backend or invalid
// thread count.
func New(opts Options) (*Detector, error) {
	if opts.Threads <= 0 {
		return nil, fmt.Errorf("detect: Threads must be positive, got %d", opts.Threads)
	}
	if opts.Backend == nil {
		return nil, fmt.Errorf("detect: Backend is required")
	}
	d := &Detector{
		opts:    opts,
		global:  comm.NewMatrix(opts.Threads),
		outside: comm.NewMatrix(opts.Threads),
	}
	if opts.Table != nil {
		if err := opts.Table.Validate(); err != nil {
			return nil, fmt.Errorf("detect: %w", err)
		}
		d.perRegion = make([]*comm.Matrix, opts.Table.Len())
		for i := range d.perRegion {
			d.perRegion[i] = comm.NewMatrix(opts.Threads)
		}
		d.regionAcc = make([]atomic.Uint64, opts.Table.Len())
	}
	if opts.RedundancyCacheBits > 0 {
		c, err := redundancy.New(opts.RedundancyCacheBits, opts.Threads)
		if err != nil {
			return nil, fmt.Errorf("detect: %w", err)
		}
		d.redun = c
	}
	return d, nil
}

// overheadSampleShift sets the overhead-split sampling rate: one access in
// 2^8 = 256 is timed and its nanoseconds scaled by 256. Coarse enough that
// the clock reads amortise below a nanosecond per access, fine enough that
// the estimate converges within the first million accesses.
const overheadSampleShift = 8

// Process applies Algorithm 1 to one access and reports whether it produced
// a communication event.
func (d *Detector) Process(a trace.Access) (Event, bool) {
	n := d.processed.Add(1)
	// timed selects the sampled overhead-split path; false on every access
	// when the Overhead probes are nil (the one-branch disabled cost).
	timed := d.opts.Overhead != nil && n&(1<<overheadSampleShift-1) == 0
	if d.regionAcc != nil && a.Region != trace.NoRegion && int(a.Region) < len(d.regionAcc) {
		d.regionAcc[a.Region].Add(1)
	}
	gaddr := a.Addr >> d.opts.GranularityBits
	if c := d.redun; c != nil {
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		red := c.Redundant(gaddr, a.Thread, a.Kind == trace.Write)
		if timed {
			d.opts.Overhead.RedundancyNanos.Add(uint64(time.Since(t0)) << overheadSampleShift)
		}
		if red {
			// Fast path: the access cannot change what Algorithm 1 reports
			// (repeated same-thread read, repeated same-thread write, or a
			// thread re-reading its own last write), so skip the backend.
			if p := d.opts.Probes; p != nil {
				p.RedundantSkips.Inc()
			}
			return Event{}, false
		}
	}
	if a.Kind == trace.Write {
		d.opts.Backend.ObserveWrite(gaddr, a.Thread)
		if m := d.opts.Accuracy; m != nil {
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			m.ObserveWrite(gaddr, a.Thread)
			if timed {
				d.opts.Overhead.ShadowNanos.Add(uint64(time.Since(t0)) << overheadSampleShift)
			}
		}
		return Event{}, false
	}
	writer, first := d.opts.Backend.ObserveRead(gaddr, a.Thread)
	ok := writer != sig.NoWriter && writer != a.Thread && first
	if ok && int(writer) >= d.opts.Threads {
		// A collision-corrupted slot can, in principle, surface a stale
		// writer ID from a previous configuration; drop it defensively.
		if p := d.opts.Probes; p != nil {
			p.StaleWriterDrops.Inc()
		}
		ok = false
	}
	if m := d.opts.Accuracy; m != nil {
		// The monitor pairs the post-drop verdict with the exact shadow's.
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		m.ObserveRead(gaddr, a.Thread, ok, writer)
		if timed {
			d.opts.Overhead.ShadowNanos.Add(uint64(time.Since(t0)) << overheadSampleShift)
		}
	}
	if !ok {
		return Event{}, false
	}
	ev := Event{Time: a.Time, Writer: writer, Reader: a.Thread, Bytes: a.Size, Region: a.Region}
	d.detected.Add(1)
	d.commBytes.Add(uint64(a.Size))
	if p := d.opts.Probes; p != nil {
		p.Events.Inc()
		p.EventBytes.Observe(uint64(a.Size))
	}
	d.global.Add(writer, a.Thread, uint64(a.Size))
	if d.perRegion != nil {
		if a.Region != trace.NoRegion && int(a.Region) < len(d.perRegion) {
			d.perRegion[a.Region].Add(writer, a.Thread, uint64(a.Size))
		} else {
			d.outside.Add(writer, a.Thread, uint64(a.Size))
		}
	} else {
		d.outside.Add(writer, a.Thread, uint64(a.Size))
	}
	if d.opts.OnEvent != nil {
		d.opts.OnEvent(ev)
	}
	return ev, true
}

// Probe adapts the detector to the executor's instrumentation hook.
func (d *Detector) Probe() exec.Probe {
	return func(a trace.Access) { d.Process(a) }
}

// ProcessBatch runs the detector over accesses in order: a whole recorded
// stream in temporal order (offline mode), one decoded block of it, or one
// drained batch of a shard's FIFO in the sharded pipeline.
func (d *Detector) ProcessBatch(batch []trace.Access) {
	for _, a := range batch {
		d.Process(a)
	}
}

// Global returns the whole-program communication matrix.
func (d *Detector) Global() *comm.Matrix { return d.global }

// Outside returns the matrix of traffic not attributed to any region. The
// sharded pipeline reads it when merging shard detectors into one tree.
func (d *Detector) Outside() *comm.Matrix { return d.outside }

// RegionAccesses returns a snapshot of the per-region access counters, or nil
// when the detector was built without a region table.
func (d *Detector) RegionAccesses() []uint64 {
	if d.regionAcc == nil {
		return nil
	}
	acc := make([]uint64, len(d.regionAcc))
	for i := range d.regionAcc {
		acc[i] = d.regionAcc[i].Load()
	}
	return acc
}

// Table returns the static region table the detector was built with (nil when
// per-region attribution is disabled).
func (d *Detector) Table() *trace.Table { return d.opts.Table }

// Tree builds the nested communication structure. It errors if the detector
// was built without a region table.
func (d *Detector) Tree() (*comm.Tree, error) {
	if d.opts.Table == nil {
		return nil, fmt.Errorf("detect: no region table configured")
	}
	acc := make([]uint64, len(d.regionAcc))
	for i := range d.regionAcc {
		acc[i] = d.regionAcc[i].Load()
	}
	return comm.BuildTree(d.opts.Table, d.perRegion, acc, d.global, d.outside)
}

// RegionMatrix returns the own-traffic matrix of one region.
func (d *Detector) RegionMatrix(id int32) (*comm.Matrix, error) {
	if d.perRegion == nil {
		return nil, fmt.Errorf("detect: no region table configured")
	}
	if id < 0 || int(id) >= len(d.perRegion) {
		return nil, fmt.Errorf("detect: region %d out of range", id)
	}
	return d.perRegion[id], nil
}

// Stats summarises the detector's work.
type Stats struct {
	Processed uint64 // accesses consumed
	Detected  uint64 // inter-thread RAW dependencies found
	CommBytes uint64 // total communicated bytes
}

// Stats returns counters accumulated so far.
func (d *Detector) Stats() Stats {
	return Stats{
		Processed: d.processed.Load(),
		Detected:  d.detected.Load(),
		CommBytes: d.commBytes.Load(),
	}
}

// RedundancyStats snapshots the fast-path cache counters. The second return
// is false when the cache is disabled (RedundancyCacheBits == 0).
func (d *Detector) RedundancyStats() (redundancy.Stats, bool) {
	if d.redun == nil {
		return redundancy.Stats{}, false
	}
	return d.redun.Stats(), true
}

// Accuracy returns the shadow-sampling accuracy monitor, or nil when the
// detector runs unmonitored.
func (d *Detector) Accuracy() *accuracy.Monitor { return d.opts.Accuracy }
