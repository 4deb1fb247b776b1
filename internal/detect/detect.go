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
	"slices"
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
	// phase segmentation and the FPR experiments), on the goroutine that
	// called Process or ProcessBatch.
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
	// for the three skip rules and their soundness argument). Like the
	// backend, the cache belongs to the detector's one caller.
	// Filtered accesses still count toward Stats.Processed and the
	// per-region access counters; only the backend consultation is skipped.
	RedundancyCacheBits uint
	// Accuracy, when non-nil, pairs every production verdict with an exact
	// shadow verdict over the monitor's sampled granule slice, producing a
	// live signature-FPR estimate (see internal/accuracy). The monitor sits
	// behind the redundancy fast path — skipped accesses reach neither the
	// backend nor the shadow, which keeps verdict pairs aligned. Like the
	// redundancy cache, a monitor belongs to the detector's one caller.
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
// matrices. It has one caller at a time, each call ordered after the last by
// a happens-before edge (a shard worker; a replay loop; the executor, whose
// threads hand the turn over a channel), and it touches its matrices,
// backend, cache and monitor without atomics. Only Stats, RedundancyStats and
// the backend's Occupancy may be read from elsewhere before that caller is
// done. Those are published once per ProcessBatch, so mid-run they trail by at
// most one batch.
type Detector struct {
	opts Options
	// asym is opts.Backend when that is the asymmetric signature: the kernel
	// then calls it as its concrete type, not through the interface.
	asym    *sig.Asymmetric
	global  *comm.Matrix
	outside *comm.Matrix
	// perRegion matrices and access counters indexed by region ID.
	perRegion []*comm.Matrix
	regionAcc []uint64 // read only after the caller is done
	redun     *redundancy.Cache

	// A cache line away from the fields above, which every call reads: the
	// caller writes these once per batch and telemetry reads them mid-run.
	_         [64]byte
	processed atomic.Uint64
	detected  atomic.Uint64
	commBytes atomic.Uint64
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
		d.regionAcc = make([]uint64, opts.Table.Len())
	}
	if opts.RedundancyCacheBits > 0 {
		c, err := redundancy.New(opts.RedundancyCacheBits, opts.Threads)
		if err != nil {
			return nil, fmt.Errorf("detect: %w", err)
		}
		d.redun = c
	}
	d.asym, _ = opts.Backend.(*sig.Asymmetric)
	return d, nil
}

// overheadSampleShift sets the overhead-split sampling rate: one access in
// 2^8 = 256 is timed and its nanoseconds scaled by 256. Coarse enough that
// the clock reads amortise below a nanosecond per access, fine enough that
// the estimate converges within the first million accesses.
const overheadSampleShift = 8

// Process applies Algorithm 1 to one access and reports whether it produced
// a communication event: the kernel over a batch of one. The access is copied
// field by field, never whole (DESIGN §5, "the copy rule"): a whole-struct
// copy of a value just assembled from registers is a wide load over narrow
// stores, which the core cannot forward (it doubled this call's cost).
func (d *Detector) Process(a trace.Access) (Event, bool) {
	var one [1]trace.Access
	p := &one[0]
	p.Time, p.Addr, p.Size, p.Thread, p.Region, p.Kind = a.Time, a.Addr, a.Size, a.Thread, a.Region, a.Kind
	writer, ok := d.kernel(one[:])
	if !ok {
		return Event{}, false
	}
	return Event{Time: a.Time, Writer: writer, Reader: a.Thread, Bytes: a.Size, Region: a.Region}, true
}

// Probe adapts the detector to the executor's instrumentation hook.
func (d *Detector) Probe() exec.Probe {
	return func(a trace.Access) { d.Process(a) }
}

// ProcessBatch runs the detector over accesses in order: a whole recorded
// stream in temporal order (offline mode), one decoded block of it, one
// quantum of an in-thread run, or one drained batch of a shard's FIFO in the
// sharded pipeline.
func (d *Detector) ProcessBatch(batch []trace.Access) { d.kernel(batch) }

// kernel is Algorithm 1 over a batch, and the only copy of its
// communicating-access rule. What the batch form buys: the counters live in
// locals and reach their atomics once per batch (the per-region access
// counters once per run of same-region accesses, the event-size histogram once
// per run of same-size events), the optional layers are a
// predicted branch each with their work out of line, and the asymmetric
// signature is called without interface dispatch. It reports whether the
// batch's last access communicated and with which writer: Process's result,
// as scalars because a struct result is copied the same costly way Process's
// comment describes.
func (d *Detector) kernel(batch []trace.Access) (lastWriter int32, lastComm bool) {
	asym, cache, gran := d.asym, d.redun, d.opts.GranularityBits
	base := d.processed.Load() // the batch's first access is number base+1
	var detected, bytes, hits, misses, evictions, stale uint64
	region, run := trace.NoRegion, uint64(0) // the current run of same-region accesses
	evSize, evRun := uint64(0), uint64(0)    // the current run of same-size events
	for i := range batch {
		a := &batch[i]
		lastComm = false
		// timed selects the sampled overhead-split path; false on every access
		// when the Overhead probes are nil.
		timed := d.opts.Overhead != nil && (base+uint64(i)+1)&(1<<overheadSampleShift-1) == 0
		if a.Region != region {
			d.countRegion(region, run)
			region, run = a.Region, 0
		}
		run++
		gaddr := a.Addr >> gran
		if cache != nil {
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			hit, evicted := cache.Lookup(gaddr, a.Thread, a.Kind == trace.Write)
			if timed {
				d.opts.Overhead.RedundancyNanos.Add(uint64(time.Since(t0)) << overheadSampleShift)
			}
			if hit {
				// Fast path: the access cannot change what Algorithm 1 reports
				// (repeated same-thread read, repeated same-thread write, or a
				// thread re-reading its own last write), so skip the backend.
				hits++
				continue
			}
			misses++
			if evicted {
				evictions++
			}
		}
		if a.Kind == trace.Write {
			if asym != nil {
				asym.ObserveWrite(gaddr, a.Thread)
			} else {
				d.opts.Backend.ObserveWrite(gaddr, a.Thread)
			}
			if d.opts.Accuracy != nil {
				d.shadow(a, gaddr, false, 0, timed)
			}
			continue
		}
		var writer int32
		var first bool
		if asym != nil {
			writer, first = asym.ObserveRead(gaddr, a.Thread)
		} else {
			writer, first = d.opts.Backend.ObserveRead(gaddr, a.Thread)
		}
		comm := writer != sig.NoWriter && writer != a.Thread && first
		if comm && int(writer) >= d.opts.Threads {
			// A collision-corrupted slot can, in principle, surface a stale
			// writer ID from a previous configuration; drop it defensively.
			stale++
			comm = false
		}
		if d.opts.Accuracy != nil {
			// The monitor pairs the post-drop verdict with the exact shadow's.
			d.shadow(a, gaddr, comm, writer, timed)
		}
		if lastWriter, lastComm = writer, comm; comm {
			detected++
			bytes += uint64(a.Size)
			if size := uint64(a.Size); size != evSize {
				if p := d.opts.Probes; p != nil {
					p.EventBytes.ObserveN(evSize, evRun)
				}
				evSize, evRun = size, 0
			}
			evRun++
			d.emit(a, writer)
		}
	}
	d.countRegion(region, run)
	d.processed.Add(uint64(len(batch)))
	if detected > 0 {
		d.detected.Add(detected)
		d.commBytes.Add(bytes)
	}
	if cache != nil {
		cache.Count(hits, misses, evictions)
	}
	if p := d.opts.Probes; p != nil {
		p.RedundantSkips.Add(hits)
		p.StaleWriterDrops.Add(stale)
		p.Events.Add(detected)
		p.EventBytes.ObserveN(evSize, evRun)
	}
	if asym != nil {
		asym.Publish()
	}
	return lastWriter, lastComm
}

// emit attributes one communicating read to the global matrix and to its
// region's (or the outside matrix) and hands the event to OnEvent.
func (d *Detector) emit(a *trace.Access, writer int32) {
	own := d.outside
	if a.Region != trace.NoRegion && int(a.Region) < len(d.perRegion) {
		own = d.perRegion[a.Region]
	}
	d.global.Add(writer, a.Thread, uint64(a.Size))
	own.Add(writer, a.Thread, uint64(a.Size))
	if d.opts.OnEvent != nil {
		d.opts.OnEvent(Event{Time: a.Time, Writer: writer, Reader: a.Thread, Bytes: a.Size, Region: a.Region})
	}
}

// shadow feeds the accuracy monitor one access that reached the backend,
// timing the call into the overhead split when the access is a sampled one.
func (d *Detector) shadow(a *trace.Access, gaddr uint64, comm bool, writer int32, timed bool) {
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	if a.Kind == trace.Write {
		d.opts.Accuracy.ObserveWrite(gaddr, a.Thread)
	} else {
		d.opts.Accuracy.ObserveRead(gaddr, a.Thread, comm, writer)
	}
	if timed {
		d.opts.Overhead.ShadowNanos.Add(uint64(time.Since(t0)) << overheadSampleShift)
	}
}

// countRegion adds a run of n accesses to region's access counter.
func (d *Detector) countRegion(region int32, n uint64) {
	if n > 0 && region != trace.NoRegion && int(region) < len(d.regionAcc) {
		d.regionAcc[region] += n
	}
}

// Global returns the whole-program communication matrix.
func (d *Detector) Global() *comm.Matrix { return d.global }

// Outside returns the matrix of traffic not attributed to any region. The
// sharded pipeline reads it when merging shard detectors into one tree.
func (d *Detector) Outside() *comm.Matrix { return d.outside }

// RegionAccesses returns a copy of the per-region access counters, or nil
// when the detector was built without a region table.
func (d *Detector) RegionAccesses() []uint64 {
	if d.regionAcc == nil {
		return nil
	}
	return slices.Clone(d.regionAcc)
}

// Tree builds the nested communication structure. It errors if the detector
// was built without a region table. The caller must be ordered after the
// detector's last ProcessBatch by a happens-before edge.
func (d *Detector) Tree() (*comm.Tree, error) {
	if d.opts.Table == nil {
		return nil, fmt.Errorf("detect: no region table configured")
	}
	return comm.BuildTree(d.opts.Table, d.perRegion, d.RegionAccesses(), d.global, d.outside)
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
