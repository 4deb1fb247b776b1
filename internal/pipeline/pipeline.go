// Package pipeline is the analysis engine every profiling entry point feeds:
// with K = 0 shards it is the paper's in-thread analyser (§IV-D3, §V-A2) — one
// detect.Detector over the whole signature, run on the caller's goroutine,
// bit-identical to a bare detector — and with K > 0 the sharded parallel
// engine, the scale-out successor to that single funnel.
//
// The paper's in-thread analysis (§V-A2) rejects the original DiscoPoP's
// analysis queue because "the queue size may increase dramatically if there
// is burst in accessing memory" — internal/detect.ClockedQueue reproduces
// exactly that failure mode. The modern fix (cf. PROMPT, arXiv:2311.03263) is
// to parallelize the analysis itself: hash each access address to one of K
// shards, give every shard a private partition of signature memory, private
// matrix accumulators, and a dedicated worker goroutine fed by a *bounded*
// queue of access buffers, then merge the shard results at close.
//
// Sharding is correct because Algorithm 1's detection rule is purely
// per-address: the communicating-access decision for address a depends only
// on the temporally ordered sequence of accesses to a. Routing by address
// keeps every address's whole history on one shard, whose FIFO queue
// preserves arrival order, so an exact backend (sig.Perfect) produces
// bit-identical matrices to the serial detector. The approximate asymmetric
// signature couples addresses through slot collisions; partitioning its slot
// budget across shards keeps the expected collision rate (and Eq. 2 memory)
// unchanged but changes *which* collisions occur, so results match the
// serial analyser exactly whenever the run is collision-free and
// statistically otherwise.
//
// Queues are bounded, so analysis memory stays fixed no matter how bursty
// the producers are, and there is one overload behaviour: backpressure. A
// producer facing a full shard queue blocks until the worker catches up, so
// analysis stays exhaustive and producer speed follows the slowest shard
// (EnqueueStalls counts the episodes, the QueueWait stage times them). To
// analyse less, thin reads in front of the engine (detect.Gate, the facade's
// Options.SamplePeriod).
//
// The hand-off is by pointer, as between PROMPT's frontend and backends: a
// Producer fills a buffer it owns, sends the whole buffer over the shard's
// bounded channel and takes an empty one from the shard's free list; the
// worker analyses the buffer in place and puts it back. An access is copied
// once, into the buffer, and never again.
package pipeline

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"commprof/internal/accuracy"
	"commprof/internal/comm"
	"commprof/internal/detect"
	"commprof/internal/murmur"
	"commprof/internal/obs"
	"commprof/internal/redundancy"
	"commprof/internal/sig"
	"commprof/internal/trace"
)

// batchLen is the hand-off unit: a producer sends a shard its staged accesses
// once this many have accumulated (or at Flush / a thread switch), and a
// worker analyses one such buffer per wakeup. Clamped to QueueCapacity.
const batchLen = 256

// shardSeed routes addresses to shards with a hash independent of both
// signature slot hashes, so shard skew does not correlate with slot
// collisions.
const shardSeed uint64 = 0xA0761D6478BD642F

// Options configures an analysis engine.
type Options struct {
	// Shards is the number of analysis shards K. 0 is the in-thread analyser:
	// one shard that owns the whole slot budget and runs Algorithm 1 on the
	// calling goroutine — no queue, no worker, no producer staging — so
	// QueueCapacity does not apply. Every detector has one caller at a time
	// (see detect.Detector): a shard worker, or at K = 0 the source, which
	// serialises its own callers.
	Shards int
	// Threads is the target program's thread count (matrix dimension).
	Threads int
	// Table is the static region table; nil disables per-region attribution.
	Table *trace.Table
	// GranularityBits coarsens analysis granularity exactly as in
	// detect.Options; the shard route hashes the *coarsened* address so one
	// granule never splits across shards.
	GranularityBits uint
	// QueueCapacity bounds the accesses handed over to one shard and not yet
	// analysed (default 8192): the memory bound of a K > 0 run. The queue
	// holds whole buffers of min(256, QueueCapacity) accesses, so a request
	// that is not a whole number of buffers is rounded down to one
	// (Engine.QueueCapacity reports the effective bound). A producer facing
	// a full queue blocks.
	QueueCapacity int
	// RedundancyCacheBits, when non-zero, gives every shard worker a private
	// 2^bits-entry redundancy-filtering cache in front of its signature
	// partition (see internal/redundancy). Per-shard privacy makes the
	// not-goroutine-safe cache sound here: address routing sends a granule's
	// whole history through one worker, which therefore observes every
	// cross-thread write that must invalidate a cached entry.
	RedundancyCacheBits uint
	// NewBackend builds shard s's private signature partition; required.
	// Use AsymmetricFactory to split one slot budget across shards, or
	// PerfectFactory for exact ground-truth analysis.
	NewBackend func(shard int) (sig.Backend, error)
	// Accuracy, when non-nil, gives every shard worker a private
	// shadow-sampling accuracy monitor (see internal/accuracy) built from
	// these options; Engine.AccuracyStats merges them. Per-shard privacy is
	// sound for the same reason the redundancy caches are: address routing
	// sends a sampled granule's whole history through one worker, so each
	// monitor's verdict pairs stay aligned, and the sample slice and shard
	// partition are independent hashes of the same coarsened address.
	Accuracy *accuracy.Options
	// PhaseWindow, when non-zero, makes every shard accumulate time-windowed
	// communication sub-matrices bucketed by the global access index carried
	// on each event (window = Time / PhaseWindow). Bucketing by the trace's
	// own global order means shard workers need no extra synchronization, and
	// the per-shard partials merge at window close by commutative summation —
	// the same soundness argument as the shard-partition merge — so the
	// merged windowed results are bit-identical to a serial
	// metrics.PhaseSegmenter on exact backends.
	PhaseWindow uint64
	// OnWindowClose, when non-nil, receives every completed window exactly
	// once, in increasing start order, from AdvancePhases and Close. Called
	// with the closer serialized, so it need not be safe for concurrent use
	// with itself (but runs on whichever goroutine advances).
	OnWindowClose func(w *comm.Window, end uint64)
	// Probes receives self-observability telemetry; the zero bundle keeps
	// the hot path uninstrumented. The engine reads its layers:
	//   - Pipeline: queue, batch and flush counts.
	//   - Detect and Overhead: handed to every shard's private detector (event
	//     counts, stale-writer drops, redundancy skips; the sampled
	//     signature/redundancy/shadow split, see detect.Options.Overhead). All
	//     obs counters are atomic, so one bundle is safely shared across shard
	//     workers.
	//   - Stage: per-batch latency observations — producer blocking on a full
	//     queue (QueueWait), the worker drain cycle (Drain, with BatchService
	//     and Window as timed sub-stages), and the periodic window advance.
	//     Timing is per batch — a handful of monotonic-clock reads per few
	//     hundred accesses — never per access.
	//   - Phase: late-window counts (see obs.PhaseProbes.LateWindows).
	//     Window-close and transition counters are the OnWindowClose
	//     consumer's business.
	Probes obs.Probes
	// Timeline, when non-nil, records execution-timeline events: one track
	// per shard worker (busy-period spans) and one per producer (flush
	// spans). Nil keeps the hot path free of timeline work beyond one nil
	// check per drain/flush.
	Timeline *obs.Timeline
}

func (o *Options) setDefaults() error {
	if o.Shards < 0 {
		return fmt.Errorf("pipeline: Shards must be non-negative, got %d", o.Shards)
	}
	if o.Threads <= 0 {
		return fmt.Errorf("pipeline: Threads must be positive, got %d", o.Threads)
	}
	if o.NewBackend == nil {
		return fmt.Errorf("pipeline: NewBackend is required")
	}
	if o.QueueCapacity == 0 {
		o.QueueCapacity = 8192
	}
	if o.QueueCapacity < 1 {
		return fmt.Errorf("pipeline: QueueCapacity must be positive, got %d", o.QueueCapacity)
	}
	// The queue holds whole buffers.
	o.QueueCapacity -= o.QueueCapacity % min(batchLen, o.QueueCapacity)
	return nil
}

// AsymmetricFactory returns a NewBackend that partitions a total asymmetric
// signature budget evenly across shards: each shard gets ceil(slots/K) slots,
// so total signature memory matches a serial analyser with the full budget
// (Eq. 2 is linear in n). The in-thread engine (shards 0) is one partition
// holding the whole budget. fpRate is ignored: the mask arena is exact. The
// parameter is kept only because bench/layers.go still passes it; ROADMAP item
// 0(d) deletes it.
func AsymmetricFactory(totalSlots uint64, shards, threads int, fpRate float64, probes *obs.SigProbes) func(int) (sig.Backend, error) {
	if shards < 1 {
		shards = 1
	}
	perShard := (totalSlots + uint64(shards) - 1) / uint64(shards)
	return func(int) (sig.Backend, error) {
		return sig.NewAsymmetric(sig.Options{Slots: perShard, Threads: threads, Probes: probes})
	}
}

// PerfectFactory returns a NewBackend producing collision-free partitions:
// the configuration under which sharded analysis is bit-identical to the
// serial detector.
func PerfectFactory(threads int) func(int) (sig.Backend, error) {
	return func(int) (sig.Backend, error) { return sig.NewPerfect(threads), nil }
}

// shard owns one address partition: a bounded queue of access buffers, a
// worker, a private detector and a private signature partition. The in-thread
// engine's single shard has no queue and no worker: callers run its detector
// directly.
type shard struct {
	d       *detect.Detector
	backend sig.Backend
	stages  *obs.StageProbes
	track   *obs.Track // worker timeline track; nil when the timeline is off

	// full carries filled buffers to the worker and is the bound: it holds
	// one buffer fewer than QueueCapacity allows because the worker holds one
	// while analysing it. free is where the worker leaves drained buffers for
	// producers to pick up; neither side ever blocks on it. It has room for
	// everything one producer keeps in circulation — the queue's buffers plus
	// the one a blocked sender has let go of — so a replay allocates nothing
	// in steady state; many concurrent producers stalling at once can
	// overflow it, and the surplus goes to the GC.
	full chan []trace.Access
	free chan []trace.Access

	// depth counts accesses handed over and not yet analysed, peak its
	// maximum. Producers add after a successful send and the worker subtracts
	// after analysing, so a fast worker can briefly drive depth below zero:
	// read it through Depth.
	depth atomic.Int64
	peak  atomic.Int64

	// windows accumulates this shard's time-windowed sub-matrices (nil when
	// Options.PhaseWindow is 0); maxTime is the largest access time the
	// worker has finished processing, the shard's contribution to the
	// window-close frontier. evbuf stages detected events between worker
	// drains — written only from the detector's OnEvent on the worker
	// goroutine, flushed into windows once per batch so the windowed layer
	// costs one lock per drain, not one per event. In-thread, events go
	// straight into the locked window set (a telemetry goroutine may be
	// advancing the frontier) and evbuf and maxTime stay unused.
	windows *comm.WindowSet
	evbuf   []comm.WindowEvent
	maxTime atomic.Uint64
}

// Depth reports the current queue depth; safe while the run is in flight.
func (s *shard) Depth() int { return int(max(s.depth.Load(), 0)) }

// handOff gives shard i's worker a filled buffer by pointer and returns an
// empty one for the producer to fill next. A full queue blocks the caller until the
// worker catches up — backpressure, the engine's one overload behaviour.
// Once the engine is closed the accesses are ignored instead. The next
// buffer comes from the free list when it has one and is allocated otherwise:
// waiting for one would stall the producer behind the worker, and with
// several producers it could deadlock, because a producer blocked elsewhere
// keeps its partly filled buffers out of circulation.
func (e *Engine) handOff(i int, buf []trace.Access) []trace.Access {
	s, p := e.shards[i], e.opts.Probes.Pipeline
	select {
	case <-e.done:
		return buf[:0]
	default:
	}
	n := len(buf)
	select {
	case s.full <- buf:
	default:
		if p != nil {
			p.EnqueueStalls.Inc()
		}
		var t0 time.Time
		if s.stages != nil {
			t0 = time.Now()
		}
		select {
		case s.full <- buf:
		case <-e.done:
			return buf[:0]
		}
		if s.stages != nil {
			s.stages.QueueWait.Observe(uint64(time.Since(t0)))
		}
	}
	// Every facade source has one producer, so a load and a store keep the
	// peak; concurrent producers (the multi-producer API) may under-report it.
	if depth := s.depth.Add(int64(n)); depth > s.peak.Load() {
		s.peak.Store(depth)
	}
	if p != nil {
		p.Enqueued.Add(uint64(n))
	}
	select {
	case next := <-s.free:
		return next
	default:
		return make([]trace.Access, 0, cap(buf))
	}
}

// worker receives buffers and runs Algorithm 1 on its partition. The
// goroutine runs under a runtime/pprof "shard=<idx>" label so CPU profiles
// pulled from the -pprof endpoint attribute samples per shard.
func (s *shard) worker(idx int, p *obs.PipelineProbes, wg *sync.WaitGroup) {
	defer wg.Done()
	pprof.Do(context.Background(), pprof.Labels("shard", strconv.Itoa(idx)), func(context.Context) {
		s.drainLoop(p)
	})
}

// drainLoop is the worker body: analyse each buffer in place, then return it
// to the free list. Timeline spans are busy periods — one span from the first
// buffer after an idle wait until the queue next runs dry — so a saturated
// run records a handful of spans, not one per buffer. Stage timing is per
// buffer: at most three monotonic-clock reads per batch of accesses.
func (s *shard) drainLoop(p *obs.PipelineProbes) {
	st := s.stages
	busy := false
	for {
		var buf []trace.Access
		select {
		case buf = <-s.full:
		default:
			// The queue ran dry: close the busy span before sleeping.
			if busy {
				busy = false
				s.track.End("busy")
			}
			buf = <-s.full
		}
		if buf == nil { // Close's end-of-queue marker
			if busy {
				s.track.End("busy")
			}
			return
		}
		if s.track != nil && !busy {
			busy = true
			s.track.Begin("busy")
		}
		var t0 time.Time
		if st != nil {
			t0 = time.Now()
		}
		if p != nil {
			p.QueueDepth.Observe(uint64(s.Depth()))
		}
		s.d.ProcessBatch(buf)
		var t1 time.Time
		if st != nil {
			t1 = time.Now()
			st.BatchService.Observe(uint64(t1.Sub(t0)))
		}
		if s.windows != nil {
			if len(s.evbuf) > 0 {
				s.windows.ObserveBatch(s.evbuf)
				s.evbuf = s.evbuf[:0]
			}
			// Advance this shard's window-close frontier to the largest access
			// time now fully processed. Deterministic and replay feeds arrive
			// time-ordered per shard, so every future event on this shard has a
			// strictly larger time; the engine frontier is the min across
			// shards. This goroutine is maxTime's only writer.
			latest := s.maxTime.Load()
			for i := range buf {
				latest = max(latest, buf[i].Time)
			}
			s.maxTime.Store(latest)
		}
		if st != nil {
			t2 := time.Now()
			if s.windows != nil {
				st.Window.Observe(uint64(t2.Sub(t1)))
			}
			st.Drain.Observe(uint64(t2.Sub(t0)))
		}
		if p != nil {
			p.BatchSizes.Observe(uint64(len(buf)))
		}
		s.depth.Add(int64(-len(buf)))
		select {
		case s.free <- buf[:0]:
		default: // more buffers than the queue needs: leave this one to the GC
		}
	}
}

// Engine is the analysis engine. Feed accesses through a Producer per
// producing goroutine (or ProcessStream, which is one) — in-thread, through
// one Producer at a time — then Close before reading merged results.
type Engine struct {
	opts   Options
	shards []*shard
	wg     sync.WaitGroup

	// inThread is the K = 0 engine's only detector, nil when K > 0.
	inThread *detect.Detector

	// batch is the hand-off buffer length, min(batchLen, QueueCapacity); done
	// is closed by Close so that no producer hands over, or waits, after it.
	batch int
	done  chan struct{}

	// monitors holds each shard's private accuracy monitor (empty when
	// Options.Accuracy is nil); accAlarm is the engine-level warn-once latch
	// evaluated against the merged estimate.
	monitors []*accuracy.Monitor
	accAlarm accuracy.Alarm

	// phaseCloser merges shard window partials and emits completed windows
	// (nil when Options.PhaseWindow is 0).
	phaseCloser *comm.WindowCloser

	prodMu    sync.Mutex
	producers []*Producer

	closeOnce sync.Once
	closed    atomic.Bool

	mergeOnce sync.Once
	global    *comm.Matrix
	outside   *comm.Matrix
	perRegion []*comm.Matrix
	regionAcc []uint64
}

// New builds the engine and, when K > 0, starts one worker goroutine per
// shard.
func New(opts Options) (*Engine, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	if opts.Table != nil {
		if err := opts.Table.Validate(); err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
	}
	queued := opts.Shards > 0
	e := &Engine{
		opts: opts, shards: make([]*shard, max(opts.Shards, 1)),
		batch: min(batchLen, opts.QueueCapacity), done: make(chan struct{}),
	}
	if opts.PhaseWindow > 0 {
		closer, err := comm.NewWindowCloser(opts.Threads, opts.PhaseWindow)
		if err != nil {
			return nil, err
		}
		e.phaseCloser = closer
	}
	for i := range e.shards {
		backend, err := opts.NewBackend(i)
		if err != nil {
			return nil, fmt.Errorf("pipeline: shard %d backend: %w", i, err)
		}
		var mon *accuracy.Monitor
		if opts.Accuracy != nil {
			mon, err = accuracy.New(*opts.Accuracy)
			if err != nil {
				return nil, fmt.Errorf("pipeline: shard %d: %w", i, err)
			}
			e.monitors = append(e.monitors, mon)
		}
		s := &shard{backend: backend, stages: opts.Probes.Stage}
		if queued {
			buffers := opts.QueueCapacity / e.batch
			s.full = make(chan []trace.Access, buffers-1)
			s.free = make(chan []trace.Access, buffers+1)
			s.track = opts.Timeline.Track("shard-" + strconv.Itoa(i))
		}
		var onEvent func(detect.Event)
		if opts.PhaseWindow > 0 {
			s.windows, err = comm.NewWindowSet(opts.Threads, opts.PhaseWindow)
			if err != nil {
				return nil, fmt.Errorf("pipeline: shard %d: %w", i, err)
			}
			onEvent = func(ev detect.Event) {
				if queued {
					// Worker-goroutine only: stage lock-free, flush per drain.
					s.evbuf = append(s.evbuf, comm.WindowEvent{
						Time: ev.Time, Region: ev.Region,
						Src: ev.Writer, Dst: ev.Reader, Bytes: uint64(ev.Bytes),
					})
				} else {
					s.windows.Observe(ev.Time, ev.Region, ev.Writer, ev.Reader, uint64(ev.Bytes))
				}
			}
		}
		d, err := detect.New(detect.Options{
			Threads: opts.Threads, Backend: backend, Table: opts.Table,
			GranularityBits: opts.GranularityBits, OnEvent: onEvent,
			RedundancyCacheBits: opts.RedundancyCacheBits,
			Accuracy:            mon,
			Probes:              opts.Probes.Detect,
			Overhead:            opts.Probes.Overhead,
		})
		if err != nil {
			return nil, fmt.Errorf("pipeline: shard %d: %w", i, err)
		}
		s.d = d
		e.shards[i] = s
	}
	if !queued {
		e.inThread = e.shards[0].d
		return e, nil
	}
	for i, s := range e.shards {
		e.wg.Add(1)
		go s.worker(i, e.opts.Probes.Pipeline, &e.wg)
	}
	return e, nil
}

// Shards returns the configured shard count K; 0 is the in-thread engine.
func (e *Engine) Shards() int { return e.opts.Shards }

// route maps an access to its shard index by hashing the
// granularity-coarsened address, so every address's full history lands on one
// FIFO queue.
func (e *Engine) route(addr uint64) int {
	if len(e.shards) == 1 {
		return 0
	}
	return int(murmur.HashAddr(addr>>e.opts.GranularityBits, shardSeed) % uint64(len(e.shards)))
}

// Producer is a per-producer staging handle in front of the shard queues:
// accesses accumulate in one private buffer per shard, and a buffer is handed
// to its shard's worker whole once it holds Engine.BatchSize accesses. A
// Producer is not safe for concurrent use — give each producing goroutine its
// own (its buffers are private, so concurrent producers never contend on
// staging). Call Flush before Close to push out any staged remainder.
//
// Staged accesses are invisible to shard workers until a flush, so a
// producer's resident footprint is at most Shards×BatchSize accesses and the
// detection latency of a staged access is bounded by its buffer's fill time
// plus the configured flush triggers.
//
// On the in-thread engine a Producer stages nothing: Process and ProcessBatch
// run the detector on the calling goroutine and Flush is a no-op, so batch
// sources feed either engine through the same handle.
type Producer struct {
	e       *Engine
	pending [][]trace.Access
	staged  int

	// peak/flushes are written only by the owning goroutine but read by
	// concurrent stats snapshots, hence atomics.
	peak    atomic.Int64
	flushes atomic.Uint64

	// track is this producer's timeline row; flush spans land here (nil when
	// the timeline is off).
	track *obs.Track
}

// NewProducer returns a staging handle for one producing goroutine. A single
// producer needs no flush between threads, whatever the mix of threads it
// carries: each shard's FIFO receives its accesses in stream order, which is
// all Algorithm 1 needs per address. The bool is ignored; the parameter is
// kept only because bench/layers.go still passes it, and ROADMAP item 0(d)
// deletes it.
func (e *Engine) NewProducer(bool) *Producer {
	if e.inThread != nil {
		return &Producer{e: e}
	}
	p := &Producer{
		e:       e,
		pending: make([][]trace.Access, len(e.shards)),
	}
	for i := range p.pending {
		p.pending[i] = make([]trace.Access, 0, e.batch)
	}
	e.prodMu.Lock()
	p.track = e.opts.Timeline.Track("producer-" + strconv.Itoa(len(e.producers)))
	e.producers = append(e.producers, p)
	e.prodMu.Unlock()
	return p
}

// Process stages one access, handing the target shard's buffer over when it
// is full.
func (p *Producer) Process(a trace.Access) {
	e := p.e
	if e.inThread != nil {
		e.inThread.Process(a)
		return
	}
	i := e.route(a.Addr)
	buf := p.pending[i]
	buf = buf[:len(buf)+1] // every staging buffer holds e.batch and is handed on full
	b := &buf[len(buf)-1]
	b.Time, b.Addr, b.Size, b.Thread, b.Region, b.Kind = a.Time, a.Addr, a.Size, a.Thread, a.Region, a.Kind
	p.staged++
	if int64(p.staged) > p.peak.Load() {
		p.peak.Store(int64(p.staged))
	}
	if len(buf) == e.batch {
		p.track.Begin("flush")
		buf = e.handOff(i, buf)
		p.track.End("flush")
		p.staged -= e.batch
		p.noteFlush()
	}
	p.pending[i] = buf
}

// ProcessBatch stages a run of accesses — the natural feed from
// trace.Decoder.NextBatch, pairing the codec's block-at-a-time decode with
// the producer's per-shard staging. Semantically identical to calling
// Process on each element. With Options.Probes.Stage the call is timed where the
// time goes: in-thread it is the detector's own work (BatchService), queued
// it is staging plus any wait on a full shard queue (Producer) — the workers
// time their BatchService themselves, so no nanosecond is counted twice.
func (p *Producer) ProcessBatch(batch []trace.Access) {
	st := p.e.opts.Probes.Stage
	var t0 time.Time
	if st != nil {
		t0 = time.Now()
	}
	if d := p.e.inThread; d != nil {
		d.ProcessBatch(batch)
		if st != nil {
			st.BatchService.Observe(uint64(time.Since(t0)))
		}
		return
	}
	for _, a := range batch {
		p.Process(a)
	}
	if st != nil {
		st.Producer.Observe(uint64(time.Since(t0)))
	}
}

// Flush hands over every staged buffer. Call it when the producer is done (or
// at any ordering boundary); staged accesses are otherwise invisible to the
// shard workers. Timed into the Producer stage like ProcessBatch.
func (p *Producer) Flush() {
	if p.staged == 0 {
		return
	}
	st := p.e.opts.Probes.Stage
	var t0 time.Time
	if st != nil {
		t0 = time.Now()
	}
	p.flush()
	if st != nil {
		st.Producer.Observe(uint64(time.Since(t0)))
	}
}

// flush is Flush without the stage timing, for the thread-switch trigger
// inside Process (which an enclosing ProcessBatch already times). Callers
// check that something is staged.
func (p *Producer) flush() {
	p.track.Begin("flush")
	for i, buf := range p.pending {
		if len(buf) > 0 {
			p.pending[i] = p.e.handOff(i, buf)
		}
	}
	p.staged = 0
	p.noteFlush()
	p.track.End("flush")
}

func (p *Producer) noteFlush() {
	p.flushes.Add(1)
	if pr := p.e.opts.Probes.Pipeline; pr != nil {
		pr.ProducerFlushes.Inc()
	}
}

// ProcessStream feeds a recorded access stream through the pipeline with
// per-shard batching. Single producer only: concurrent callers would
// interleave their staging batches and break per-address order. Per-shard
// order equals stream order, so results are deterministic for a fixed stream
// and shard count.
func (e *Engine) ProcessStream(accesses []trace.Access) {
	p := e.NewProducer(false)
	p.ProcessBatch(accesses)
	p.Flush()
}

// Close drains every shard queue, stops the workers and merges shard results.
// Idempotent; call it before reading Global, Tree or Stats. Accesses a
// Producer hands over after (or racing) Close are ignored. In-thread there is
// nothing to drain: the callers' Process calls have already returned.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		// done turns away producers from here on; the nil buffer queues up
		// behind everything handed over before it and ends the worker.
		close(e.done)
		for _, s := range e.shards {
			if s.full != nil {
				s.full <- nil
			}
		}
		e.wg.Wait()
		// Workers are quiescent: flush every remaining window partial and
		// emit the tail of the live window stream.
		e.advancePhasesAt(^uint64(0))
		e.closed.Store(true)
	})
}

// phaseFrontier is the largest logical time no in-flight access can precede:
// the minimum over all shards of the largest fully-processed access time. A
// shard that has processed nothing holds the frontier at 0, so nothing is
// emitted until every shard has made progress — late emission is impossible
// in deterministic and replay feeds, whose per-shard arrival order is time
// order. In-thread the frontier is the newest event's time, as in
// metrics.PhaseSegmenter: event time is monotone in those feeds, so a window
// wholly below the newest event is final.
func (e *Engine) phaseFrontier() uint64 {
	if e.inThread != nil {
		return e.shards[0].windows.MaxTime()
	}
	frontier := ^uint64(0)
	for _, s := range e.shards {
		if t := s.maxTime.Load(); t < frontier {
			frontier = t
		}
	}
	return frontier
}

// advancePhasesAt drains shard window partials below the frontier, merges
// them, and emits newly completed windows to Options.OnWindowClose in start
// order. Returns the number of windows emitted; 0 when phases are off.
func (e *Engine) advancePhasesAt(frontier uint64) int {
	if e.phaseCloser == nil {
		return 0
	}
	st := e.opts.Probes.Stage
	var t0 time.Time
	if st != nil {
		t0 = time.Now()
	}
	sources := make([]*comm.WindowSet, len(e.shards))
	for i, s := range e.shards {
		sources[i] = s.windows
	}
	lateBefore := e.phaseCloser.Late()
	n := e.phaseCloser.Advance(frontier, sources, e.opts.OnWindowClose)
	if p := e.opts.Probes.Phase; p != nil {
		if d := e.phaseCloser.Late() - lateBefore; d > 0 {
			p.LateWindows.Add(d)
		}
	}
	if st != nil {
		st.Window.Observe(uint64(time.Since(t0)))
	}
	return n
}

// AdvancePhases closes every communication window now wholly below the
// engine's frontier, emitting each exactly once, in start order, to
// Options.OnWindowClose. The live observability sampler drives this
// periodically; Close runs a final exhaustive advance. Safe from any
// goroutine while the run is in flight; a no-op when PhaseWindow is 0.
//
// Every facade feed is time-ordered per shard, so no window partial surfaces
// after its window was emitted. Should one (several concurrent producers can
// interleave their stamps), it is merged (the final PhaseWindows set is always
// complete and exact) but not re-emitted, and is counted by the LateWindows
// probe, the tripwire for that invariant.
func (e *Engine) AdvancePhases() int {
	if e.phaseCloser == nil {
		return 0
	}
	return e.advancePhasesAt(e.phaseFrontier())
}

// PhaseWindows returns the complete merged set of time-windowed
// communication sub-matrices. It errors until Close, or when the engine was
// built without PhaseWindow.
func (e *Engine) PhaseWindows() (*comm.WindowSet, error) {
	if e.phaseCloser == nil {
		return nil, fmt.Errorf("pipeline: PhaseWindow not configured")
	}
	if !e.closed.Load() {
		return nil, fmt.Errorf("pipeline: PhaseWindows before Close")
	}
	return e.phaseCloser.Done(), nil
}

// phaseLateWindows counts shard window partials that surfaced after their
// window was emitted live; always 0 in deterministic and replay feeds, which
// the tests hold it to.
func (e *Engine) phaseLateWindows() uint64 {
	if e.phaseCloser == nil {
		return 0
	}
	return e.phaseCloser.Late()
}

// merge sums the shard matrices and counters into the standard global /
// outside / per-region form. Runs once, after Close. A single shard's
// matrices already are the result, so they are aliased rather than copied.
// The detectors wrote them plainly: Close's wg.Wait (K > 0), or the in-thread
// source having returned to Close's caller, orders those writes before this.
func (e *Engine) merge() {
	e.mergeOnce.Do(func() {
		if len(e.shards) == 1 {
			d := e.shards[0].d
			e.global, e.outside, e.regionAcc = d.Global(), d.Outside(), d.RegionAccesses()
			e.perRegion = make([]*comm.Matrix, len(e.regionAcc))
			for i := range e.perRegion {
				e.perRegion[i], _ = d.RegionMatrix(int32(i)) // in range by construction
			}
			return
		}
		n := e.opts.Threads
		e.global = comm.NewMatrix(n)
		e.outside = comm.NewMatrix(n)
		for _, s := range e.shards {
			e.global.AddMatrix(s.d.Global())
			e.outside.AddMatrix(s.d.Outside())
		}
		if e.opts.Table != nil {
			e.perRegion = make([]*comm.Matrix, e.opts.Table.Len())
			e.regionAcc = make([]uint64, e.opts.Table.Len())
			for i := range e.perRegion {
				m := comm.NewMatrix(n)
				for _, s := range e.shards {
					sm, err := s.d.RegionMatrix(int32(i))
					if err == nil {
						m.AddMatrix(sm)
					}
				}
				e.perRegion[i] = m
			}
			for _, s := range e.shards {
				for i, v := range s.d.RegionAccesses() {
					e.regionAcc[i] += v
				}
			}
		}
	})
}

// Tree builds the merged nested communication structure — the same
// comm.Tree a serial detector produces. It errors until Close, or when the
// engine was built without a region table.
func (e *Engine) Tree() (*comm.Tree, error) {
	if !e.closed.Load() {
		return nil, fmt.Errorf("pipeline: Tree before Close")
	}
	if e.opts.Table == nil {
		return nil, fmt.Errorf("pipeline: no region table configured")
	}
	e.merge()
	return comm.BuildTree(e.opts.Table, e.perRegion, e.regionAcc, e.global, e.outside)
}

// Stats aggregates the engine's work across shards.
type Stats struct {
	Processed uint64 // accesses analysed by shard workers
	Detected  uint64 // inter-thread RAW dependencies found
	CommBytes uint64 // total communicated bytes
	// DroppedReads always reads 0: the engine analyses every access it is
	// handed. The field stays only because the bench/ module compiles
	// against it (ROADMAP item 0(d) removes both).
	DroppedReads uint64
}

// Stats returns aggregate counters; safe while the run is in flight.
func (e *Engine) Stats() Stats {
	var st Stats
	for _, s := range e.shards {
		ds := s.d.Stats()
		st.Processed += ds.Processed
		st.Detected += ds.Detected
		st.CommBytes += ds.CommBytes
	}
	return st
}

// ShardStat describes one shard's queue and work.
type ShardStat struct {
	Processed uint64 // accesses this shard analysed
	Depth     int    // current queue depth
	PeakDepth int    // maximum queue depth observed
}

// ShardStats returns per-shard statistics; safe while the run is in flight.
func (e *Engine) ShardStats() []ShardStat {
	out := make([]ShardStat, len(e.shards))
	for i, s := range e.shards {
		out[i] = ShardStat{Processed: s.d.Stats().Processed, Depth: s.Depth(), PeakDepth: int(s.peak.Load())}
	}
	return out
}

// ShardDepth reports shard i's current queue depth — the live gauge source.
func (e *Engine) ShardDepth(i int) int { return e.shards[i].Depth() }

// ProducerFlushes sums staging-buffer flushes across all producers; safe
// while the run is in flight.
func (e *Engine) ProducerFlushes() uint64 {
	e.prodMu.Lock()
	defer e.prodMu.Unlock()
	var total uint64
	for _, p := range e.producers {
		total += p.flushes.Load()
	}
	return total
}

// PeakResidentAccesses bounds the engine's in-flight access residency: the
// sum of every shard's peak queue depth plus every producer's peak staging
// occupancy. This is the O(queue depth + staging) quantity streaming replay
// holds resident instead of the whole trace. Safe while the run is in flight.
func (e *Engine) PeakResidentAccesses() int {
	total := 0
	for _, s := range e.shards {
		total += int(s.peak.Load())
	}
	e.prodMu.Lock()
	for _, p := range e.producers {
		total += int(p.peak.Load())
	}
	e.prodMu.Unlock()
	return total
}

// BatchSize reports the hand-off buffer length: 256 accesses, or the queue
// capacity when that is smaller.
func (e *Engine) BatchSize() int { return e.batch }

// QueueCapacity reports the effective per-shard bound: the requested capacity
// rounded down to a whole number of buffers.
func (e *Engine) QueueCapacity() int { return e.opts.QueueCapacity }

// RedundancyStats merges every shard cache's fast-path counters. The second
// return is false when RedundancyCacheBits was 0. Safe while the run is in
// flight (the snapshot is racy across shards, exact after Close).
func (e *Engine) RedundancyStats() (redundancy.Stats, bool) {
	var agg redundancy.Stats
	on := false
	for _, s := range e.shards {
		if st, ok := s.d.RedundancyStats(); ok {
			agg = agg.Add(st)
			on = true
		}
	}
	return agg, on
}

// AccuracyStats merges every shard monitor's paired-verdict counters. The
// second return is false when Options.Accuracy was nil. Safe while the run
// is in flight (the snapshot is racy across shards, exact after Close).
func (e *Engine) AccuracyStats() (accuracy.Stats, bool) {
	if len(e.monitors) == 0 {
		return accuracy.Stats{}, false
	}
	var agg accuracy.Stats
	for _, m := range e.monitors {
		agg = agg.Add(m.Stats())
	}
	return agg, true
}

// AccuracyEstimate derives the engine-wide FPR estimate from the merged
// per-shard stats. The second return is false when Options.Accuracy was nil.
func (e *Engine) AccuracyEstimate() (accuracy.Estimate, bool) {
	st, ok := e.AccuracyStats()
	if !ok {
		return accuracy.Estimate{}, false
	}
	return accuracy.EstimateFrom(st, e.opts.Accuracy.SampleBits, e.opts.Accuracy.TargetFPR), true
}

// EvaluateAccuracy runs the engine's warn-once saturation alarm against the
// merged estimate. A no-op without monitors; safe from any goroutine.
func (e *Engine) EvaluateAccuracy() {
	if est, ok := e.AccuracyEstimate(); ok {
		e.accAlarm.Evaluate(est)
	}
}

// AccuracyAlarm returns the latched saturation message, if any.
func (e *Engine) AccuracyAlarm() (string, bool) { return e.accAlarm.Message() }

// AccuracyShadowBytes sums the memory held by every shard monitor's exact
// shadow.
func (e *Engine) AccuracyShadowBytes() uint64 {
	var total uint64
	for _, m := range e.monitors {
		total += m.ShadowFootprintBytes()
	}
	return total
}

// Occupancy estimates the mean fraction of occupied signature slots across
// the shard partitions that expose one, 0 when none does (exact backends).
func (e *Engine) Occupancy() float64 {
	var sum float64
	n := 0
	for _, s := range e.shards {
		if o, ok := s.backend.(interface{ Occupancy() float64 }); ok {
			sum += o.Occupancy()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// SigFootprintBytes sums the live memory of every shard's signature
// partition.
func (e *Engine) SigFootprintBytes() uint64 {
	var total uint64
	for _, s := range e.shards {
		total += s.backend.FootprintBytes()
	}
	return total
}
