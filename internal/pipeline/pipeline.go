// Package pipeline is the analysis engine every profiling entry point feeds:
// with K = 0 shards it is the paper's in-thread analyser (§IV-D3, §V-A2) — one
// detect.Detector over the whole signature, run on the producer's goroutine,
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
// The engine has one producer, as PROMPT's backends have one frontend: every
// facade source feeds it from the run's one analyser goroutine through
// ProcessBatch, and Close, which first flushes what is staged, ends the run.
// In-thread, ProcessBatch runs the analyse step on that goroutine; sharded, it
// stages each access in its shard's buffer, sends a full buffer over the
// shard's bounded channel by pointer and takes an empty one from the shard's
// free list, and the worker runs the same analyse step on the buffer in place.
// An access is copied once, into the buffer, and never again.
//
// Queues are bounded, so analysis memory stays fixed however bursty the
// source is, and there is one overload behaviour: backpressure. The producer
// blocks on a full shard queue until the worker catches up, so analysis
// stays exhaustive (EnqueueStalls counts the episodes, the QueueWait stage
// times them). To analyse less, thin reads in front of the engine
// (detect.Gate, the facade's Options.SamplePeriod).
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

// batchLen is the hand-off unit: the producer sends a shard its staged
// accesses once this many have accumulated (or at Flush), and a worker
// analyses one such buffer per wakeup. Clamped to QueueCapacity.
const batchLen = 256

// shardSeed routes addresses to shards with a hash independent of both
// signature slot hashes, so shard skew does not correlate with slot
// collisions.
const shardSeed uint64 = 0xA0761D6478BD642F

// Options configures an analysis engine.
type Options struct {
	// Shards is the number of analysis shards K. 0 is the in-thread analyser:
	// one shard that owns the whole slot budget and runs Algorithm 1 on the
	// producer's goroutine — no queue, no worker, no staging — so
	// QueueCapacity does not apply. Every detector has one caller (see
	// detect.Detector): a shard worker, or at K = 0 the engine's producer, the
	// facade's analyser goroutine.
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
	// that is not a whole number of buffers is rounded down to one. The
	// producer blocks on a full queue.
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
	//     queue (QueueWait), the analyse step (Drain, with BatchService and
	//     Window as timed sub-stages), and the periodic window advance.
	//     Timing is per batch — a handful of monotonic-clock reads per few
	//     hundred accesses — never per access.
	//   - Phase is not read: window-close and transition counters are the
	//     OnWindowClose consumer's business.
	Probes obs.Probes
	// Timeline, when non-nil, records execution-timeline events: one track
	// per shard worker (busy-period spans) and one for the producer (flush
	// spans, track producer-0). Nil keeps the hot path free of timeline work
	// beyond one nil check per drain/flush.
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
// engine's single shard has no queue and no worker: the producer runs its
// analyse step directly.
type shard struct {
	d       *detect.Detector
	backend sig.Backend
	stages  *obs.StageProbes
	track   *obs.Track // worker timeline track; nil when the timeline is off

	// full carries filled buffers to the worker and is the bound: it holds
	// one buffer fewer than QueueCapacity allows because the worker holds one
	// while analysing it. free is where the worker leaves drained buffers for
	// the producer to pick up. It has room for every buffer the shard ever
	// circulates — the queue's, the worker's and the producer's — so neither
	// side blocks on it and a replay allocates nothing in steady state.
	full chan []trace.Access
	free chan []trace.Access

	// depth counts accesses handed over and not yet analysed, peak its
	// maximum. The producer adds after a successful send and the worker
	// subtracts after analysing, so a fast worker can briefly drive depth
	// below zero: read it through Depth.
	depth atomic.Int64
	peak  atomic.Int64

	// windows accumulates this shard's time-windowed sub-matrices (nil when
	// Options.PhaseWindow is 0); maxTime is the largest access time the shard
	// has finished analysing, its contribution to the window-close frontier.
	// evbuf stages the events of one batch — written only from the
	// detector's OnEvent, by the analyse step's one caller — and analyse
	// applies them to windows under one lock per batch, not one per event.
	windows *comm.WindowSet
	evbuf   []comm.WindowEvent
	maxTime atomic.Uint64
}

// Depth reports the current queue depth; safe while the run is in flight.
func (s *shard) Depth() int { return int(max(s.depth.Load(), 0)) }

// handOff gives shard i's worker a filled buffer by pointer and returns an
// empty one for the producer to fill next. A full queue blocks the producer
// until the worker catches up — backpressure, the engine's one overload
// behaviour. The next buffer comes from the free list when it has one and is
// allocated otherwise, so the shard's circulation grows to its bound (the
// queue's buffers, the worker's and the producer's) as the queue first fills
// instead of the producer waiting behind the worker.
func (e *Engine) handOff(i int, buf []trace.Access) []trace.Access {
	s, p := e.shards[i], e.opts.Probes.Pipeline
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
		s.full <- buf
		if s.stages != nil {
			s.stages.QueueWait.Observe(uint64(time.Since(t0)))
		}
	}
	// The producer is depth's only adder, so a load and a store keep the peak.
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
// run records a handful of spans, not one per buffer.
func (s *shard) drainLoop(p *obs.PipelineProbes) {
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
		if p != nil {
			p.QueueDepth.Observe(uint64(s.Depth()))
		}
		s.analyse(buf)
		if p != nil {
			p.BatchSizes.Observe(uint64(len(buf)))
		}
		s.depth.Add(int64(-len(buf)))
		s.free <- buf[:0]
	}
}

// analyse is the one analyse step, at every K: Algorithm 1 over the batch,
// then the batch's window events applied under one lock, then the shard's
// window-close frontier advanced to the batch's newest access. Its one
// caller is the shard worker, or in-thread the engine's producer. Every feed
// arrives time-ordered per shard, so every future event on this shard has a
// larger time; the engine frontier is the minimum across shards. Stage timing
// is per batch: at most three monotonic-clock reads.
func (s *shard) analyse(buf []trace.Access) {
	st := s.stages
	var t0 time.Time
	if st != nil {
		t0 = time.Now()
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
}

// Engine is the analysis engine and its own single producer: one goroutine
// at a time feeds it through ProcessBatch (and, at an ordering boundary of
// its own, Flush), then Close ends the run before merged results are read.
type Engine struct {
	opts   Options
	shards []*shard
	wg     sync.WaitGroup

	// batch is the hand-off buffer length, min(batchLen, QueueCapacity).
	// pending holds one staging buffer per shard (nil in-thread); staged
	// counts the accesses in them, peakStaged its maximum, flushes the
	// hand-offs. The producer alone writes them, and they are read after
	// Close. track is the producer's timeline row (nil when the timeline is
	// off).
	batch      int
	pending    [][]trace.Access
	staged     int
	peakStaged int
	flushes    uint64
	track      *obs.Track

	// monitors holds each shard's private accuracy monitor (empty when
	// Options.Accuracy is nil); accAlarm is the engine-level warn-once latch
	// evaluated against the merged estimate.
	monitors []*accuracy.Monitor
	accAlarm accuracy.Alarm

	// phaseCloser merges shard window partials and emits completed windows
	// (nil when Options.PhaseWindow is 0).
	phaseCloser *comm.WindowCloser

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
		batch: min(batchLen, opts.QueueCapacity),
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
				s.evbuf = append(s.evbuf, comm.WindowEvent{
					Time: ev.Time, Region: ev.Region,
					Src: ev.Writer, Dst: ev.Reader, Bytes: uint64(ev.Bytes),
				})
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
		return e, nil
	}
	e.pending = make([][]trace.Access, len(e.shards))
	for i := range e.pending {
		e.pending[i] = make([]trace.Access, 0, e.batch)
	}
	e.track = opts.Timeline.Track("producer-0")
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

// NewProducer returns the engine, which is its own producer. It is kept only
// because bench/layers.go still calls it; ROADMAP item 0(d) deletes it.
func (e *Engine) NewProducer(bool) *Engine { return e }

// ProcessBatch feeds a run of accesses to the engine: in-thread it runs the
// analyse step on the calling goroutine; sharded it stages each access in its
// shard's buffer and hands the buffer over whole once it holds a batch, so
// each shard's FIFO receives its accesses in stream order, which is all
// Algorithm 1 needs per address. The engine has one producer: call
// ProcessBatch, Flush and Close from one goroutine at a time, and
// ProcessBatch never after Close (a batch that follows Close is ignored).
// With Options.Probes.Stage the call is timed where the time goes: in-thread
// by the analyse step, sharded as staging plus any wait on a full shard queue
// (the Producer stage) — the workers time their analyse steps themselves, so
// no nanosecond is counted twice.
func (e *Engine) ProcessBatch(batch []trace.Access) {
	if e.closed.Load() {
		return
	}
	if e.pending == nil {
		e.shards[0].analyse(batch)
		return
	}
	st := e.opts.Probes.Stage
	var t0 time.Time
	if st != nil {
		t0 = time.Now()
	}
	for j := range batch {
		a := &batch[j]
		i := e.route(a.Addr)
		buf := e.pending[i]
		buf = buf[:len(buf)+1] // every staging buffer holds e.batch and is handed on full
		b := &buf[len(buf)-1]
		b.Time, b.Addr, b.Size, b.Thread, b.Region, b.Kind = a.Time, a.Addr, a.Size, a.Thread, a.Region, a.Kind
		e.staged++
		e.peakStaged = max(e.peakStaged, e.staged)
		if len(buf) == e.batch {
			e.track.Begin("flush")
			buf = e.handOff(i, buf)
			e.track.End("flush")
			e.staged -= e.batch
			e.noteFlush()
		}
		e.pending[i] = buf
	}
	if st != nil {
		st.Producer.Observe(uint64(time.Since(t0)))
	}
}

// Flush hands over every staged buffer; staged accesses are otherwise
// invisible to the shard workers until their buffer fills. Close calls it
// first, so a producer needs it only at an ordering boundary of its own.
// Timed into the Producer stage like ProcessBatch.
func (e *Engine) Flush() {
	if e.staged == 0 {
		return
	}
	st := e.opts.Probes.Stage
	var t0 time.Time
	if st != nil {
		t0 = time.Now()
	}
	e.track.Begin("flush")
	for i, buf := range e.pending {
		if len(buf) > 0 {
			e.pending[i] = e.handOff(i, buf)
		}
	}
	e.staged = 0
	e.noteFlush()
	e.track.End("flush")
	if st != nil {
		st.Producer.Observe(uint64(time.Since(t0)))
	}
}

func (e *Engine) noteFlush() {
	e.flushes++
	if pr := e.opts.Probes.Pipeline; pr != nil {
		pr.ProducerFlushes.Inc()
	}
}

// Close flushes what is staged, drains every shard queue, stops the workers
// and closes the last phase windows. Idempotent; call it on the producer's
// goroutine, or once the producer is done, before reading Tree or Stats.
// In-thread there is nothing to drain: the producer's ProcessBatch calls
// have already returned.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.Flush()
		// The nil buffer queues up behind everything handed over before it
		// and ends the worker.
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
// the minimum over all shards of the largest fully-analysed access time. A
// shard that has analysed nothing holds the frontier at 0, so nothing is
// emitted until every shard has made progress — late emission is impossible
// with one producer, whose per-shard arrival order is time order.
func (e *Engine) phaseFrontier() uint64 {
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
	n := e.phaseCloser.Advance(frontier, sources, e.opts.OnWindowClose)
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
func (e *Engine) AdvancePhases() int {
	if e.phaseCloser == nil {
		return 0
	}
	return e.advancePhasesAt(e.phaseFrontier())
}

// PhaseWindows returns the complete merged set of time-windowed
// communication sub-matrices. It errors until Close, when the engine was
// built without PhaseWindow, or when a window partial surfaced after its
// window was emitted live — impossible with one time-ordered producer, so
// that error is a broken invariant.
func (e *Engine) PhaseWindows() (*comm.WindowSet, error) {
	if e.phaseCloser == nil {
		return nil, fmt.Errorf("pipeline: PhaseWindow not configured")
	}
	if !e.closed.Load() {
		return nil, fmt.Errorf("pipeline: PhaseWindows before Close")
	}
	if late := e.phaseCloser.Late(); late > 0 {
		return nil, fmt.Errorf("pipeline: %d window partials surfaced after their window was emitted: the feed was not time-ordered", late)
	}
	return e.phaseCloser.Done(), nil
}

// merge sums the shard matrices and counters into the standard global /
// outside / per-region form. Runs once, after Close. A single shard's
// matrices already are the result, so they are aliased rather than copied.
// The detectors wrote them plainly: Close's wg.Wait (K > 0), or the in-thread
// producer having returned to Close's caller, orders those writes before this.
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

// ProducerFlushes counts the producer's staging-buffer hand-offs; read it
// after Close.
func (e *Engine) ProducerFlushes() uint64 { return e.flushes }

// PeakResidentAccesses bounds the engine's in-flight access residency: the
// sum of every shard's peak queue depth plus the producer's peak staging
// occupancy. This is the O(queue depth + staging) quantity streaming replay
// holds resident instead of the whole trace. Read it after Close.
func (e *Engine) PeakResidentAccesses() int {
	total := e.peakStaged
	for _, s := range e.shards {
		total += int(s.peak.Load())
	}
	return total
}

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
