package detect

import (
	"sync"

	"commprof/internal/trace"
)

// Queued reproduces the analysis architecture of the *original* DiscoPoP
// profiler that the paper improves upon (§V-A2): program threads enqueue
// memory accesses and a separate analyser drains the queue in order. The
// paper's critique — "due to using queue for analyzing memory accesses
// orderly, the queue size may increase dramatically if there is burst in
// accessing memory in the program" — is observable here as PeakQueueLength:
// whenever producers outpace the analyser, the queue (and so memory) grows
// without bound, unlike the in-thread analysis whose footprint stays fixed.
type Queued struct {
	d *Detector

	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	queue    []trace.Access
	closed   bool

	peak       int
	capacity   int // 0 = unbounded (the original architecture); >0 blocks producers when full
	perItemOps int // extra analyser work per event, simulating a slow consumer

	done sync.WaitGroup
}

// queuedRecordBytes is the in-queue size of one access record.
const queuedRecordBytes = 32

// NewQueued wraps d with an unbounded queue and starts the analyser
// goroutine — the paper-faithful reproduction of the original DiscoPoP.
// perItemOps adds artificial analyser work per event (0 = drain at full
// speed); bursty producers overrun slower analysers, growing the queue.
func NewQueued(d *Detector, perItemOps int) *Queued {
	return NewQueuedBounded(d, perItemOps, 0)
}

// NewQueuedBounded is NewQueued with an optional capacity: when capacity > 0
// a producer whose enqueue would exceed it blocks until the analyser drains a
// slot — backpressure instead of unbounded growth, the modern fix for the
// §V-A2 critique. capacity 0 keeps the original unbounded behaviour.
func NewQueuedBounded(d *Detector, perItemOps, capacity int) *Queued {
	q := &Queued{d: d, perItemOps: perItemOps, capacity: capacity}
	q.notEmpty = sync.NewCond(&q.mu)
	q.notFull = sync.NewCond(&q.mu)
	q.done.Add(1)
	go q.analyser()
	return q
}

// Process enqueues one access for ordered background analysis, blocking when
// a bounded queue is full. Safe for concurrent use by producers.
func (q *Queued) Process(a trace.Access) {
	q.mu.Lock()
	for q.capacity > 0 && len(q.queue) >= q.capacity && !q.closed {
		q.notFull.Wait()
	}
	q.queue = append(q.queue, a)
	if len(q.queue) > q.peak {
		q.peak = len(q.queue)
	}
	q.mu.Unlock()
	q.notEmpty.Signal()
}

// Probe adapts the queue to the executor hook.
func (q *Queued) Probe() func(trace.Access) {
	return func(a trace.Access) { q.Process(a) }
}

func (q *Queued) analyser() {
	defer q.done.Done()
	spin := uint64(1)
	for {
		q.mu.Lock()
		for len(q.queue) == 0 && !q.closed {
			q.notEmpty.Wait()
		}
		if len(q.queue) == 0 && q.closed {
			q.mu.Unlock()
			return
		}
		a := q.queue[0]
		q.queue = q.queue[1:]
		q.mu.Unlock()
		q.notFull.Signal()

		for i := 0; i < q.perItemOps; i++ {
			spin ^= spin << 13
			spin ^= spin >> 7
			spin ^= spin << 17
		}
		q.d.Process(a)
	}
}

// Close waits for the analyser to drain the queue and stop; call it before
// reading results from the wrapped detector.
func (q *Queued) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
	q.done.Wait()
}

// Capacity reports the configured bound (0 = unbounded).
func (q *Queued) Capacity() int { return q.capacity }

// PeakQueueLength reports the maximum number of accesses ever waiting.
func (q *Queued) PeakQueueLength() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.peak
}

// PeakQueueBytes reports the memory the queue held at its peak.
func (q *Queued) PeakQueueBytes() uint64 {
	return uint64(q.PeakQueueLength()) * queuedRecordBytes
}

// Detector returns the wrapped detector (read results only after Close).
func (q *Queued) Detector() *Detector { return q.d }

// ClockedQueue is the same queued architecture on a virtual clock, for
// results that must not depend on the Go scheduler: no analyser goroutine
// runs, and the caller plays the producer. Issuing an access (Process) takes
// one tick and computing without memory traffic (Compute) takes as many as it
// is given; the analyser needs cost ticks per access and works through every
// tick the queue is non-empty. Peak depth is then a function of the
// producer's burst/compute pattern and cost alone — the rate mismatch the
// §V-A2 critique is about — and repeats exactly on any host. Not safe for
// concurrent use.
type ClockedQueue struct {
	d      *Detector
	queue  []trace.Access
	head   int // queue[head:] is waiting
	peak   int
	cost   int
	credit int // analyser ticks not yet spent on an access
}

// NewClockedQueue wraps d with an unbounded queue whose analyser takes cost
// producer ticks per access (cost < 1 is taken as 1: it keeps pace with a
// producer that does nothing but issue accesses).
func NewClockedQueue(d *Detector, cost int) *ClockedQueue {
	return &ClockedQueue{d: d, cost: max(cost, 1)}
}

// Process enqueues one access and lets the tick it took pass.
func (q *ClockedQueue) Process(a trace.Access) {
	q.queue = append(q.queue, a)
	q.peak = max(q.peak, len(q.queue)-q.head)
	q.Compute(1)
}

// Compute lets ticks pass with the producer issuing nothing.
func (q *ClockedQueue) Compute(ticks int) {
	q.credit += ticks
	for q.credit >= q.cost && q.head < len(q.queue) {
		q.d.Process(q.queue[q.head])
		q.head++
		q.credit -= q.cost
	}
	if q.head == len(q.queue) {
		// An idle analyser banks no time against a later burst.
		q.queue, q.head, q.credit = q.queue[:0], 0, 0
	}
}

// Close analyses whatever is still queued; call it before reading results
// from the wrapped detector.
func (q *ClockedQueue) Close() {
	q.d.ProcessBatch(q.queue[q.head:])
	q.queue, q.head = nil, 0
}

// PeakQueueLength reports the maximum number of accesses ever waiting.
func (q *ClockedQueue) PeakQueueLength() int { return q.peak }

// PeakQueueBytes reports the memory the queue held at its peak.
func (q *ClockedQueue) PeakQueueBytes() uint64 { return uint64(q.peak) * queuedRecordBytes }
