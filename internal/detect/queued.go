package detect

import (
	"slices"

	"commprof/internal/trace"
)

// ClockedQueue reproduces the analysis architecture of the *original*
// DiscoPoP profiler that the paper improves upon (§V-A2): the program
// enqueues memory accesses and a separate analyser drains the queue in
// order. The paper's critique — "due to using queue for analyzing memory
// accesses orderly, the queue size may increase dramatically if there is
// burst in accessing memory in the program" — is observable here as
// PeakQueueLength: whenever the producer outpaces the analyser, the queue
// (and so memory) grows without bound, unlike the in-thread analysis whose
// footprint stays fixed. (The modern fix, a bounded queue with backpressure,
// is internal/pipeline's shard ring.)
//
// The queue runs on a virtual clock, for results that must not depend on
// the Go scheduler: no analyser goroutine runs, and the caller plays the
// producer. Issuing an access (Process) takes one tick and computing without
// memory traffic (Compute) takes as many as it is given; the analyser needs
// cost ticks per access and works through every tick the queue is non-empty.
// Peak depth is then a function of the producer's burst/compute pattern and
// cost alone — the rate mismatch the critique is about — and repeats exactly
// on any host. Not safe for concurrent use.
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
	n := len(q.queue)
	q.queue = slices.Grow(q.queue, 1)[:n+1]
	p := &q.queue[n]
	p.Time, p.Addr, p.Size, p.Thread, p.Region, p.Kind = a.Time, a.Addr, a.Size, a.Thread, a.Region, a.Kind
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

// queuedRecordBytes is the in-queue size of one access record.
const queuedRecordBytes = 32

// PeakQueueBytes reports the memory the queue held at its peak.
func (q *ClockedQueue) PeakQueueBytes() uint64 { return uint64(q.peak) * queuedRecordBytes }
