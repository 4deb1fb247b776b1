package experiments

import (
	"fmt"
	"strings"

	"commprof/internal/detect"
	"commprof/internal/splash"
)

// QueueRow is one producer regime of the queue-architecture comparison.
type QueueRow struct {
	Regime         string // "paced" or "bursty"
	PeakQueueLen   int
	PeakQueueBytes uint64
	MatrixMatches  bool
}

// QueueResult contrasts the original DiscoPoP's queued analysis with this
// paper's in-thread analysis (§V-A2): the queue's peak memory depends on how
// the analyser keeps up, while the in-thread design has no queue at all.
type QueueResult struct {
	App            string
	Events         uint64
	SignatureBytes uint64 // the fixed in-thread analysis footprint
	Rows           []QueueRow
}

// The queue experiment's rate model, in producer ticks (detect.ClockedQueue):
// issuing an access takes one tick and analysing one takes queueAnalyserCost,
// the order of Fig. 4's slowdown of analysis over the bare access. The paced
// producer computes between short runs of accesses for as long as the
// analyser needs to retire them; the bursty one only issues accesses.
const (
	queueAnalyserCost = 4
	queuePacedBurst   = 32
	queuePacedCompute = queuePacedBurst * queueAnalyserCost
)

// Queue records one application's stream, replays it through the queued
// architecture under a paced and a bursty producer, and reports peak queue
// growth against the in-thread design's fixed footprint. The replays run on a
// virtual clock, so the peaks depend on the stream alone and repeat exactly.
func Queue(env Env, app string, size splash.Size) (*QueueResult, error) {
	stream, _, err := env.record(app, size)
	if err != nil {
		return nil, err
	}

	// Reference: in-thread analysis.
	ref, refSig, err := env.newDetector(nil)
	if err != nil {
		return nil, err
	}
	ref.ProcessBatch(stream)

	res := &QueueResult{App: app, Events: uint64(len(stream)), SignatureBytes: refSig.FootprintBytes()}
	for _, regime := range []string{"paced", "bursty"} {
		qd, _, err := env.newDetector(nil)
		if err != nil {
			return nil, err
		}
		q := detect.NewClockedQueue(qd, queueAnalyserCost)
		for i, a := range stream {
			q.Process(a)
			// A paced producer interleaves computation with its accesses, so
			// the analyser keeps up; a bursty producer issues its accesses
			// back to back — the regime the paper's §V-A2 critique targets.
			if regime == "paced" && (i+1)%queuePacedBurst == 0 {
				q.Compute(queuePacedCompute)
			}
		}
		q.Close()
		res.Rows = append(res.Rows, QueueRow{
			Regime:         regime,
			PeakQueueLen:   q.PeakQueueLength(),
			PeakQueueBytes: q.PeakQueueBytes(),
			MatrixMatches:  qd.Global().Equal(ref.Global()),
		})
	}
	return res, nil
}

// Render formats the comparison.
func (r *QueueResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§V-A2 queue architecture — %s (%d events)\n", r.App, r.Events)
	fmt.Fprintf(&b, "in-thread analysis (this paper): no queue; fixed signature %d KB\n\n", r.SignatureBytes/1024)
	fmt.Fprintf(&b, "queued analysis (original DiscoPoP):\n")
	fmt.Fprintf(&b, "%10s %14s %14s %10s\n", "producer", "peak queue", "peak KB", "correct")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10s %14d %14d %10v\n",
			row.Regime, row.PeakQueueLen, row.PeakQueueBytes/1024, row.MatrixMatches)
	}
	b.WriteString("\nbursty access sequences overrun the analyser and the queue grows\ntoward the full stream; the in-thread design has no queue to grow.\n")
	return b.String()
}
