package commprof

import (
	"fmt"
	"io"

	"commprof/internal/trace"
)

// Record profiles the named bundled workload while also recording its full
// access trace (with the static region table) to w in the binary trace
// format — v3, the compact delta/varint block encoding and the one format
// written — for later offline analysis with Replay. This is the workflow the paper contrasts with
// on-the-fly analysis: trace files grow with execution length — the radix
// simlarge trace is tens of MB even at a few bytes per access, where the live
// profiler's signature stays fixed — which is precisely why DiscoPoP
// analyses online.
//
// The accesses are encoded a quantum (1 024 accesses) at a time, in issue
// order and in front of the sampling gate, behind the simulated threads;
// nothing holds the run as access records. The header's counts are known only when the run ends and w need
// not seek, so the encoded stream is staged in memory and handed to w in one
// Write after a successful run: resident memory is O(encoded bytes), and a
// failed run writes nothing.
func Record(opts Options, w io.Writer) (*Report, error) {
	opts.setDefaults()
	src, err := splashSource(opts)
	if err != nil {
		return nil, err
	}
	var staged trace.Buffer
	enc, err := trace.NewDynamicEncoder(&staged, src.table)
	if err != nil {
		return nil, err
	}
	// The tap sits in front of the sampling gate, so the trace is complete
	// whatever the analyser is configured to skip.
	src.tap = enc
	rep, err := profileEngine(opts, src)
	if err != nil {
		return nil, err
	}
	enc.SetThreads(opts.Threads)
	if err := enc.Close(); err != nil {
		return nil, fmt.Errorf("commprof: write trace: %w", err)
	}
	if _, err := w.Write(staged.Bytes()); err != nil {
		return nil, fmt.Errorf("commprof: write trace: %w", err)
	}
	return rep, nil
}

// replayBatchSize is the capacity of each of Replay's three decode buffers
// (64 KB each): one hand-off per 2 048 records is noise beside decoding and
// analysing them, and the three buffers stay resident in cache.
const replayBatchSize = 2048

// Replay runs the profiler offline over a trace previously written by
// Record. threads must match the recording's thread count (the matrix
// dimension); it is validated against the trace contents. For a v2/v3 trace
// — one recorded from a real goroutine program, whose header carries the
// final goroutine count the shim registered — threads may be 0, meaning
// "use the count the trace declares". All codec versions replay.
//
// Replay decodes the trace incrementally, one batch ahead of the analyser:
// the region table is read up front, then a goroutine of its own decodes
// into three circulating buffers (Decoder.NextBatch) while the caller's
// goroutine analyses the last one filled. Resident memory is O(region table
// + three batches), plus the shard queues and staging with AnalysisShards —
// never O(accesses). A truncated or corrupt access section fails with
// "record i of n" context after the prefix before it has been analysed.
func Replay(r io.Reader, threads int, opts Options) (*Report, error) {
	opts.setDefaults()
	if threads < 0 {
		return nil, fmt.Errorf("commprof: threads must be non-negative, got %d", threads)
	}
	dec, err := trace.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	if threads == 0 {
		if threads = dec.Threads(); threads == 0 {
			return nil, fmt.Errorf("commprof: threads 0 requires a v2 or v3 trace that declares its goroutine count; this trace does not")
		}
	}
	probes := opts.Telemetry.Probes()
	dec.Probes = probes.Trace
	// Stage timing: decode time is observed inside the decoder (on the decode
	// goroutine, overlapping the analyser), the analyser side of each batch
	// inside Producer.ProcessBatch. Nil probes keep both bare.
	dec.Stages = probes.Stage
	table := dec.Table()
	// From here one goroutine owns dec. It fills buffers taken from free,
	// checks every record's thread and sends them on full, until the first
	// error (io.EOF at the end), which it leaves in decErr before closing
	// full. It starts before the analyser is built, so the first batches
	// decode while the signature arena is zeroed; on any other return the
	// deferred close of stop ends it, and Replay waits until it has. full
	// holds the two buffers the analyser is not working on.
	full, free, stop := make(chan []trace.Access, 2), make(chan []trace.Access, 3), make(chan struct{})
	for range cap(free) {
		free <- make([]trace.Access, 0, replayBatchSize)
	}
	var decErr error
	go func() {
		defer close(full)
		for decoded := uint64(0); ; {
			var batch []trace.Access
			select {
			case batch = <-free:
			case <-stop:
				return
			}
			if batch, decErr = dec.NextBatch(batch); decErr != nil {
				return
			}
			for i := range batch {
				if th := batch[i].Thread; th < 0 || int(th) >= threads {
					decErr = fmt.Errorf("commprof: trace access %d has thread %d, outside [0,%d)", decoded+uint64(i), th, threads)
					return
				}
			}
			decoded += uint64(len(batch))
			full <- batch // the deferred drain below receives it after a stop
		}
	}()
	defer func() {
		close(stop)
		for range full { // until the goroutine has returned
		}
	}()
	an, err := newAnalysis(opts, threads, table)
	if err != nil {
		return nil, err
	}
	defer an.pe.Close()
	// Replay has no exec engine; the gauges and /progress bind to the
	// analysis engine's merged state, which stays valid after Close — a
	// post-run scrape sees the final hit rates instead of unbound zeros.
	an.wire(nil)
	// A recorded stream is a single producer: in-thread each batch runs
	// through the detector here, sharded per-shard batching applies at full
	// strength.
	p := an.producer(false)
	var accesses uint64
	for batch := range full {
		accesses += uint64(len(batch))
		an.feedBatch(p, batch)
		free <- batch
	}
	if decErr != io.EOF {
		return nil, decErr
	}
	return an.finish("replay", accesses)
}
