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
// The accesses are encoded a quantum (2 048 accesses) at a time, in issue
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

// Replay runs the profiler offline over a trace previously written by
// Record. threads must match the recording's thread count (the matrix
// dimension); it is validated against the trace contents. For a v2/v3 trace
// — one recorded from a real goroutine program, whose header carries the
// final goroutine count the shim registered — threads may be 0, meaning
// "use the count the trace declares". All codec versions replay.
//
// Replay decodes the trace incrementally, a quantum (2 048 records) ahead of
// the analyser: the region table is read up front, then the caller's
// goroutine decodes straight into the analysis's quantum ring
// (Decoder.NextBatch) while the analyser goroutine works on the last quantum
// filled. Resident memory is O(region table + three quanta), plus the shard
// queues and staging with AnalysisShards — never O(accesses). A truncated or
// corrupt access section fails with "record i of n" context after the
// prefix before it has been analysed.
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
	// Stage timing: decode time is observed inside the decoder (on this
	// goroutine, overlapping the analyser), the analyser side of each quantum
	// inside Producer.ProcessBatch. Nil probes keep both bare.
	dec.Stages = probes.Stage
	an, err := newAnalysis(opts, threads, dec.Table())
	if err != nil {
		return nil, err
	}
	defer an.pe.Close()
	// Replay has no exec engine; the gauges and /progress bind to the
	// analysis engine's merged state, which stays valid after Close — a
	// post-run scrape sees the final hit rates instead of unbound zeros.
	an.wire(nil)
	// A recorded stream is a single producer: sharded, per-shard batching
	// applies at full strength.
	an.start(nil, false)
	defer an.endQuanta()
	var accesses uint64
	for {
		if an.quantum, err = dec.NextBatch(an.quantum); err == io.EOF {
			return an.finish("replay", accesses)
		} else if err != nil {
			return nil, err
		}
		for i := range an.quantum {
			if th := an.quantum[i].Thread; th < 0 || int(th) >= threads {
				an.quantum = an.quantum[:i] // the analyser sees only checked records
				return nil, fmt.Errorf("commprof: trace access %d has thread %d, outside [0,%d)", accesses+uint64(i), th, threads)
			}
		}
		accesses += uint64(len(an.quantum))
		an.handOn()
	}
}
