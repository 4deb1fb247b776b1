package commprof

import (
	"fmt"
	"io"
	"time"

	"commprof/internal/detect"
	"commprof/internal/exec"
	"commprof/internal/metrics"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// Record profiles the named bundled workload while also recording its full
// access trace (with the static region table) to w in the binary trace
// format selected by Options.TraceFormat (default v3, the compact
// delta/varint block encoding), for later offline analysis with Replay.
// This is the workflow the paper contrasts with on-the-fly analysis: trace
// files grow with execution length — the radix simlarge trace is tens of MB
// as fixed v1 records, several times smaller as v3, where the live
// profiler's signature stays fixed — which is precisely why DiscoPoP
// analyses online.
func Record(opts Options, w io.Writer) (*Report, error) {
	opts.setDefaults()
	size, err := splash.ParseSize(opts.InputSize)
	if err != nil {
		return nil, err
	}
	prog, err := splash.New(opts.Workload, splash.Config{
		Threads: opts.Threads, Size: size, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	tel := opts.Telemetry
	probes := tel.probes()
	backend, err := opts.newSignature(opts.Threads, probes)
	if err != nil {
		return nil, err
	}
	mon, err := newAccuracyMonitor(opts, opts.Threads, probes)
	if err != nil {
		return nil, err
	}
	// Recording always runs the deterministic engine (see below), so the
	// single-consumer redundancy cache and accuracy monitor are safe here
	// unconditionally.
	d, err := detect.New(detect.Options{
		Threads: opts.Threads, Backend: backend, Table: prog.Table(),
		GranularityBits:     opts.GranularityBits,
		RedundancyCacheBits: opts.RedundancyCacheBits,
		Accuracy:            mon,
		Probes:              probes.DetectProbes(),
	})
	if err != nil {
		return nil, err
	}
	stream := &trace.Stream{Table: prog.Table()}
	probe := func(a trace.Access) {
		stream.Accesses = append(stream.Accesses, a)
		d.Process(a)
	}
	// Recording requires the deterministic engine: a parallel run would
	// append to the stream concurrently and lose the temporal order.
	eng := exec.New(exec.Options{
		Threads: opts.Threads, Probe: probe,
		Probes: probes.EngineProbes(),
	})
	tel.wireRun(eng, d, backend, nil)
	stats, err := prog.Run(eng)
	if err != nil {
		return nil, err
	}
	if err := stream.EncodeVersion(w, opts.TraceFormat, opts.Threads); err != nil {
		return nil, fmt.Errorf("commprof: write trace: %w", err)
	}
	rep, tree, err := buildReport(opts.Workload, opts.Threads, d, stats, backend.FootprintBytes(), opts.MaxHotspots, tel)
	if err != nil {
		return nil, err
	}
	attachAccuracy(rep, d, opts, opts.Threads, backend, tel)
	tel.finishRun(rep, tree)
	return rep, nil
}

// replayBatchSize is the NextBatch buffer capacity the Replay loops reuse:
// large enough to amortise per-batch overhead across a v3 block's worth of
// records, small enough to stay resident in cache.
const replayBatchSize = 1024

// Replay runs the profiler offline over a trace previously written by
// Record. threads must match the recording's thread count (the matrix
// dimension); it is validated against the trace contents. For a v2/v3 trace
// — one recorded from a real goroutine program, whose header carries the
// final goroutine count the shim registered — threads may be 0, meaning
// "use the count the trace declares". All codec versions replay.
//
// Replay decodes the trace incrementally and in batches: the region table
// is read up front and each decoded batch then flows straight into the
// analyser (Decoder.NextBatch into a reused buffer), so resident memory is
// O(region table + one batch) for the serial detector and O(region table +
// shard queues + staging) with AnalysisShards — never O(accesses). A
// truncated or corrupt access section fails with "record i of n" context
// after the prefix before it has been analysed.
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
	tel := opts.Telemetry
	probes := tel.probes()
	dec.Probes = probes.TraceProbes()
	// Stage timing: decode time is observed inside the decoder, the analyser
	// side of each batch in the loops below. Nil probes keep both paths bare.
	dec.Stages = probes.StageProbes()
	stages := probes.StageProbes()
	var stats exec.Stats
	seen := 0
	// count validates and tallies one decoded batch before it reaches the
	// analyser.
	count := func(batch []trace.Access) error {
		for _, a := range batch {
			if a.Thread < 0 || int(a.Thread) >= threads {
				return fmt.Errorf("commprof: trace access %d has thread %d, outside [0,%d)", seen, a.Thread, threads)
			}
			seen++
			stats.Accesses++
			if a.Kind == trace.Write {
				stats.Writes++
			} else {
				stats.Reads++
			}
		}
		return nil
	}
	// A recorded stream is the sharded pipeline's natural input: replay is a
	// single producer, so per-shard batching applies at full strength.
	if opts.AnalysisShards > 0 {
		ps, err := newPhaseState(opts, dec.Table(), tel, probes)
		if err != nil {
			return nil, err
		}
		pe, err := newPipeline(opts, threads, dec.Table(), probes, ps)
		if err != nil {
			return nil, err
		}
		// Replay has no exec engine; the gauges and /progress bind to the
		// pipeline engine's merged per-shard state, which stays valid after
		// Close — a post-run scrape sees the final merged hit rates instead
		// of unbound zeros.
		tel.wireRunSharded(nil, pe)
		ps.wire(pe.AdvancePhases)
		producer := pe.NewProducer(false)
		batch := make([]trace.Access, 0, replayBatchSize)
		for {
			batch, err = dec.NextBatch(batch)
			if err == io.EOF {
				break
			}
			if err != nil {
				pe.Close()
				return nil, err
			}
			if err := count(batch); err != nil {
				pe.Close()
				return nil, err
			}
			var t0 time.Time
			if stages != nil {
				t0 = time.Now()
			}
			producer.ProcessBatch(batch)
			if stages != nil {
				stages.Producer.Observe(uint64(time.Since(t0)))
			}
		}
		var t0 time.Time
		if stages != nil {
			t0 = time.Now()
		}
		producer.Flush()
		if stages != nil {
			stages.Producer.Observe(uint64(time.Since(t0)))
		}
		pe.Close()
		rep, tree, err := buildReportSharded("replay", threads, pe, stats, opts.MaxHotspots, tel)
		if err != nil {
			return nil, err
		}
		attachAccuracySharded(rep, pe, opts, threads, tel)
		if err := attachPhasesSharded(rep, pe, ps); err != nil {
			return nil, err
		}
		tel.finishRun(rep, tree)
		return rep, nil
	}
	backend, err := opts.newSignature(threads, probes)
	if err != nil {
		return nil, err
	}
	mon, err := newAccuracyMonitor(opts, threads, probes)
	if err != nil {
		return nil, err
	}
	// The replay loop is the cache's and the monitor's single consumer.
	dopts := detect.Options{
		Threads: threads, Backend: backend, Table: dec.Table(),
		GranularityBits:     opts.GranularityBits,
		RedundancyCacheBits: opts.RedundancyCacheBits,
		Accuracy:            mon,
		Probes:              probes.DetectProbes(),
		Overhead:            probes.OverheadProbes(),
	}
	ps, err := newPhaseState(opts, dec.Table(), tel, probes)
	if err != nil {
		return nil, err
	}
	var seg *metrics.PhaseSegmenter
	if ps != nil {
		seg, err = metrics.NewPhaseSegmenter(threads, opts.PhaseWindow, phaseThreshold)
		if err != nil {
			return nil, err
		}
		dopts.OnEvent = seg.Observe
	}
	d, err := detect.New(dopts)
	if err != nil {
		return nil, err
	}
	tel.wireRun(nil, d, backend, nil)
	if seg != nil {
		onClose := ps.onClose()
		ps.wire(func() int { return seg.Advance(onClose) })
	}
	batch := make([]trace.Access, 0, replayBatchSize)
	for {
		batch, err = dec.NextBatch(batch)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := count(batch); err != nil {
			return nil, err
		}
		var t0 time.Time
		if stages != nil {
			t0 = time.Now()
		}
		d.ProcessBatch(batch)
		if stages != nil {
			stages.BatchService.Observe(uint64(time.Since(t0)))
		}
	}
	rep, tree, err := buildReport("replay", threads, d, stats, backend.FootprintBytes(), opts.MaxHotspots, tel)
	if err != nil {
		return nil, err
	}
	attachAccuracy(rep, d, opts, threads, backend, tel)
	if seg != nil {
		seg.Flush(ps.onClose())
		ps.attach(rep, seg.WindowSet())
	}
	tel.finishRun(rep, tree)
	return rep, nil
}
