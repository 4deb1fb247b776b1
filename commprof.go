// Package commprof is a loop-level communication-pattern profiler for
// shared-memory parallel programs — a from-scratch reproduction of
// "Characterizing Loop-Level Communication Patterns in Shared Memory
// Applications" (Mazaheri, Jannesari, Mirzaei, Wolf — ICPP 2015).
//
// The profiler detects read-after-write dependencies between threads on the
// fly using an asymmetric signature memory (a two-level bloom-filter read
// signature plus a one-level last-writer write signature), and aggregates
// them into communication matrices nested by static code region (functions
// and annotated loops). From the matrices it derives per-thread load metrics
// (Eq. 1), communication phases, and parallel-pattern classifications.
//
// Three entry points:
//
//   - Profile runs one of the bundled SPLASH-2-style benchmarks under the
//     profiler and returns a full Report.
//   - ProfileTrace analyses a recorded access trace you supply.
//   - Run executes your own workload body on the simulated thread engine
//     with the profiler attached.
package commprof

import (
	"fmt"
	"time"

	"commprof/internal/accuracy"
	"commprof/internal/comm"
	"commprof/internal/detect"
	"commprof/internal/exec"
	"commprof/internal/metrics"
	"commprof/internal/obs"
	"commprof/internal/sig"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// Options configures a profiling run.
type Options struct {
	// Workload names a bundled benchmark (see Workloads). Required for
	// Profile; ignored by ProfileTrace and Run.
	Workload string
	// Threads is the simulated thread count (default 32, the paper's
	// configuration).
	Threads int
	// InputSize is "simdev", "simsmall" or "simlarge" (default "simdev").
	InputSize string
	// Seed drives all workload randomness. The zero value is a sentinel
	// meaning "unset" and is rewritten to the default 42 by setDefaults, so
	// an explicit Seed: 0 cannot be distinguished from leaving the field
	// empty — both run with seed 42. Pick any other value to seed
	// explicitly.
	Seed int64
	// SignatureSlots is the signature size n (default 2^20). Larger means
	// fewer false dependencies and more memory (Eq. 2).
	SignatureSlots uint64
	// BloomFPRate is the per-slot bloom-filter false-positive rate. It
	// applies when the thread count exceeds 64: up to 64 threads each slot's
	// reader set is one exact 64-bit mask with no second-level false
	// positives, and Eq. 2 / SignatureMemoryBytes remains the paper's upper
	// bound on the footprint. The zero value is a sentinel meaning "unset"
	// and becomes the paper's 0.001; an explicit 0 is not a valid rate (sig
	// rejects rates outside (0,1)), so the sentinel loses no expressible
	// configuration.
	BloomFPRate float64
	// PhaseWindow, when non-zero, enables windowed phase observability with
	// the given logical-time window length: §V-A4 phase segmentation
	// (Report.Phases), a classified pattern timeline with whole-program
	// transitions and a per-hot-loop digest (Report.PhaseTimeline), and —
	// with Options.Telemetry — live current-pattern gauges plus phase fields
	// in /progress. Windows are bucketed by the global access index every
	// access already carries, so the layer composes with AnalysisShards:
	// shard partials merge by summation into exactly the window set the
	// serial analyser builds.
	PhaseWindow uint64
	// Parallel runs threads as free goroutines instead of the deterministic
	// round-robin scheduler. Results remain correct but are no longer
	// bit-reproducible across runs.
	Parallel bool
	// SampleBurst/SamplePeriod enable read sampling (the paper's §VII
	// overhead-reduction outlook): of every SamplePeriod reads per thread,
	// the first SampleBurst are analysed; writes are always analysed. Zero
	// values disable sampling. Detected volumes scale by roughly
	// SampleBurst/SamplePeriod.
	SampleBurst, SamplePeriod uint32
	// GranularityBits coarsens the analysis granularity: addresses are
	// shifted right by this amount before consulting the signature (0 =
	// per-address, 6 = 64-byte cache lines). Coarser analysis reduces
	// signature collisions but merges neighbouring variables (false
	// sharing appears).
	GranularityBits uint
	// DisableCoalesce turns off the static access-coalescing pass on
	// MiniPar runs (ProfileMiniPar; see internal/passes.Coalesce). The
	// pass is on by default: probes the compiler proves redundant within a
	// basic block or simple loop body are elided before the analyser ever
	// sees them, shrinking every downstream stage while leaving scheduling
	// and timestamps bit-identical. Elisions are exact under sync-only
	// scheduling (a quantum no thread exhausts); under the default
	// preemptive quantum they assume the usual data-race-free/no-false-
	// sharing discipline between synchronisation points — set this to true
	// to profile code that races within a scheduling quantum. Ignored by
	// the bundled SPLASH workloads, which issue accesses directly rather
	// than through compiled MiniPar IR.
	DisableCoalesce bool
	// MaxHotspots caps the number of ranked hotspot loops in the report.
	// 0 means the default of 10; a negative value lifts the cap entirely.
	MaxHotspots int
	// AnalysisShards, when positive, replaces the serial in-thread analyser
	// with the sharded parallel pipeline (internal/pipeline): each access is
	// routed by address hash to one of AnalysisShards shards, each owning a
	// private partition of the signature slot budget, a bounded queue and a
	// dedicated worker goroutine; shard matrices merge into the standard
	// report at the end of the run. 0 (the default) keeps the paper's serial
	// analysis. Composes with PhaseWindow: shard workers bucket events by
	// the global access index and the per-shard window partials merge to the
	// serial analyser's exact window set.
	AnalysisShards int
	// ShardQueueCapacity bounds each shard's queue in accesses when
	// AnalysisShards is active (0 = the pipeline default of 8192).
	ShardQueueCapacity int
	// ShardPolicy selects the sharded analyser's overload behaviour:
	// ShardPolicyBlock (default) applies backpressure, ShardPolicyDegrade
	// thins reads while a queue is saturated. Ignored when AnalysisShards
	// is 0.
	ShardPolicy ShardPolicy
	// ShardBatchSize sets the sharded analyser's producer staging batch and
	// worker drain limit in accesses (0 = the pipeline default of 256).
	// Larger batches amortise shard-queue locking further; smaller ones
	// reduce detection latency and staging residency. Ignored when
	// AnalysisShards is 0.
	ShardBatchSize int
	// RedundancyCacheBits, when non-zero, enables the redundancy-filtering
	// fast path: a 2^bits-entry direct-mapped cache of the last (thread,
	// kind) to touch each analysis granule, which skips the signature
	// backend for accesses Algorithm 1 provably classifies as
	// non-communicating — a thread re-reading or re-writing what it just
	// touched (see internal/redundancy). Detected dependencies and matrices
	// are unchanged on a collision-free backend and statistically unchanged
	// on the asymmetric signature; Report.Redundancy carries the hit-rate
	// telemetry. 10–14 bits (a cache that fits in L1/L2) is the sweet spot.
	// The serial analyser uses the cache only under the deterministic
	// scheduler — with Parallel the target threads call the detector
	// concurrently and the single-consumer cache would race, so it is
	// silently disabled; the sharded analyser (AnalysisShards > 0) gives
	// every shard worker a private cache and filters in any mode.
	RedundancyCacheBits uint
	// AccuracyTargetFPR, when positive (and < 1), enables the online
	// signature-accuracy monitor: a deterministically hash-selected
	// 1/2^AccuracySampleBits slice of the granule address space is analysed
	// a second time by an exact collision-free shadow, and every production
	// communicating-access verdict in the slice is confirmed or refuted
	// against it. The run gains Report.Accuracy — a live estimate of the
	// signature false-positive rate (the paper's §V-A3 number) with a 95%
	// confidence interval, an Eq. 2 recommended-signature-size advisor, and
	// a warn-once saturation alarm — at the cost of shadowing the sampled
	// slice exactly. Zero (the default) disables the monitor. The value is
	// the FPR the run is expected to stay under; DefaultAccuracyTargetFPR
	// is a reasonable starting point. Like RedundancyCacheBits, the serial
	// analyser monitors only under the deterministic scheduler — with
	// Parallel the single-consumer shadow pairing would race — while the
	// sharded analyser (AnalysisShards > 0) monitors per shard in any mode.
	AccuracyTargetFPR float64
	// AccuracySampleBits is k in the 1/2^k accuracy sample: 0 shadows every
	// granule (exact — Report.Accuracy.EstimatedFPR equals the offline
	// exact-diff FPR, at unbounded shadow memory), each added bit halves
	// the monitored slice and the monitor's cost. Ignored unless
	// AccuracyTargetFPR is set. At most accuracy.MaxSampleBits (16).
	AccuracySampleBits uint
	// TraceFormat selects the trace codec version Record writes: 1 (fixed
	// 29-byte records, no thread count in the header), 2 (v1 records plus
	// thread count and region file:line) or 3 (the default — compact
	// delta/varint block encoding, typically 3-10x smaller; see
	// internal/trace and DESIGN §9). 0 means the default. Replay
	// auto-detects the version from the stream header, so the knob only
	// affects writing.
	TraceFormat int
	// Telemetry, when non-nil, threads self-observability probes through
	// the signature, detector and executor layers, records run-phase spans,
	// and attaches an end-of-run snapshot as Report.Telemetry. See
	// NewTelemetry. Nil (the default) keeps the pipeline uninstrumented.
	Telemetry *Telemetry
}

func (o *Options) setDefaults() {
	if o.Threads == 0 {
		o.Threads = 32
	}
	if o.InputSize == "" {
		o.InputSize = "simdev"
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.SignatureSlots == 0 {
		o.SignatureSlots = 1 << 20
	}
	if o.BloomFPRate == 0 {
		o.BloomFPRate = 0.001
	}
	if o.MaxHotspots == 0 {
		o.MaxHotspots = 10
	}
	if o.TraceFormat == 0 {
		o.TraceFormat = trace.DefaultVersion
	}
}

// DefaultAccuracyTargetFPR is a reasonable Options.AccuracyTargetFPR when
// the caller has no specific budget: 5%, between the paper's 8.4% and 2.1%
// operating points.
const DefaultAccuracyTargetFPR = accuracy.DefaultTargetFPR

// accuracyOptions maps the public accuracy knobs onto internal/accuracy
// options; nil when the monitor is disabled (AccuracyTargetFPR == 0).
func (o Options) accuracyOptions(threads int, probes *obs.Probes) *accuracy.Options {
	if o.AccuracyTargetFPR <= 0 {
		return nil
	}
	return &accuracy.Options{
		Threads:    threads,
		SampleBits: o.AccuracySampleBits,
		TargetFPR:  o.AccuracyTargetFPR,
		Probes:     probes.AccuracyProbes(),
	}
}

// newAccuracyMonitor builds the serial analyser's monitor, or nil when the
// monitor is disabled.
func newAccuracyMonitor(o Options, threads int, probes *obs.Probes) (*accuracy.Monitor, error) {
	ao := o.accuracyOptions(threads, probes)
	if ao == nil {
		return nil, nil
	}
	return accuracy.New(*ao)
}

// attachAccuracy renders a serial detector's monitor into Report.Accuracy:
// it runs the final alarm evaluation against the production signature's
// closing fill ratio, derives the estimate and the Eq. 2 recommendation, and
// (when the run had telemetry) attaches the recorded fill trajectory. A
// no-op when the run was unmonitored.
func attachAccuracy(rep *Report, d *detect.Detector, opts Options, threads int, backend *sig.Asymmetric, tel *Telemetry) {
	mon := d.Accuracy()
	if mon == nil {
		return
	}
	fill := backend.FillRatio(256)
	mon.Evaluate(fill)
	est := mon.Estimate()
	rec := accuracy.Recommend(est, opts.SignatureSlots, threads, opts.BloomFPRate)
	alarm, _ := mon.Alarm()
	rep.Accuracy = accuracyReport(est, rec, mon.ShadowFootprintBytes(), fill, tel.fillTrajectory(), alarm)
}

// Workloads returns the names of the bundled SPLASH-2-style benchmarks.
func Workloads() []string { return splash.Names() }

// SignatureMemoryBytes is Eq. 2: the fixed analysis-memory bound for a
// signature with n slots, t threads and the given bloom false-positive rate.
func SignatureMemoryBytes(slots uint64, threads int, fpRate float64) uint64 {
	return sig.SigMem(slots, threads, fpRate)
}

// newSignature builds the serial entry points' signature memory from the
// facade options; the sharded ones split the same budget with
// pipeline.AsymmetricFactory. Either way sig picks the reader-set layout from
// the thread count.
func (o Options) newSignature(threads int, probes *obs.Probes) (*sig.Asymmetric, error) {
	return sig.NewAsymmetric(sig.Options{
		Slots: o.SignatureSlots, Threads: threads, FPRate: o.BloomFPRate,
		Probes: probes.SigProbes(),
	})
}

// Profile runs the named bundled workload under the profiler.
func Profile(opts Options) (*Report, error) {
	opts.setDefaults()
	tel := opts.Telemetry
	setup := tel.span("workload-setup")
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
	probes := tel.probes()
	if opts.AnalysisShards > 0 {
		return profileSharded(opts, prog, tel, probes, setup)
	}
	backend, err := opts.newSignature(opts.Threads, probes)
	if err != nil {
		return nil, err
	}
	var seg *metrics.PhaseSegmenter
	dopts := detect.Options{
		Threads: opts.Threads, Backend: backend, Table: prog.Table(),
		GranularityBits: opts.GranularityBits,
		Probes:          probes.DetectProbes(),
	}
	if !opts.Parallel {
		// Parallel mode would drive the single-consumer cache from many
		// goroutines at once; see the Options.RedundancyCacheBits contract.
		// The accuracy monitor has the same single-consumer contract: the
		// production and shadow verdicts of a granule must interleave in one
		// temporal order to stay paired.
		dopts.RedundancyCacheBits = opts.RedundancyCacheBits
		dopts.Accuracy, err = newAccuracyMonitor(opts, opts.Threads, probes)
		if err != nil {
			return nil, err
		}
	}
	ps, err := newPhaseState(opts, prog.Table(), tel, probes)
	if err != nil {
		return nil, err
	}
	if ps != nil {
		// The windowed layer tolerates out-of-order events behind one mutex,
		// so the segmenter runs under the parallel scheduler too (windows may
		// then close before all their events land; the final report
		// recomputes from the complete set).
		seg, err = metrics.NewPhaseSegmenter(opts.Threads, opts.PhaseWindow, phaseThreshold)
		if err != nil {
			return nil, err
		}
		dopts.OnEvent = seg.Observe
	}
	d, err := detect.New(dopts)
	if err != nil {
		return nil, err
	}
	probe := d.Probe()
	sampleFraction := 1.0
	var smp *detect.Sampler
	if opts.SamplePeriod > 0 {
		smp, err = detect.NewSampler(d, opts.SampleBurst, opts.SamplePeriod)
		if err != nil {
			return nil, err
		}
		probe = smp.Probe()
		sampleFraction = smp.SampleFraction()
	}
	eng := exec.New(exec.Options{
		Threads: opts.Threads, Probe: probe, Parallel: opts.Parallel,
		Probes: probes.EngineProbes(),
	})
	tel.wireRun(eng, d, backend, smp)
	if seg != nil {
		onClose := ps.onClose()
		ps.wire(func() int { return seg.Advance(onClose) })
	}
	setup.End()
	run := tel.span("engine-run")
	stats, err := prog.Run(eng)
	run.End()
	if err != nil {
		return nil, err
	}
	rep, tree, err := buildReport(opts.Workload, opts.Threads, d, stats, backend.FootprintBytes(), opts.MaxHotspots, tel)
	if err != nil {
		return nil, err
	}
	attachAccuracy(rep, d, opts, opts.Threads, backend, tel)
	rep.SampleFraction = sampleFraction
	if seg != nil {
		seg.Flush(ps.onClose())
		ps.attach(rep, seg.WindowSet())
	}
	tel.finishRun(rep, tree)
	return rep, nil
}

func buildReport(name string, threads int, d *detect.Detector, stats exec.Stats, sigBytes uint64, maxHotspots int, tel *Telemetry) (*Report, *comm.Tree, error) {
	build := tel.span("tree-build")
	stages := tel.probes().StageProbes()
	var t0 time.Time
	if stages != nil {
		t0 = time.Now()
	}
	tree, err := d.Tree()
	if err != nil {
		return nil, nil, err
	}
	if err := tree.CheckSummationLaw(); err != nil {
		return nil, nil, fmt.Errorf("commprof: internal invariant violated: %w", err)
	}
	if stages != nil {
		stages.Merge.Observe(uint64(time.Since(t0)))
	}
	build.End()
	dstats := d.Stats()
	rep, tree, err := reportFromTree(name, threads, tree, dstats.Detected, dstats.CommBytes, stats, sigBytes, maxHotspots, tel)
	if err != nil {
		return nil, nil, err
	}
	if st, ok := d.RedundancyStats(); ok {
		rep.Redundancy = redundancyReport(st)
	}
	return rep, tree, nil
}

// reportFromTree renders a finished communication tree into the public report
// form. Both analysers end here: the serial detector via buildReport, the
// sharded pipeline via buildReportSharded.
func reportFromTree(name string, threads int, tree *comm.Tree, detected, commBytes uint64, stats exec.Stats, sigBytes uint64, maxHotspots int, tel *Telemetry) (*Report, *comm.Tree, error) {
	report := tel.span("report")
	defer report.End()
	rep := &Report{
		Workload:       name,
		Threads:        threads,
		Accesses:       stats.Accesses,
		Dependencies:   detected,
		CommBytes:      commBytes,
		SignatureBytes: sigBytes,
		SampleFraction: 1,
		Global:         fromInternal(tree.Global),
	}
	tree.Walk(func(n *comm.Node, depth int) {
		rep.Regions = append(rep.Regions, RegionReport{
			Name:            n.Region.Label(),
			File:            n.Region.File,
			Line:            n.Region.Line,
			Kind:            n.Region.Kind.String(),
			Depth:           depth,
			Accesses:        n.Accesses,
			OwnBytes:        n.Own.Total(),
			CumulativeBytes: n.Cumulative.Total(),
			Matrix:          fromInternal(n.Cumulative),
		})
	})
	if maxHotspots < 0 {
		maxHotspots = tree.NodeCount() // negative lifts the cap: rank every loop
	}
	for _, h := range tree.Hotspots(maxHotspots) {
		load := metrics.ThreadLoad(h.Node.Cumulative)
		rep.Hotspots = append(rep.Hotspots, HotspotReport{
			Region:        h.Node.Region.Label(),
			Bytes:         h.Bytes,
			Share:         h.Share,
			Load:          load,
			ActiveThreads: metrics.ActiveThreads(load),
			BalanceIndex:  metrics.BalanceIndex(load),
		})
	}
	return rep, tree, nil
}
