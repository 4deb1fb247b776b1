package commprof

import (
	"fmt"
	"runtime"
	"time"

	"commprof/internal/accuracy"
	"commprof/internal/comm"
	"commprof/internal/detect"
	"commprof/internal/exec"
	"commprof/internal/obs"
	"commprof/internal/pipeline"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// ShardPolicy names the sharded analyser's overload behaviour (what happens
// to producers while a shard queue is full).
type ShardPolicy string

const (
	// ShardPolicyBlock (the default) applies backpressure: producers block
	// until the shard worker catches up. Analysis stays exhaustive; producer
	// speed follows the slowest shard.
	ShardPolicyBlock ShardPolicy = "block"
	// ShardPolicyDegrade degrades to read sampling under overload: while a
	// shard queue is saturated, only a burst fraction of reads is enqueued
	// and the rest are dropped and counted (Report.Pipeline.DroppedReads).
	// Writes are never dropped — losing a write would corrupt last-writer
	// attribution rather than merely losing volume.
	ShardPolicyDegrade ShardPolicy = "degrade"
	// ShardPolicyAuto adapts between the two: exhaustive (blocking) analysis
	// until producer stall episodes show sustained overload, then degrade
	// until every shard queue drains, then exhaustive again. Mode switches
	// are counted in Report.Pipeline.PolicyTransitions; a run that never
	// overloads behaves exactly like ShardPolicyBlock.
	ShardPolicyAuto ShardPolicy = "auto"
)

func (p ShardPolicy) toInternal() (pipeline.OverloadPolicy, error) {
	switch p {
	case "", ShardPolicyBlock:
		return pipeline.PolicyBlock, nil
	case ShardPolicyDegrade:
		return pipeline.PolicyDegrade, nil
	case ShardPolicyAuto:
		return pipeline.PolicyAuto, nil
	}
	return 0, fmt.Errorf("commprof: unknown shard policy %q (want %q, %q or %q)", p, ShardPolicyBlock, ShardPolicyDegrade, ShardPolicyAuto)
}

// newPipeline maps the public Options onto a sharded analysis engine whose
// shards partition the configured signature slot budget. ps (nil when
// PhaseWindow is unset) supplies the windowed phase layer's close callback
// and probes.
func newPipeline(opts Options, threads int, table *trace.Table, probes *obs.Probes, ps *phaseState) (*pipeline.Engine, error) {
	shards := opts.AnalysisShards
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards < 0 {
		return nil, fmt.Errorf("commprof: AnalysisShards must be non-negative, got %d", opts.AnalysisShards)
	}
	policy, err := opts.ShardPolicy.toInternal()
	if err != nil {
		return nil, err
	}
	return pipeline.New(pipeline.Options{
		Shards:              shards,
		Threads:             threads,
		Table:               table,
		GranularityBits:     opts.GranularityBits,
		QueueCapacity:       opts.ShardQueueCapacity,
		BatchSize:           opts.ShardBatchSize,
		Policy:              policy,
		RedundancyCacheBits: opts.RedundancyCacheBits,
		Accuracy:            opts.accuracyOptions(threads, probes),
		NewBackend:          pipeline.AsymmetricFactory(opts.SignatureSlots, shards, threads, opts.BloomFPRate, probes.SigProbes()),
		Probes:              probes.PipelineProbes(),
		DetectProbes:        probes.DetectProbes(),
		PhaseWindow:         opts.PhaseWindow,
		OnWindowClose:       ps.onClose(),
		PhaseProbes:         probes.PhaseProbes(),
		Stages:              probes.StageProbes(),
		Overhead:            probes.OverheadProbes(),
		Timeline:            opts.Telemetry.Timeline(),
	})
}

// attachAccuracySharded renders a closed pipeline engine's merged per-shard
// accuracy monitors into Report.Accuracy; the sharded counterpart of
// attachAccuracy. A no-op when the run was unmonitored.
func attachAccuracySharded(rep *Report, pe *pipeline.Engine, opts Options, threads int, tel *Telemetry) {
	est, ok := pe.AccuracyEstimate()
	if !ok {
		return
	}
	fill := pe.FillRatio(256)
	pe.EvaluateAccuracy(fill)
	rec := accuracy.Recommend(est, opts.SignatureSlots, threads, opts.BloomFPRate)
	alarm, _ := pe.AccuracyAlarm()
	rep.Accuracy = accuracyReport(est, rec, pe.AccuracyShadowBytes(), fill, tel.fillTrajectory(), alarm)
}

// sampledProbe composes read sampling in front of the pipeline: the same
// burst-of-period per-thread gate as detect.Sampler, applied before enqueue
// so skipped reads never cost a queue slot.
func sampledProbe(inner exec.Probe, threads int, burst, period uint32) (exec.Probe, float64, error) {
	gate, err := detect.NewGate(threads, burst, period)
	if err != nil {
		return nil, 0, err
	}
	probe := func(a trace.Access) {
		if a.Kind == trace.Read && !gate.Admit(a.Thread) {
			return
		}
		inner(a)
	}
	return probe, gate.Fraction(), nil
}

// profileSharded is Profile's pipeline-backed analysis path
// (Options.AnalysisShards > 0).
func profileSharded(opts Options, prog splash.Program, tel *Telemetry, probes *obs.Probes, setup *obs.SpanHandle) (*Report, error) {
	ps, err := newPhaseState(opts, prog.Table(), tel, probes)
	if err != nil {
		return nil, err
	}
	pe, err := newPipeline(opts, opts.Threads, prog.Table(), probes, ps)
	if err != nil {
		return nil, err
	}
	// Producer-side staging amortises shard-queue locking the way
	// Engine.ProcessStream always did for replay. In parallel engine mode each
	// thread produces only its own accesses, so a per-thread producer is
	// contention-free; staging merely widens the enqueue-order race the mode
	// already accepts. The deterministic scheduler funnels every thread's
	// accesses through one serialized probe, so a single producer flushed on
	// thread switches (= quantum boundaries) preserves the exact global
	// arrival order.
	var probe exec.Probe
	var flushProducers func()
	if opts.Parallel {
		producers := make([]*pipeline.Producer, opts.Threads)
		for i := range producers {
			producers[i] = pe.NewProducer(false)
		}
		probe = func(a trace.Access) { producers[a.Thread].Process(a) }
		flushProducers = func() {
			for _, p := range producers {
				p.Flush()
			}
		}
	} else {
		p := pe.NewProducer(true)
		probe = p.Process
		flushProducers = p.Flush
	}
	sampleFraction := 1.0
	if opts.SamplePeriod > 0 {
		probe, sampleFraction, err = sampledProbe(probe, opts.Threads, opts.SampleBurst, opts.SamplePeriod)
		if err != nil {
			return nil, err
		}
	}
	eng := exec.New(exec.Options{
		Threads: opts.Threads, Probe: probe, Parallel: opts.Parallel,
		Probes: probes.EngineProbes(),
	})
	tel.wireRunSharded(eng, pe)
	ps.wire(pe.AdvancePhases)
	setup.End()
	run := tel.span("engine-run")
	stats, err := prog.Run(eng)
	run.End()
	if err != nil {
		pe.Close()
		return nil, err
	}
	drain := tel.span("pipeline-drain")
	flushProducers()
	pe.Close()
	drain.End()
	rep, tree, err := buildReportSharded(opts.Workload, opts.Threads, pe, stats, opts.MaxHotspots, tel)
	if err != nil {
		return nil, err
	}
	attachAccuracySharded(rep, pe, opts, opts.Threads, tel)
	if err := attachPhasesSharded(rep, pe, ps); err != nil {
		return nil, err
	}
	rep.SampleFraction = sampleFraction
	tel.finishRun(rep, tree)
	return rep, nil
}

// attachPhasesSharded renders a closed pipeline engine's merged window set
// into the report's phase sections. A no-op without PhaseWindow.
func attachPhasesSharded(rep *Report, pe *pipeline.Engine, ps *phaseState) error {
	if ps == nil {
		return nil
	}
	ws, err := pe.PhaseWindows()
	if err != nil {
		return err
	}
	ps.attach(rep, ws)
	return nil
}

// buildReportSharded drains a closed pipeline engine into the public report
// form, attaching the Pipeline section.
func buildReportSharded(name string, threads int, pe *pipeline.Engine, stats exec.Stats, maxHotspots int, tel *Telemetry) (*Report, *comm.Tree, error) {
	build := tel.span("tree-build")
	stages := tel.probes().StageProbes()
	var t0 time.Time
	if stages != nil {
		t0 = time.Now()
	}
	tree, err := pe.Tree()
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
	st := pe.Stats()
	rep, tree, err := reportFromTree(name, threads, tree, st.Detected, st.CommBytes, stats, pe.SigFootprintBytes(), maxHotspots, tel)
	if err != nil {
		return nil, nil, err
	}
	rep.Pipeline = pipelineReport(pe)
	if rst, ok := pe.RedundancyStats(); ok {
		rep.Redundancy = redundancyReport(rst)
	}
	return rep, tree, nil
}

// pipelineReport snapshots a closed engine's shard configuration and load.
func pipelineReport(pe *pipeline.Engine) *PipelineReport {
	sstats := pe.ShardStats()
	rep := &PipelineReport{
		Shards:               pe.Shards(),
		QueueCapacity:        pe.QueueCapacity(),
		BatchSize:            pe.BatchSize(),
		Policy:               pe.Policy().String(),
		PolicyTransitions:    pe.PolicyTransitions(),
		DroppedReads:         pe.Stats().DroppedReads,
		ProducerFlushes:      pe.ProducerFlushes(),
		PeakResidentAccesses: pe.PeakResidentAccesses(),
		PeakDepths:           make([]int, len(sstats)),
		ShardProcessed:       make([]uint64, len(sstats)),
	}
	for i, s := range sstats {
		rep.PeakDepths[i] = s.PeakDepth
		rep.ShardProcessed[i] = s.Processed
	}
	return rep
}

// ProfileTraceParallel analyses a recorded access trace with the sharded
// parallel pipeline instead of ProfileTrace's serial detector: addresses are
// hashed across Options.AnalysisShards analysis shards (0 = GOMAXPROCS), each
// with a private partition of the signature budget and its own worker. On a
// collision-free run the result is identical to ProfileTrace; with the
// approximate asymmetric signature the expected false-positive rate matches
// but the specific collisions differ (see the internal/pipeline package
// documentation).
func ProfileTraceParallel(accesses []Access, regions []Region, threads int, opts Options) (*Report, error) {
	opts.setDefaults()
	if threads <= 0 {
		return nil, fmt.Errorf("commprof: threads must be positive, got %d", threads)
	}
	table, err := buildTable(regions)
	if err != nil {
		return nil, err
	}
	tel := opts.Telemetry
	probes := tel.probes()
	ps, err := newPhaseState(opts, table, tel, probes)
	if err != nil {
		return nil, err
	}
	pe, err := newPipeline(opts, threads, table, probes, ps)
	if err != nil {
		return nil, err
	}
	tel.wireRunSharded(nil, pe)
	ps.wire(pe.AdvancePhases)
	var gate *detect.Gate
	sampleFraction := 1.0
	if opts.SamplePeriod > 0 {
		gate, err = detect.NewGate(threads, opts.SampleBurst, opts.SamplePeriod)
		if err != nil {
			return nil, err
		}
		sampleFraction = gate.Fraction()
	}
	// Feed a staging producer directly instead of materialising a converted
	// copy of the stream: the caller's slice is the only O(accesses) state.
	var stats exec.Stats
	producer := pe.NewProducer(false)
	for i, a := range accesses {
		if a.Thread < 0 || int(a.Thread) >= threads {
			pe.Close()
			return nil, fmt.Errorf("commprof: access %d has thread %d out of range", i, a.Thread)
		}
		if a.Region != trace.NoRegion && (a.Region < 0 || int(a.Region) >= table.Len()) {
			pe.Close()
			return nil, fmt.Errorf("commprof: access %d references unknown region %d", i, a.Region)
		}
		k := trace.Read
		if a.Kind == WriteAccess {
			k = trace.Write
			stats.Writes++
		} else {
			stats.Reads++
		}
		stats.Accesses++
		if gate != nil && k == trace.Read && !gate.Admit(a.Thread) {
			continue
		}
		producer.Process(trace.Access{
			Time: a.Time, Addr: a.Addr, Size: a.Size,
			Thread: a.Thread, Region: a.Region, Kind: k,
		})
	}
	producer.Flush()
	pe.Close()
	rep, tree, err := buildReportSharded("trace", threads, pe, stats, opts.MaxHotspots, tel)
	if err != nil {
		return nil, err
	}
	attachAccuracySharded(rep, pe, opts, threads, tel)
	if err := attachPhasesSharded(rep, pe, ps); err != nil {
		return nil, err
	}
	rep.SampleFraction = sampleFraction
	tel.finishRun(rep, tree)
	return rep, nil
}
