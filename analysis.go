package commprof

import (
	"fmt"
	"sync/atomic"
	"time"

	"commprof/internal/accuracy"
	"commprof/internal/comm"
	"commprof/internal/detect"
	"commprof/internal/exec"
	"commprof/internal/metrics"
	"commprof/internal/obs"
	"commprof/internal/pipeline"
	"commprof/internal/trace"
)

// analysis is one run's analyser, and the only way an entry point reaches
// one: every entry point is a source of accesses (a simulated-thread engine,
// an access slice, a trace decoder) feeding this value. The engine runs
// Algorithm 1 on one goroutine (AnalysisShards 0, the paper's mode) — the
// caller's for an access slice or a trace, for a simulated-thread engine one
// analyser goroutine behind the threads — or on K shard workers; the gate
// thins reads in front of it; ps is the windowed phase layer's facade
// wiring. Every Options field that shapes the analysis is read here and
// nowhere else, so no entry point can drop one.
type analysis struct {
	opts    Options
	threads int
	tel     *Telemetry
	pe      *pipeline.Engine
	ps      *phaseState // nil without PhaseWindow

	gate    *detect.Gate  // nil without read sampling
	skipped atomic.Uint64 // reads the gate turned away

	// producers are the staging handles probe and producer handed out;
	// finish flushes them before closing the engine.
	producers []*pipeline.Producer

	// quantum is the buffer an engine source's probe, its one writer, fills
	// in issue order; full, it is sent on full and the probe takes the next
	// from free (three circulate). From probe until endQuanta one analyser
	// goroutine owns the tap, the gate, the producer and its detectors.
	quantum    []trace.Access
	full, free chan []trace.Access
	analysed   chan struct{}
}

// quantumLen is each quantum buffer's capacity in accesses (32 KB); live
// telemetry trails the program by at most three quanta.
const quantumLen = 1024

// newAnalysis builds the analyser for a run over threads threads and the
// given region table. Close its engine (idempotent; finish does) on every
// path, or a sharded run's workers outlive a failed source.
func newAnalysis(opts Options, threads int, table *trace.Table) (*analysis, error) {
	if opts.AnalysisShards < 0 {
		return nil, fmt.Errorf("commprof: AnalysisShards must be non-negative, got %d", opts.AnalysisShards)
	}
	if opts.GranularityBits >= 64 {
		// A shift by the whole address width folds every access onto granule 0.
		return nil, fmt.Errorf("commprof: GranularityBits (-granularity) must be below 64, got %d", opts.GranularityBits)
	}
	tel := opts.Telemetry
	probes := tel.Probes()
	an := &analysis{opts: opts, threads: threads, tel: tel}
	var err error
	if an.ps, err = newPhaseState(opts, table, tel, probes); err != nil {
		return nil, err
	}
	if opts.SamplePeriod > 0 {
		if an.gate, err = detect.NewGate(threads, opts.SamplePeriod); err != nil {
			return nil, err
		}
	}
	an.pe, err = pipeline.New(pipeline.Options{
		Shards:              opts.AnalysisShards,
		Threads:             threads,
		Table:               table,
		GranularityBits:     opts.GranularityBits,
		QueueCapacity:       opts.ShardQueueCapacity,
		RedundancyCacheBits: opts.RedundancyCacheBits,
		Accuracy:            opts.accuracyOptions(threads, probes),
		NewBackend:          pipeline.AsymmetricFactory(opts.SignatureSlots, opts.AnalysisShards, threads, 0, probes.Sig),
		Probes:              probes,
		PhaseWindow:         opts.PhaseWindow,
		OnWindowClose:       an.ps.onClose(),
		Timeline:            tel.Timeline(),
	})
	if err != nil {
		return nil, err
	}
	return an, nil
}

// sampledOut applies read sampling to one access: true for a read the
// burst/period gate turns away (and counts). Writes always pass — skipping
// one would corrupt last-writer attribution rather than merely lose volume.
func (an *analysis) sampledOut(kind trace.Kind, thread int32) bool {
	if an.gate == nil || an.gate.Admit(kind, thread) {
		return false
	}
	an.skipped.Add(1)
	return true
}

// producer returns a staging handle for one producing goroutine that finish
// will flush. In-thread it stages nothing and runs the detector directly.
func (an *analysis) producer(flushOnThreadSwitch bool) *pipeline.Producer {
	p := an.pe.NewProducer(flushOnThreadSwitch)
	an.producers = append(an.producers, p)
	return p
}

// probe returns the per-access hook a simulated-thread engine drives; the
// scheduler's turn makes it a single caller. Every access collects in the
// quantum buffer; the analyser goroutine this starts takes each full one
// behind the program, writes it to tap when non-nil (in front of the
// sampling gate), thins it through the gate and hands it to the producer.
// Call endQuanta on every path once the engine has run.
func (an *analysis) probe(tap *trace.Encoder) exec.Probe {
	// Sharded, the one producer flushes its staging on thread switches
	// (= quantum boundaries), which preserves the exact global arrival order.
	p := an.producer(an.pe.Shards() > 0)
	an.full, an.free, an.analysed = make(chan []trace.Access, 2), make(chan []trace.Access, 3), make(chan struct{})
	for range 2 {
		an.free <- make([]trace.Access, 0, quantumLen)
	}
	an.quantum = make([]trace.Access, 0, quantumLen)
	go func() {
		defer close(an.analysed)
		for q := range an.full {
			if tap != nil {
				_ = tap.WriteBatch(q) // a failed write is sticky: Record sees it at Close
			}
			an.feedBatch(p, q)
			an.free <- q[:0]
		}
	}()
	return func(a trace.Access) {
		n := len(an.quantum)
		an.quantum = an.quantum[:n+1] // handed on at capacity
		q := &an.quantum[n]
		q.Time, q.Addr, q.Size, q.Thread, q.Region, q.Kind = a.Time, a.Addr, a.Size, a.Thread, a.Region, a.Kind
		if n+1 == quantumLen {
			an.full <- an.quantum
			an.quantum = <-an.free
		}
	}
}

// endQuanta hands the last partial quantum to the analyser goroutine, ends
// it and waits until it has exited, so the caller owns the analyser again.
// A no-op without probe, or once done.
func (an *analysis) endQuanta() {
	if an.full == nil {
		return
	}
	if len(an.quantum) > 0 {
		an.full <- an.quantum
	}
	close(an.full)
	<-an.analysed
	an.full = nil
}

// feedBatch hands one batch (a decoded one, or a quantum) to the analyser
// through p, thinning sampled-out reads in place first (the batch buffer is
// the caller's to reuse; only its length shrinks).
func (an *analysis) feedBatch(p *pipeline.Producer, batch []trace.Access) {
	if an.gate != nil {
		n := 0
		for i := range batch {
			if a := &batch[i]; !an.sampledOut(a.Kind, a.Thread) {
				k := &batch[n]
				k.Time, k.Addr, k.Size, k.Thread, k.Region, k.Kind = a.Time, a.Addr, a.Size, a.Thread, a.Region, a.Kind
				n++
			}
		}
		batch = batch[:n]
	}
	p.ProcessBatch(batch)
}

// wire binds the run's live surfaces — gauges, /progress, the periodic
// sampler, the phase fields — to the analyser and, when the source has one,
// its simulated-thread engine. Call before the source starts. No-op without
// telemetry.
func (an *analysis) wire(eng *exec.Engine) {
	an.tel.wireRun(eng, an)
	an.ps.wire()
}

// finish drains the analyser and renders the report — the one report
// builder: region tree and hotspots, then one section per layer the run had
// on (Pipeline, Redundancy, Accuracy, Phases/PhaseTimeline, SampleFraction,
// Telemetry/Overhead). accesses is the source's own access count.
func (an *analysis) finish(name string, accesses uint64) (*Report, error) {
	tel, pe, opts := an.tel, an.pe, an.opts
	var drain *obs.SpanHandle
	if pe.Shards() > 0 {
		drain = tel.Span("pipeline-drain")
	}
	an.endQuanta()
	for _, p := range an.producers {
		p.Flush()
	}
	pe.Close()
	drain.End()

	build := tel.Span("tree-build")
	stages := tel.Probes().Stage
	var t0 time.Time
	if stages != nil {
		t0 = time.Now()
	}
	tree, err := pe.Tree()
	if err != nil {
		return nil, err
	}
	if err := tree.CheckSummationLaw(); err != nil {
		return nil, fmt.Errorf("commprof: internal invariant violated: %w", err)
	}
	if stages != nil {
		stages.Merge.Observe(uint64(time.Since(t0)))
	}
	build.End()

	report := tel.Span("report")
	st := pe.Stats()
	rep := &Report{
		Workload:       name,
		Threads:        an.threads,
		Accesses:       accesses,
		Dependencies:   st.Detected,
		CommBytes:      st.CommBytes,
		SignatureBytes: pe.SigFootprintBytes(),
		SampleFraction: 1,
	}
	rep.fillTree(tree, opts.MaxHotspots)
	report.End()
	if pe.Shards() > 0 {
		rep.Pipeline = pipelineReport(pe)
	}
	if rst, ok := pe.RedundancyStats(); ok {
		rep.Redundancy = redundancyReport(rst)
	}
	if est, ok := pe.AccuracyEstimate(); ok {
		// The final alarm evaluation, so the alarm works without telemetry too.
		pe.EvaluateAccuracy()
		rec := accuracy.Recommend(est, opts.SignatureSlots, rep.SignatureBytes)
		alarm, _ := pe.AccuracyAlarm()
		rep.Accuracy = accuracyReport(est, rec, pe.AccuracyShadowBytes(), alarm)
	}
	if an.ps != nil {
		ws, err := pe.PhaseWindows()
		if err != nil {
			return nil, err
		}
		an.ps.attach(rep, ws)
	}
	if an.gate != nil {
		rep.SampleFraction = an.gate.Fraction()
	}
	tel.finishRun(rep, tree)
	return rep, nil
}

// engineSource is a program that runs on the simulated thread engine: a
// bundled SPLASH workload, a custom Run body, a compiled MiniPar module.
type engineSource struct {
	name    string
	threads int
	table   *trace.Table
	run     func(*exec.Engine) (exec.Stats, error)
	// setup, when non-nil, is the span the caller opened before building the
	// source; it ends once the analyser is wired and the run can start.
	setup *obs.SpanHandle
	// tap, when non-nil, is written every access the program issues, in issue
	// order (Record's encoder).
	tap *trace.Encoder
}

// profileEngine runs an engine source with the analyser attached: build the
// analyser, hand its probe to the engine, run, finish.
func profileEngine(opts Options, src engineSource) (*Report, error) {
	an, err := newAnalysis(opts, src.threads, src.table)
	if err != nil {
		return nil, err
	}
	defer an.pe.Close()
	eng := exec.New(exec.Options{
		Threads: src.threads, Probe: an.probe(src.tap), Probes: an.tel.Probes().Engine,
	})
	defer an.endQuanta() // on the engine-error path, before the engine closes
	an.wire(eng)
	src.setup.End()
	run := an.tel.Span("engine-run")
	stats, err := src.run(eng)
	run.End()
	if err != nil {
		return nil, err
	}
	return an.finish(src.name, stats.Accesses)
}

// fillTree renders a finished communication tree into the report's Global,
// Regions and Hotspots.
func (rep *Report) fillTree(tree *comm.Tree, maxHotspots int) {
	rep.Global = fromInternal(tree.Global)
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
}
