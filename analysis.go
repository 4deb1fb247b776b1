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
// an access slice, a trace decoder) that fills the analysis's quantum ring
// on its own goroutine. One analyser goroutine behind the source runs
// Algorithm 1 (AnalysisShards 0, the paper's mode) or hands each quantum to K
// shard workers; the gate thins reads in front of it; ps is the windowed
// phase layer's facade wiring. Every Options field that shapes the analysis
// is read here and nowhere else, so no entry point can drop one.
type analysis struct {
	opts    Options
	threads int
	tel     *Telemetry
	pe      *pipeline.Engine
	ps      *phaseState // nil without PhaseWindow

	gate    *detect.Gate  // nil without read sampling
	skipped atomic.Uint64 // reads the gate turned away

	// quantum is the buffer the source, its one writer, fills in issue
	// order; full, handOn sends it on full and takes the next from free
	// (three circulate). From start until endQuanta one analyser goroutine
	// owns the tap, the gate and the engine, whose one producer it is.
	quantum                  []trace.Access
	full, free               chan []trace.Access
	analysed                 chan struct{}
	sourceWait, analyserWait uint64 // the ring's waits, with the stage probes on
}

// quantumLen is each quantum buffer's capacity in accesses (256 KB), for
// every source; live telemetry trails the source by at most three quanta.
// Each hand-off can park and wake a goroutine, which at 2 048 kept
// synth-local's two stages taking turns on a 2-core host (10.9 against 8.0
// ns/access at 8 192) and at 1 024 cost replay about a third of its speed.
const quantumLen = 8192

// ring is the three quantum buffers of one run. rings holds the last
// finished run's for the next run, on any P (a sync.Pool keeps a Put on its
// own P's side): allocated per run, their 768 KB would add 0.19 bytes an
// access to synth-local's 0.07 (2^22 accesses a run).
type ring [3][quantumLen]trace.Access

var rings atomic.Pointer[ring]

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

// start starts the analyser goroutine behind the source: it takes each full
// quantum, writes it to tap when non-nil (in front of the sampling gate),
// thins it through the gate and hands it to the engine. The source then
// fills an.quantum and calls handOn at capacity. Call endQuanta on every path
// once the source has run, and only then Close the engine, which flushes
// what the engine has staged.
func (an *analysis) start(tap *trace.Encoder) {
	r := rings.Swap(nil)
	if r == nil {
		r = new(ring)
	}
	an.full, an.free, an.analysed = make(chan []trace.Access, 2), make(chan []trace.Access, 3), make(chan struct{})
	an.free <- r[1][:0]
	an.free <- r[2][:0]
	an.quantum = r[0][:0]
	go func() {
		defer close(an.analysed)
		for q, ok := an.recv(an.full, &an.analyserWait); ok; q, ok = an.recv(an.full, &an.analyserWait) {
			if tap != nil {
				_ = tap.WriteBatch(q) // a failed write is sticky: Record sees it at Close
			}
			an.feedBatch(q)
			an.free <- q[:0]
		}
		rings.Store(r) // full is closed: the source is done with every buffer
	}()
}

// handOn sends the filled quantum to the analyser goroutine and takes the
// next empty buffer.
func (an *analysis) handOn() {
	an.full <- an.quantum
	an.quantum, _ = an.recv(an.free, &an.sourceWait)
}

// recv is each of the ring's two waits, the source's for a free buffer and
// the analyser's for a full one. With the stage probes on it adds the wait
// to *wait.
func (an *analysis) recv(c chan []trace.Access, wait *uint64) ([]trace.Access, bool) {
	if an.tel.Probes().Stage != nil {
		defer func(t0 time.Time) { *wait += uint64(time.Since(t0)) }(time.Now())
	}
	q, ok := <-c
	return q, ok
}

// endQuanta hands the last partial quantum to the analyser goroutine, ends
// it and waits until it has exited, so the caller owns the analyser again.
// A no-op without start, or once done.
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

// feedBatch hands one quantum to the engine, thinning sampled-out reads in
// place first (the buffer is the caller's to reuse; only its length shrinks).
func (an *analysis) feedBatch(batch []trace.Access) {
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
	an.pe.ProcessBatch(batch)
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
			return nil, fmt.Errorf("commprof: internal invariant violated: %w", err)
		}
		an.ps.attach(rep, ws)
	}
	if an.gate != nil {
		rep.SampleFraction = an.gate.Fraction()
	}
	tel.finishRun(rep, tree)
	if ov := rep.Overhead; ov != nil {
		ov.SourceWaitNanos, ov.AnalyserWaitNanos = an.sourceWait, an.analyserWait
	}
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
// analyser, hand the engine a probe that fills its ring, run, finish.
func profileEngine(opts Options, src engineSource) (*Report, error) {
	an, err := newAnalysis(opts, src.threads, src.table)
	if err != nil {
		return nil, err
	}
	defer an.pe.Close()
	an.start(src.tap)
	defer an.endQuanta() // on the engine-error path, before the engine closes
	// The scheduler's turn makes the probe a single caller.
	eng := exec.New(exec.Options{Threads: src.threads, Probes: an.tel.Probes().Engine, Probe: func(a trace.Access) {
		n := len(an.quantum)
		an.quantum = an.quantum[:n+1] // handed on at capacity
		q := &an.quantum[n]
		q.Time, q.Addr, q.Size, q.Thread, q.Region, q.Kind = a.Time, a.Addr, a.Size, a.Thread, a.Region, a.Kind
		if n+1 == quantumLen {
			an.handOn()
		}
	}})
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
