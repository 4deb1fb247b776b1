package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"commprof"
	"commprof/internal/accuracy"
	"commprof/internal/comm"
	"commprof/internal/detect"
	simexec "commprof/internal/exec"
	"commprof/internal/metrics"
	"commprof/internal/patterns"
	"commprof/internal/pipeline"
	"commprof/internal/redundancy"
	"commprof/internal/sig"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// The staged pass: after the untraced measurement, each op's input is fed to
// each layer on the op's path alone, through the layer's public functions,
// and the calls are timed from here — no file outside bench/ holds a span or
// a counter. One span is recorded per (op, layer stage); it carries the
// number of calls it covers, the time spent inside them and the counts taken
// at the same boundary. Nested layers get self time by subtraction in derive.

type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0: a root
	Op     string             `json:"op"`     // shared by every span of one op
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"` // since the tracer was made
	End    int64              `json:"end_ns"`
	Busy   int64              `json:"busy_ns"` // inside the layer's calls
	Calls  int                `json:"calls"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) open(parent int, op, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) close(id int, sw stopwatch, counts map[string]float64) {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.Busy, s.Calls, s.Counts = int64(sw.busy), sw.calls, counts
}

func (t *tracer) write(w io.Writer) error {
	return json.NewEncoder(w).Encode(map[string]any{"spans": t.spans})
}

// stopwatch accumulates the time inside a layer's calls.
type stopwatch struct {
	busy  time.Duration
	calls int
}

func (s *stopwatch) time(fn func()) {
	t := time.Now()
	fn()
	s.busy += time.Since(t)
	s.calls++
}

// sums accumulates raw times and counts over the ops of one staged pass;
// derive turns them into the catalogue's per-layer metrics.
type sums map[string]float64

// batches feeds the op's access sequence to fn in layerBatch slices, in
// order. Synthetic ops hold only the public form, converted here outside any
// timed call.
func (o *op) batches(fn func([]trace.Access)) {
	if o.pub == nil {
		for i := 0; i < len(o.stream); i += layerBatch {
			fn(o.stream[i:min(i+layerBatch, len(o.stream))])
		}
		return
	}
	buf := make([]trace.Access, 0, layerBatch)
	for i := 0; i < len(o.pub); i += layerBatch {
		buf = toInternal(buf[:0], o.pub[i:min(i+layerBatch, len(o.pub))])
		fn(buf)
	}
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// clockCost is what one time.Now/time.Since pair adds to a timed call; the
// read/write split of the signature times runs of a few accesses and has to
// take it back out.
func clockCost() time.Duration {
	const n = 4096
	var sink time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink += time.Since(time.Now())
	}
	_ = sink
	return time.Since(t0) / n
}

func newSignature(threads int) (*sig.Asymmetric, error) {
	return sig.NewAsymmetric(sig.Options{Slots: defaultSigSlots, Threads: threads, FPRate: 0.001})
}

// stagedOp runs every layer on the workload's path over one op's input.
func stagedOp(in *instance, o *op, tr *tracer, parent int, s sums) error {
	ls := in.w.layers
	n := float64(o.accesses)
	s["ops"]++
	s["accesses"] += n
	opSpan := tr.open(parent, o.name, "op")
	defer func() { tr.close(opSpan, stopwatch{}, map[string]float64{"accesses": n}) }()
	stage := func(name string) int { return tr.open(opSpan, o.name, name) }

	if ls.probe {
		id := stage("probe target")
		run, err := runTarget(in.cfg)
		if err != nil {
			return err
		}
		s["probe.ns"] += float64(run.ProbeNs)
		s["probe.shutdown_ns"] += float64(run.ShutdownNs)
		s["probe.rss"] += float64(run.PeakRSS)
		tr.close(id, stopwatch{busy: time.Duration(run.wallNs), calls: 1}, map[string]float64{
			"probes": float64(run.Probes), "probe_ns": float64(run.ProbeNs), "shutdown_ns": float64(run.ShutdownNs),
			"max_rss": float64(run.PeakRSS), "trace_bytes": float64(len(run.raw)),
		})
	}

	if ls.exec {
		id := stage("exec.Run")
		var sw stopwatch
		var barriers uint64
		var err error
		a0 := memStats().TotalAlloc
		sw.time(func() {
			var prog splash.Program
			sz, _ := splash.ParseSize(o.size) // set-up parsed the same string
			prog, err = splash.New(o.program, splash.Config{Threads: benchThreads, Size: sz, Seed: in.cfg.seed})
			if err != nil {
				return
			}
			eng := simexec.New(simexec.Options{Threads: benchThreads, Probe: func(trace.Access) {}})
			_, err = prog.Run(eng)
			barriers = eng.BarrierEpochs()
		})
		if err != nil {
			return err
		}
		alloc := float64(memStats().TotalAlloc - a0)
		s["exec.ns"] += float64(sw.busy)
		s["exec.alloc"] += alloc
		s["exec.barriers"] += float64(barriers)
		tr.close(id, sw, map[string]float64{"accesses": n, "alloc_bytes": alloc, "barrier_epochs": float64(barriers)})
	}

	if ls.encode {
		id := stage("trace.EncodeVersion")
		var sw stopwatch
		var err error
		buf := bytes.NewBuffer(make([]byte, 0, len(o.traceIn)+len(o.traceIn)/8))
		sw.time(func() {
			err = (&trace.Stream{Table: o.table, Accesses: o.stream}).EncodeVersion(buf, trace.DefaultVersion, o.threads)
		})
		if err != nil {
			return err
		}
		s["encode.ns"] += float64(sw.busy)
		tr.close(id, sw, map[string]float64{"records": n, "bytes": float64(buf.Len())})
	}
	if o.traceIn != nil {
		s["trace.bytes"] += float64(len(o.traceIn))
		s["trace.records"] += n
	}

	if ls.decode {
		id := stage("trace.NextBatch")
		var sw stopwatch
		var err error
		var decoded int
		m0 := memStats().Mallocs
		sw.time(func() {
			var dec *trace.Decoder
			dec, err = trace.NewDecoder(bytes.NewReader(o.traceIn))
			if err != nil {
				return
			}
			batch := make([]trace.Access, 0, layerBatch)
			for {
				batch, err = dec.NextBatch(batch)
				if err != nil {
					break
				}
				decoded += len(batch)
			}
			if err == io.EOF {
				err = nil
			}
		})
		if err == nil && uint64(decoded) != o.accesses {
			err = fmt.Errorf("decoded %d records of %d", decoded, o.accesses)
		}
		if err != nil {
			return err
		}
		allocs := float64(memStats().Mallocs - m0)
		s["decode.ns"] += float64(sw.busy)
		s["decode.mallocs"] += allocs
		tr.close(id, sw, map[string]float64{"records": n, "bytes": float64(len(o.traceIn)), "mallocs": allocs})
	}

	if !ls.analyse {
		return nil
	}

	bits := uint(0)
	fwd := o.stream // what the detector forwards to the signature
	if ls.cache {
		bits = cacheBits
		id := stage("redundancy.Redundant")
		c, err := redundancy.New(bits, o.threads)
		if err != nil {
			return err
		}
		var sw stopwatch
		o.batches(func(b []trace.Access) {
			sw.time(func() {
				for _, a := range b {
					c.Redundant(a.Addr, a.Thread, a.Kind == trace.Write)
				}
			})
		})
		st := c.Stats()
		s["red.ns"] += float64(sw.busy)
		if !ls.full { // the sharded op's own per-shard caches are counted below
			s["red.lookups"] += float64(st.Lookups())
			s["red.hits"] += float64(st.Hits)
			s["red.evictions"] += float64(st.Evictions)
		}
		tr.close(id, sw, map[string]float64{"lookups": float64(st.Lookups()), "hits": float64(st.Hits), "evictions": float64(st.Evictions)})
		// The misses, collected on a second cache so the timed loop above
		// does nothing but look up.
		c.Reset()
		fwd = make([]trace.Access, 0, st.Misses)
		o.batches(func(b []trace.Access) {
			for _, a := range b {
				if !c.Redundant(a.Addr, a.Thread, a.Kind == trace.Write) {
					fwd = append(fwd, a)
				}
			}
		})
	}

	if err := stagedSig(o, fwd, stage, tr, s); err != nil {
		return err
	}

	// detect: the serial detector with the op's backend and cache.
	plain, err := stagedDetect(o, bits, nil, nil, stage("detect.ProcessBatch"), tr)
	if err != nil {
		return err
	}
	s["detect.ns"] += float64(plain.sw.busy)
	s["detect.mallocs"] += plain.mallocs
	s["detect.events"] += float64(plain.d.Stats().Detected)

	{
		id := stage("comm.Tree")
		var sw stopwatch
		var err error
		sw.time(func() {
			var tree *comm.Tree
			if tree, err = plain.d.Tree(); err == nil {
				err = tree.CheckSummationLaw()
			}
		})
		if err != nil {
			return err
		}
		s["tree.ns"] += float64(sw.busy)
		tr.close(id, sw, nil)
	}

	if ls.full {
		mon, err := accuracy.New(accuracy.Options{Threads: o.threads, SampleBits: fullSampleBits, TargetFPR: fullTargetFPR})
		if err != nil {
			return err
		}
		monitored, err := stagedDetect(o, bits, mon, nil, stage("detect.ProcessBatch+accuracy"), tr)
		if err != nil {
			return err
		}
		st := mon.Stats()
		s["detacc.ns"] += float64(monitored.sw.busy)
		s["acc.sampled"] += float64(st.SampledAccesses)
		s["acc.shadow"] += float64(mon.ShadowFootprintBytes())
		s["acc.sig_events"] += float64(st.SigEvents)
		s["acc.false_pos"] += float64(st.FalsePositives)
	}

	if ls.full {
		var events []comm.WindowEvent
		if _, err := stagedDetect(o, bits, nil, func(ev detect.Event) {
			events = append(events, comm.WindowEvent{Time: ev.Time, Region: ev.Region, Src: ev.Writer, Dst: ev.Reader, Bytes: uint64(ev.Bytes)})
		}, 0, tr); err != nil {
			return err
		}
		if err := stagedWindows(in, o, events, stage, tr, s); err != nil {
			return err
		}
	}

	if ls.full {
		for _, shards := range []int{fullShards, 1} {
			if err := stagedPipeline(o, shards, stage, tr, s); err != nil {
				return err
			}
		}
	}

	if ls.full {
		if err := stagedTelemetry(in, o, stage, tr, s); err != nil {
			return err
		}
	}
	return nil
}

// stagedSig feeds the forwarded accesses to the signature alone: once whole
// for the total, once split into same-kind runs for the read/write split,
// once through the exact backend for the reference time.
func stagedSig(o *op, fwd []trace.Access, stage func(string) int, tr *tracer, s sums) error {
	id := stage("sig.NewAsymmetric")
	var setup stopwatch
	var backend *sig.Asymmetric
	var err error
	setup.time(func() { backend, err = newSignature(o.threads) })
	if err != nil {
		return err
	}
	s["sig.setup_ns"] += float64(setup.busy)
	tr.close(id, setup, nil)

	observe := func(b sig.Backend, batch []trace.Access) {
		for _, a := range batch {
			if a.Kind == trace.Write {
				b.ObserveWrite(a.Addr, a.Thread)
			} else {
				b.ObserveRead(a.Addr, a.Thread)
			}
		}
	}
	id = stage("sig.Observe")
	var sw stopwatch
	for i := 0; i < len(fwd); i += layerBatch {
		batch := fwd[i:min(i+layerBatch, len(fwd))]
		sw.time(func() { observe(backend, batch) })
	}
	s["sig.ns"] += float64(sw.busy)
	s["sig.filters"] += float64(backend.AllocatedFilters())
	s["sig.fill"] += backend.FillRatio(256)
	s["sig.footprint"] += float64(backend.FootprintBytes())
	tr.close(id, sw, map[string]float64{"forwarded": float64(len(fwd)), "filters": float64(backend.AllocatedFilters())})

	id = stage("sig.Observe by kind")
	split, err := newSignature(o.threads)
	if err != nil {
		return err
	}
	var kind [2]stopwatch // indexed by trace.Kind
	var count [2]int
	for i := 0; i < len(fwd); {
		j, k := i, fwd[i].Kind
		for j < len(fwd) && fwd[j].Kind == k {
			j++
		}
		run := fwd[i:j]
		kind[k].time(func() { observe(split, run) })
		count[k] += len(run)
		i = j
	}
	cost := clockCost()
	net := func(k trace.Kind) float64 {
		return max(float64(kind[k].busy-cost*time.Duration(kind[k].calls)), 0)
	}
	s["sig.read_ns"] += net(trace.Read)
	s["sig.write_ns"] += net(trace.Write)
	s["sig.reads"] += float64(count[trace.Read])
	s["sig.writes"] += float64(count[trace.Write])
	tr.close(id, stopwatch{busy: kind[0].busy + kind[1].busy, calls: kind[0].calls + kind[1].calls},
		map[string]float64{"reads": float64(count[trace.Read]), "writes": float64(count[trace.Write]), "clock_ns": float64(cost)})

	id = stage("sig.Perfect")
	exact := sig.NewPerfect(o.threads)
	var ex stopwatch
	for i := 0; i < len(fwd); i += layerBatch {
		batch := fwd[i:min(i+layerBatch, len(fwd))]
		ex.time(func() { observe(exact, batch) })
	}
	s["sig.exact_ns"] += float64(ex.busy)
	tr.close(id, ex, map[string]float64{"forwarded": float64(len(fwd))})
	return nil
}

type detectRun struct {
	d       *detect.Detector
	sw      stopwatch
	mallocs float64
}

// stagedDetect runs the serial detector over the op's whole input on a fresh
// signature. spanID 0 records no span (the run only gathers events).
func stagedDetect(o *op, bits uint, mon *accuracy.Monitor, onEvent func(detect.Event), spanID int, tr *tracer) (*detectRun, error) {
	backend, err := newSignature(o.threads)
	if err != nil {
		return nil, err
	}
	d, err := detect.New(detect.Options{
		Threads: o.threads, Backend: backend, Table: o.table,
		RedundancyCacheBits: bits, Accuracy: mon, OnEvent: onEvent,
	})
	if err != nil {
		return nil, err
	}
	run := &detectRun{d: d}
	m0 := memStats().Mallocs
	o.batches(func(b []trace.Access) { run.sw.time(func() { d.ProcessBatch(b) }) })
	run.mallocs = float64(memStats().Mallocs - m0)
	if spanID != 0 {
		st := d.Stats()
		tr.close(spanID, run.sw, map[string]float64{"accesses": float64(st.Processed), "events": float64(st.Detected), "mallocs": run.mallocs})
	}
	return run, nil
}

// stagedWindows feeds the detected events to the window layer in the shard
// worker's batch size, closes every window, then builds the timeline.
func stagedWindows(in *instance, o *op, events []comm.WindowEvent, stage func(string) int, tr *tracer, s sums) error {
	id := stage("comm.WindowSet")
	ws, err := comm.NewWindowSet(o.threads, fullWindow)
	if err != nil {
		return err
	}
	closer, err := comm.NewWindowCloser(o.threads, fullWindow)
	if err != nil {
		return err
	}
	const workerBatch = 256 // pipeline's default drain limit
	var sw stopwatch
	for i := 0; i < len(events); i += workerBatch {
		batch := events[i:min(i+workerBatch, len(events))]
		sw.time(func() { ws.ObserveBatch(batch) })
	}
	sw.time(func() { closer.Advance(^uint64(0), []*comm.WindowSet{ws}, nil) })
	s["win.ns"] += float64(sw.busy)
	s["win.events"] += float64(len(events))
	s["win.closed"] += float64(closer.Closed())
	tr.close(id, sw, map[string]float64{"events": float64(len(events)), "windows": float64(closer.Closed())})

	// The facade trains this classifier inside the op; here it is set-up.
	seed := in.cfg.seed
	knn, err := patterns.NewKNN(5, patterns.Corpus(60, []int{8, 16, 32}, 0, rand.New(rand.NewSource(seed))))
	if err != nil {
		return err
	}
	isLoop := func(id int32) bool {
		r, err := o.table.Region(id)
		return err == nil && r.Kind == trace.LoopRegion
	}
	id = stage("metrics.BuildTimeline")
	var tl stopwatch
	var windows int
	tl.time(func() { windows = len(metrics.BuildTimeline(closer.Done(), knn, isLoop, 5).Windows) })
	s["timeline.ns"] += float64(tl.busy)
	tr.close(id, tl, map[string]float64{"windows": float64(windows)})
	return nil
}

// stagedPipeline drives the sharded engine as Replay's producer loop does,
// with the op's options; shards 1 prices the queue against the serial
// detector.
func stagedPipeline(o *op, shards int, stage func(string) int, tr *tracer, s sums) error {
	id := stage(fmt.Sprintf("pipeline x%d", shards))
	var produce, closing stopwatch
	t0 := time.Now()
	pe, err := pipeline.New(pipeline.Options{
		Shards: shards, Threads: o.threads, Table: o.table,
		RedundancyCacheBits: cacheBits,
		Accuracy:            &accuracy.Options{Threads: o.threads, SampleBits: fullSampleBits, TargetFPR: fullTargetFPR},
		NewBackend:          pipeline.AsymmetricFactory(defaultSigSlots, shards, o.threads, 0.001, nil),
		PhaseWindow:         fullWindow,
	})
	if err != nil {
		return err
	}
	prod := pe.NewProducer(false)
	o.batches(func(b []trace.Access) { produce.time(func() { prod.ProcessBatch(b) }) })
	produce.time(prod.Flush)
	closing.time(pe.Close)
	total := time.Since(t0)
	if shards == 1 {
		s["pipe1.ns"] += float64(total)
		tr.close(id, stopwatch{busy: total, calls: produce.calls + 1}, nil)
		return nil
	}
	var peak, sum float64
	stats := pe.ShardStats()
	for _, st := range stats {
		peak = max(peak, float64(st.Processed))
		sum += float64(st.Processed)
	}
	skew := div(peak, sum/float64(len(stats)))
	red, _ := pe.RedundancyStats()
	s["pipe.ns"] += float64(total)
	s["pipe.produce_ns"] += float64(produce.busy)
	s["pipe.close_ns"] += float64(closing.busy)
	s["pipe.peak"] = max(s["pipe.peak"], float64(pe.PeakResidentAccesses()))
	s["pipe.flushes"] += float64(pe.ProducerFlushes())
	s["pipe.skew"] += skew
	s["pipe.dropped"] += float64(pe.Stats().DroppedReads)
	s["red.lookups"] += float64(red.Lookups())
	s["red.hits"] += float64(red.Hits)
	s["red.evictions"] += float64(red.Evictions)
	tr.close(id, stopwatch{busy: total, calls: produce.calls + 1}, map[string]float64{
		"produce_ns": float64(produce.busy), "close_ns": float64(closing.busy),
		"peak_resident": float64(pe.PeakResidentAccesses()), "flushes": float64(pe.ProducerFlushes()),
		"skew": skew, "cache_hits": float64(red.Hits),
	})
	return nil
}

// stagedTelemetry prices the obs layer as the op with telemetry minus the
// same op without.
func stagedTelemetry(in *instance, o *op, stage func(string) int, tr *tracer, s sums) error {
	id := stage("commprof.Replay-telemetry")
	var bare stopwatch
	var err error
	bare.time(func() { _, err = replayFull(in.cfg, o, nil) })
	if err != nil {
		return err
	}
	tr.close(id, bare, nil)

	id = stage("commprof.Replay+telemetry")
	tel := commprof.NewTelemetry()
	tel.EnableTimeline()
	defer tel.Close()
	var with stopwatch
	var rep *commprof.Report
	with.time(func() { rep, err = replayFull(in.cfg, o, tel) })
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := tel.WriteTimeline(&buf); err != nil {
		return err
	}
	var events []json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		return fmt.Errorf("timeline export: %w", err)
	}
	s["obs.with_ns"] += float64(with.busy)
	s["obs.bare_ns"] += float64(bare.busy)
	s["obs.events"] += float64(len(events))
	if rep.Overhead != nil {
		s["obs.attributed"] += rep.Overhead.AttributedShare
	}
	tr.close(id, with, map[string]float64{"timeline_events": float64(len(events))})
	return nil
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// derive turns one staged pass's sums into the per-layer metrics. e2eNs is
// the untraced median pass time the layers are held against.
func derive(w *workload, s sums, e2eNs float64) map[string]float64 {
	n, ops := s["accesses"], s["ops"]
	m := map[string]float64{
		"exec.ns_per_access":          div(s["exec.ns"], n),
		"exec.alloc_bytes_per_access": div(s["exec.alloc"], n),
		"exec.barrier_epochs":         s["exec.barriers"],

		"trace.encode_ns_per_access":      div(s["encode.ns"], n),
		"trace.decode_ns_per_access":      div(s["decode.ns"], n),
		"trace.decode_allocs_per_kaccess": 1000 * div(s["decode.mallocs"], n),
		"trace.bytes_per_access":          div(s["trace.bytes"], s["trace.records"]),

		"redundancy.ns_per_lookup":         div(s["red.ns"], n),
		"redundancy.hit_rate":              div(s["red.hits"], s["red.lookups"]),
		"redundancy.evictions_per_kaccess": 1000 * div(s["red.evictions"], n),

		"sig.ns_per_access":       div(s["sig.ns"], n),
		"sig.ns_per_read":         div(s["sig.read_ns"], s["sig.reads"]),
		"sig.ns_per_write":        div(s["sig.write_ns"], s["sig.writes"]),
		"sig.filters_allocated":   s["sig.filters"],
		"sig.fill_ratio":          div(s["sig.fill"], ops),
		"sig.setup_ns_per_op":     div(s["sig.setup_ns"], ops),
		"sig.footprint_bytes":     s["sig.footprint"],
		"sig.exact_ns_per_access": div(s["sig.exact_ns"], n),

		"detect.ns_per_access":      div(s["detect.ns"], n),
		"detect.self_ns_per_access": div(s["detect.ns"]-s["sig.ns"]-s["red.ns"], n),
		"detect.events_per_kaccess": 1000 * div(s["detect.events"], n),
		"detect.allocs_per_kaccess": 1000 * div(s["detect.mallocs"], n),

		"accuracy.sampled_share": div(s["acc.sampled"], n),
		"accuracy.shadow_bytes":  s["acc.shadow"],
		"accuracy.estimated_fpr": div(s["acc.false_pos"], s["acc.sig_events"]),

		"pipeline.ns_per_access":          div(s["pipe.ns"], n),
		"pipeline.produce_ns_per_access":  div(s["pipe.produce_ns"], n),
		"pipeline.close_ns_per_op":        div(s["pipe.close_ns"], ops),
		"pipeline.shards1_ns_per_access":  div(s["pipe1.ns"], n),
		"pipeline.peak_resident_accesses": s["pipe.peak"],
		"pipeline.producer_flushes":       s["pipe.flushes"],
		"pipeline.shard_skew":             div(s["pipe.skew"], ops),
		"pipeline.dropped_accesses":       s["pipe.dropped"],

		"comm.tree_ns_per_op":      div(s["tree.ns"], ops),
		"comm.window_ns_per_event": div(s["win.ns"], s["win.events"]),
		"comm.windows_closed":      s["win.closed"],

		"metrics.timeline_ns_per_op": div(s["timeline.ns"], ops),

		"obs.telemetry_ns_per_access": div(s["obs.with_ns"]-s["obs.bare_ns"], n),
		"obs.timeline_events":         s["obs.events"],
		"obs.attributed_share":        div(s["obs.attributed"], ops),

		"probe.ns_per_probe":          div(s["probe.ns"], n),
		"probe.shutdown_ns_per_probe": div(s["probe.shutdown_ns"], n),
		"probe.rss_bytes_per_probe":   div(s["probe.rss"], n),
	}
	if w.layers.full {
		m["accuracy.ns_per_access"] = div(s["detacc.ns"]-s["detect.ns"], n)
	} else {
		m["accuracy.ns_per_access"] = 0
	}

	// The layers on the op's blocking path. In the sharded op the detector,
	// cache, monitor and window layers run inside the pipeline's wall time
	// and the decoder runs beside the shard workers; in the probe target the
	// encoder runs inside Shutdown.
	var path float64
	switch {
	case w.layers.probe:
		path = s["probe.ns"] + s["probe.shutdown_ns"]
	case w.layers.full:
		path = s["pipe.ns"] + s["tree.ns"] + s["timeline.ns"] + s["obs.with_ns"] - s["obs.bare_ns"]
	default:
		path = s["exec.ns"] + s["encode.ns"] + s["decode.ns"] + s["sig.setup_ns"] + s["detect.ns"] + s["tree.ns"]
	}
	m["commprof.self_ns_per_access"] = div(e2eNs-path, n)
	m["commprof.layer_coverage"] = div(path, e2eNs)
	return m
}
