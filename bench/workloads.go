package main

import (
	"bytes"
	"fmt"

	"commprof"
	simexec "commprof/internal/exec"
	"commprof/internal/redundancy"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// Every workload analyses 32 threads (the paper's configuration) with the
// facade's defaults: 2^20 signature slots, bloom rate 0.001, granularity 0.
const (
	benchThreads    = 32
	defaultSigSlots = 1 << 20
	cacheBits       = 14    // RedundancyCacheBits wherever the cache is on
	fullShards      = 2     // replay-full's AnalysisShards, on every host
	fullWindow      = 16384 // replay-full's PhaseWindow
	fullSampleBits  = 6     // replay-full's AccuracySampleBits
	fullTargetFPR   = 0.05  // replay-full's AccuracyTargetFPR
	layerBatch      = 1024  // batch the staged pass feeds layers, Replay's own
	synthLocalLen   = 1 << 22
	synthSpreadLen  = 1 << 20
	smokeSynthLen   = 1 << 18
	probeWords      = 7812 // 64 sweeps x 2 probes x 7812 words = 999 936 probes
	probePhases     = 64
	probeGoroutines = 4
)

// splashMix is one pass of the four splash workloads: six programs whose
// sizes span 54 k to 361 k accesses, so a per-op fixed cost and a per-access
// cost both show.
var splashMix = []struct{ program, size string }{
	{"fft", "simlarge"},
	{"lu_ncb", "simlarge"},
	{"water_nsq", "simlarge"},
	{"barnes", "simsmall"},
	{"radix", "simdev"},
	{"ocean_cp", "simdev"},
}

// Comm-error ceilings: an op whose matrix is further than this from the
// oracle's, as a share of the oracle's bytes, failed.
const (
	ceilingSplash = 0.03
	ceilingLocal  = 0.001
	ceilingSpread = 0.30
)

type config struct {
	seed  int64
	small bool // smoke-test scale: simdev programs, short streams, few probes
}

// op is one public-API call of a pass, with everything needed to issue it,
// to check what it returns and to feed its input to each layer alone.
type op struct {
	name     string
	accesses uint64 // the generator's count
	threads  int
	table    *trace.Table
	stream   []trace.Access    // the access sequence; nil on synthetic ops, which hold only
	pub      []commprof.Access // the form ProfileTrace takes (see op.batches)
	oracle   *oracle
	ceiling  float64

	program, size string           // splash ops
	traceIn       []byte           // replay ops: the v3 trace recorded in set-up
	refGlobal     commprof.Matrix  // replay: the set-up Record report's matrix
	recordBuf     *bytes.Buffer    // record: the pre-sized writer, reused
	analytic      [][]uint64       // go-probe: the hand-off schedule's matrix
	refReport     *commprof.Report // go-probe: Replay of the set-up reference run
}

// outcome is what one op returned.
type outcome struct {
	rep        *commprof.Report
	err        error
	traceBytes uint64     // bytes the op encoded (record, go-probe)
	target     *targetRun // go-probe
}

type instance struct {
	w        *workload
	cfg      config
	ops      []*op
	accesses uint64 // per pass
}

// layerSet names the layers a workload's op calls, for the staged pass. full
// is replay-full's set: the sharded pipeline with the accuracy monitor, phase
// windows and telemetry. A probe workload's op is a child process, so its
// memory numbers are the child's.
type layerSet struct {
	exec, encode, decode, analyse, cache, full, probe bool
}

type workload struct {
	workloadInfo
	layers layerSet
	// sameAsRecording: the op analyses the set-up recording exactly as the
	// recording run did, so its matrix must equal that run's.
	sameAsRecording bool
	setup           func(w *workload, cfg config) (*instance, error)
	run             func(in *instance, o *op) outcome
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

var workloads = buildWorkloads()

func buildWorkloads() []*workload {
	defs := map[string]workload{
		"live": {
			layers: layerSet{exec: true, analyse: true},
			setup:  func(w *workload, cfg config) (*instance, error) { return setupSplash(w, cfg, false) },
			run: func(in *instance, o *op) outcome {
				rep, err := commprof.Profile(splashOpts(in.cfg, o))
				return outcome{rep: rep, err: err}
			},
		},
		"record": {
			layers: layerSet{exec: true, encode: true, analyse: true},
			setup:  func(w *workload, cfg config) (*instance, error) { return setupSplash(w, cfg, true) },
			run: func(in *instance, o *op) outcome {
				o.recordBuf.Reset()
				rep, err := commprof.Record(splashOpts(in.cfg, o), o.recordBuf)
				return outcome{rep: rep, err: err, traceBytes: uint64(o.recordBuf.Len())}
			},
		},
		"replay": {
			layers:          layerSet{decode: true, analyse: true},
			sameAsRecording: true,
			setup:           func(w *workload, cfg config) (*instance, error) { return setupSplash(w, cfg, true) },
			run: func(in *instance, o *op) outcome {
				rep, err := commprof.Replay(bytes.NewReader(o.traceIn), benchThreads, commprof.Options{Seed: in.cfg.seed})
				return outcome{rep: rep, err: err}
			},
		},
		"replay-full": {
			layers: layerSet{decode: true, analyse: true, cache: true, full: true},
			setup:  func(w *workload, cfg config) (*instance, error) { return setupSplash(w, cfg, true) },
			run: func(in *instance, o *op) outcome {
				tel := commprof.NewTelemetry()
				tel.EnableTimeline()
				defer tel.Close()
				rep, err := replayFull(in.cfg, o, tel)
				return outcome{rep: rep, err: err}
			},
		},
		"synth-local": {
			layers: layerSet{analyse: true, cache: true},
			setup: func(w *workload, cfg config) (*instance, error) {
				return setupSynth(w, cfg, synthLocal, synthLocalLen, ceilingLocal, regime{minHit: 0.9, maxHit: 1})
			},
			run: runSynth,
		},
		"synth-spread": {
			layers: layerSet{analyse: true, cache: true},
			setup: func(w *workload, cfg config) (*instance, error) {
				return setupSynth(w, cfg, synthSpread, synthSpreadLen, ceilingSpread, regime{maxHit: 0.02, minGranules: defaultSigSlots / 4})
			},
			run: runSynth,
		},
		"go-probe": {
			layers: layerSet{encode: true, probe: true},
			setup:  setupProbe,
			run:    runProbe,
		},
	}
	out := make([]*workload, len(workloadCatalogue))
	for i, info := range workloadCatalogue {
		w := defs[info.Name]
		w.workloadInfo = info
		out[i] = &w
	}
	return out
}

func splashOpts(cfg config, o *op) commprof.Options {
	return commprof.Options{Workload: o.program, InputSize: o.size, Threads: benchThreads, Seed: cfg.seed}
}

// replayFull is the replay-full op; the staged pass also issues it with a nil
// telemetry handle to price the obs layer.
func replayFull(cfg config, o *op, tel *commprof.Telemetry) (*commprof.Report, error) {
	return commprof.Replay(bytes.NewReader(o.traceIn), benchThreads, commprof.Options{
		Seed:                cfg.seed,
		AnalysisShards:      fullShards,
		RedundancyCacheBits: cacheBits,
		AccuracyTargetFPR:   fullTargetFPR,
		AccuracySampleBits:  fullSampleBits,
		PhaseWindow:         fullWindow,
		Telemetry:           tel,
	})
}

func runSynth(in *instance, o *op) outcome {
	rep, err := commprof.ProfileTrace(o.pub, synthRegions, benchThreads,
		commprof.Options{Seed: in.cfg.seed, RedundancyCacheBits: cacheBits})
	return outcome{rep: rep, err: err}
}

// capture runs a splash program on the simulated engine with a probe that
// only appends, giving the access sequence independent of detector and codec.
func capture(program, size string, seed int64) (*trace.Table, []trace.Access, error) {
	sz, err := splash.ParseSize(size)
	if err != nil {
		return nil, nil, err
	}
	prog, err := splash.New(program, splash.Config{Threads: benchThreads, Size: sz, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	var stream []trace.Access
	eng := simexec.New(simexec.Options{Threads: benchThreads, Probe: func(a trace.Access) { stream = append(stream, a) }})
	if _, err := prog.Run(eng); err != nil {
		return nil, nil, err
	}
	return prog.Table(), stream, nil
}

// newOp computes the oracle over the op's access sequence, given as stream
// or as pub.
func newOp(name string, threads int, table *trace.Table, stream []trace.Access, pub []commprof.Access, ceiling float64) (*op, error) {
	orc, err := newOracle(threads)
	if err != nil {
		return nil, err
	}
	o := &op{
		name: name, accesses: uint64(len(stream) + len(pub)), threads: threads,
		table: table, stream: stream, pub: pub, oracle: orc, ceiling: ceiling,
	}
	o.batches(orc.observeBatch)
	return o, nil
}

func setupSplash(w *workload, cfg config, withTrace bool) (*instance, error) {
	in := &instance{w: w, cfg: cfg}
	for _, m := range splashMix {
		size := m.size
		if cfg.small {
			size = "simdev"
		}
		table, stream, err := capture(m.program, size, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("capture %s: %w", m.program, err)
		}
		o, err := newOp(m.program+"@"+size, benchThreads, table, stream, nil, ceilingSplash)
		if err != nil {
			return nil, err
		}
		o.program, o.size = m.program, size
		if withTrace {
			var buf bytes.Buffer
			rep, err := commprof.Record(splashOpts(cfg, o), &buf)
			if err != nil {
				return nil, fmt.Errorf("record %s: %w", m.program, err)
			}
			o.traceIn, o.refGlobal = buf.Bytes(), rep.Global
			o.recordBuf = bytes.NewBuffer(make([]byte, 0, buf.Len()+buf.Len()/8))
		}
		in.ops = append(in.ops, o)
		in.accesses += o.accesses
	}
	return in, nil
}

func setupSynth(w *workload, cfg config, gen func(int64, int) []commprof.Access, n int, ceiling float64, want regime) (*instance, error) {
	if cfg.small {
		n = smokeSynthLen
	}
	pub := gen(cfg.seed, n)
	table := trace.NewTable()
	for _, r := range synthRegions {
		if r.Loop {
			table.AddLoop(r.Name, r.Parent)
		} else {
			table.AddFunc(r.Name, r.Parent)
		}
	}
	o, err := newOp(w.Name, synthThreads, table, nil, pub, ceiling)
	if err != nil {
		return nil, err
	}
	if err := want.check(w.Name, o, cfg.small); err != nil {
		return nil, err
	}
	return &instance{w: w, cfg: cfg, ops: []*op{o}, accesses: o.accesses}, nil
}

// toInternal appends pub to buf in the form the layers take.
func toInternal(buf []trace.Access, pub []commprof.Access) []trace.Access {
	for _, a := range pub {
		k := trace.Read
		if a.Kind == commprof.WriteAccess {
			k = trace.Write
		}
		buf = append(buf, trace.Access{Time: a.Time, Addr: a.Addr, Size: a.Size, Thread: a.Thread, Region: a.Region, Kind: k})
	}
	return buf
}

// regime is what a generator's stream must look like to the redundancy cache
// and the signature for its workload to measure what it exists to measure;
// set-up fails when a generator has drifted out of it. synth-local must be
// absorbed by the cache; synth-spread must defeat it and must touch at least
// a quarter of the signature's slots. (The issue asks for twice the slots in
// distinct granules, which a 2^20-access stream cannot touch; it is the
// address universe that is held to 2x, below.)
type regime struct {
	minHit, maxHit float64
	minGranules    int // not held at smoke-test size
}

// The synth-spread universe is at least twice the default signature.
const _ = uint(spreadHotWords + spreadColdWords - 2*defaultSigSlots)

func (r regime) check(name string, o *op, small bool) error {
	c, err := redundancy.New(cacheBits, o.threads)
	if err != nil {
		return err
	}
	o.batches(func(b []trace.Access) {
		for _, a := range b {
			c.Redundant(a.Addr, a.Thread, a.Kind == trace.Write)
		}
	})
	hit, distinct := c.Stats().HitRate(), len(o.oracle.cells)
	fmt.Printf("# %s regime: redundancy.hit_rate %.4f, distinct granules %d, oracle bytes %d\n", name, hit, distinct, o.oracle.total)
	if hit < r.minHit || hit > r.maxHit {
		return fmt.Errorf("%s left its regime: redundancy hit rate %.4f outside [%g, %g]", name, hit, r.minHit, r.maxHit)
	}
	if !small && distinct < r.minGranules {
		return fmt.Errorf("%s left its regime: %d distinct granules, want at least %d", name, distinct, r.minGranules)
	}
	return nil
}
