package commprof

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"commprof/internal/comm"
	"commprof/internal/exec"
	"commprof/internal/metrics"
	"commprof/internal/obs"
	"commprof/internal/patterns"
	"commprof/internal/pipeline"
)

// Telemetry is the profiler's self-observability handle: a metrics registry
// plus a run-phase tracer that Profile and Run thread through the signature,
// detector and executor layers. Create one with NewTelemetry, pass it in
// Options.Telemetry, and read it three ways:
//
//   - Report.Telemetry carries the end-of-run snapshot;
//   - WriteProm / WriteJSON export the registry at any time;
//   - Serve exposes live /metrics, /metrics.json and /progress endpoints
//     over HTTP while a run is in flight.
//
// A Telemetry may be reused across runs: counters keep accumulating and the
// live-introspection sources rebind to the newest run. A nil *Telemetry
// disables all instrumentation (the hot layers see nil probe bundles).
type Telemetry struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	bundle obs.Probes // every layer's hooks, wired into reg once

	start    atomic.Value // time.Time of the current run's wiring
	progress atomic.Value // func() ProgressSnapshot

	mu     sync.Mutex
	server *obs.Server

	// timeline is the execution-timeline recorder, nil until EnableTimeline;
	// spansAdded tracks how many tracer spans WriteTimeline has already
	// replayed onto it so repeated exports do not duplicate events. Both are
	// guarded by mu.
	timeline   *obs.Timeline
	spansAdded int

	// ovhBase snapshots the stage/overhead totals at run wiring so finishRun
	// can attribute exactly this run's time even though the registry's
	// counters accumulate across runs on a reused handle.
	ovhMu   sync.Mutex
	ovhBase overheadBaseline

	// The run's periodic goroutine (see startTicker): closing tickStop stops
	// it, tickDone closes once it has.
	tickMu   sync.Mutex
	tickStop chan struct{}
	tickDone chan struct{}
}

// tickInterval is the cadence of a run's periodic tick.
const tickInterval = 25 * time.Millisecond

// startTicker begins one run's periodic goroutine, which runs tick (see
// runTick) every tickInterval, so a run has exactly one periodic goroutine.
// Any previous run's ticker is stopped first.
func (t *Telemetry) startTicker(tick func()) {
	t.stopTicker()
	stop := make(chan struct{})
	done := make(chan struct{})
	t.tickMu.Lock()
	t.tickStop, t.tickDone = stop, done
	t.tickMu.Unlock()
	go func() {
		defer close(done)
		ticker := time.NewTicker(tickInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				// One closing tick so even a sub-tick run sees the alarm and
				// the counter tracks at its end.
				tick()
				return
			case <-ticker.C:
				tick()
			}
		}
	}()
}

// stopTicker stops the periodic goroutine, waiting for it to exit.
// Idempotent and nil-safe. finishRun and Close both call it, so an error
// path that skips finishRun leaks nothing past the handle's Close.
func (t *Telemetry) stopTicker() {
	if t == nil {
		return
	}
	t.tickMu.Lock()
	stop, done := t.tickStop, t.tickDone
	t.tickStop, t.tickDone = nil, nil
	t.tickMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// NewTelemetry returns an empty telemetry handle.
func NewTelemetry() *Telemetry {
	reg := obs.NewRegistry()
	t := &Telemetry{reg: reg, tracer: obs.NewTracer(), bundle: obs.DefaultProbes(reg)}
	t.start.Store(time.Now())
	return t
}

// EnableTimeline switches on execution-timeline recording: per-shard and
// per-producer span tracks, window-close/alarm instants and periodic counter
// tracks, exportable as Chrome/Perfetto trace-event JSON via WriteTimeline.
// Call before the run starts; runs wired while the timeline is off record
// nothing. Idempotent and nil-safe.
func (t *Telemetry) EnableTimeline() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.timeline == nil {
		t.timeline = obs.NewTimeline()
	}
	t.mu.Unlock()
}

// Timeline returns the execution timeline, nil unless EnableTimeline was
// called. The internal layers receive this handle at wiring time; a nil
// timeline keeps every recording site a nil-check no-op.
func (t *Telemetry) Timeline() *obs.Timeline {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.timeline
}

// WriteTimeline exports the execution timeline as a Chrome/Perfetto
// trace-event JSON array (load it at ui.perfetto.dev or chrome://tracing).
// The run tracer's finished phases are replayed onto a "run" track first, so
// the export shows facade phases, shard workers, producers and counter
// samples on one timebase. Without EnableTimeline it writes an empty array.
// Safe to call repeatedly; already-exported tracer spans are not duplicated.
func (t *Telemetry) WriteTimeline(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	t.mu.Lock()
	tl := t.timeline
	var fresh []obs.Span
	if tl != nil {
		spans := t.tracer.Spans()
		fresh = spans[t.spansAdded:]
		t.spansAdded = len(spans)
	}
	t.mu.Unlock()
	tl.AddSpans("run", fresh)
	return tl.WriteTraceEvents(w)
}

// WriteProm exports every metric in the Prometheus text format.
func (t *Telemetry) WriteProm(w io.Writer) error {
	if t == nil {
		return nil
	}
	return obs.WriteProm(w, t.reg)
}

// WriteTimelineFile writes WriteTimeline's export to a new file at path. A
// no-op on a nil handle or an empty path: callers pass what their flag held.
func (t *Telemetry) WriteTimelineFile(path string) error {
	return t.writeFile(path, t.WriteTimeline)
}

func (t *Telemetry) writeFile(path string, write func(io.Writer) error) error {
	if t == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteJSON exports a registry snapshot as indented JSON.
func (t *Telemetry) WriteJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	return obs.WriteJSON(w, t.reg)
}

// Serve starts an HTTP listener (":0" picks a free port) exposing /metrics,
// /metrics.json and /progress, plus the net/http/pprof handlers under
// /debug/pprof/ when pprof is set, and returns the bound address. The server
// runs until Close.
func (t *Telemetry) Serve(addr string, pprof bool) (string, error) {
	if t == nil {
		return "", fmt.Errorf("commprof: Serve on nil Telemetry")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.server != nil {
		return "", fmt.Errorf("commprof: telemetry server already running on %s", t.server.Addr())
	}
	srv, err := obs.Serve(addr, t.reg, t.tracer, func() any { return t.Progress() }, pprof)
	if err != nil {
		return "", err
	}
	t.server = srv
	return srv.Addr(), nil
}

// Close stops the HTTP server if one is running.
func (t *Telemetry) Close() error {
	if t == nil {
		return nil
	}
	t.stopTicker()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.server == nil {
		return nil
	}
	err := t.server.Close()
	t.server = nil
	return err
}

// ProgressSnapshot is a live view of a run in flight, served at /progress.
type ProgressSnapshot struct {
	// Phase is the pipeline phase currently open in the tracer
	// (workload-setup, engine-run, tree-build, report), or "" when idle.
	Phase string `json:"phase"`
	// ElapsedSeconds is wall time since the run was wired.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Clock is the engine's logical time.
	Clock uint64 `json:"clock"`
	// Accesses is the number of accesses the detector has consumed. The
	// detector publishes its counters once per batch, so mid-run this (and
	// Dependencies, CommBytes) trails the program: by at most three
	// 1 024-access quanta on an engine source, by the decoded blocks in
	// flight on Replay, or by a shard hand-off.
	Accesses uint64 `json:"accesses"`
	// AccessesPerSec is detection throughput: Accesses / ElapsedSeconds.
	AccessesPerSec float64 `json:"accesses_per_sec"`
	// Dependencies and CommBytes mirror the detector's running totals.
	Dependencies uint64 `json:"dependencies"`
	CommBytes    uint64 `json:"comm_bytes"`
	// PerThread is each simulated thread's instrumented access count.
	PerThread []uint64 `json:"per_thread,omitempty"`
	// BarrierEpochs counts completed barrier episodes.
	BarrierEpochs uint64 `json:"barrier_epochs"`
	// SkippedReads counts reads the sampler bypassed (0 without sampling).
	SkippedReads uint64 `json:"skipped_reads"`
	// ShardDepths is each analysis shard's live queue depth; nil unless the
	// run uses the sharded pipeline (Options.AnalysisShards).
	ShardDepths []int `json:"shard_depths,omitempty"`
	// SigOccupancy describes signature saturation: the fraction of slots
	// whose reader set is non-empty, the detectors' own exact count as of
	// their last batch.
	SigOccupancy float64 `json:"sig_occupancy"`
	// RedundancyHitRate is the live fraction of accesses the redundancy
	// fast path skipped (0 when the cache is off).
	RedundancyHitRate float64 `json:"redundancy_hit_rate"`
	// AccuracySampled counts accesses the shadow-sampling accuracy monitor
	// has paired with exact verdicts (0 when the monitor is off).
	AccuracySampled uint64 `json:"accuracy_sampled"`
	// AccuracyEstimatedFPR is the live signature false-positive estimate,
	// bracketed by its 95% Wilson interval (all 0/[0,1] before the sampled
	// slice sees any signature events; absent semantics match the monitor).
	AccuracyEstimatedFPR float64 `json:"accuracy_estimated_fpr"`
	AccuracyFPRLow       float64 `json:"accuracy_fpr_low"`
	AccuracyFPRHigh      float64 `json:"accuracy_fpr_high"`
	// AccuracyDesignEffect measures granule-level clustering of the false
	// positives (1 = independent verdicts); the clustered bounds widen the
	// Wilson interval by that factor's worth of lost trials.
	AccuracyDesignEffect     float64 `json:"accuracy_design_effect,omitempty"`
	AccuracyFPRLowClustered  float64 `json:"accuracy_fpr_low_clustered,omitempty"`
	AccuracyFPRHighClustered float64 `json:"accuracy_fpr_high_clustered,omitempty"`
	// AccuracyAlarm is the warn-once saturation message, "" while healthy.
	AccuracyAlarm string `json:"accuracy_alarm,omitempty"`
	// CurrentPattern is the live whole-program pattern class of the most
	// recently closed phase window ("" before the first window closes), with
	// CurrentPatternConfidence its classifier confidence. Present only when
	// the run uses Options.PhaseWindow with telemetry.
	CurrentPattern           string  `json:"current_pattern,omitempty"`
	CurrentPatternConfidence float64 `json:"current_pattern_confidence,omitempty"`
	// PhaseWindowsClosed / PhaseTransitions count closed phase windows and
	// whole-program pattern changes so far.
	PhaseWindowsClosed uint64 `json:"phase_windows_closed,omitempty"`
	PhaseTransitions   uint64 `json:"phase_transitions,omitempty"`
	// RecentWindowClasses is the pattern class of the last few closed
	// windows, oldest first.
	RecentWindowClasses []string `json:"recent_window_classes,omitempty"`
	// LoopPatterns is the live classification of the hottest communicating
	// loops, hottest first.
	LoopPatterns []LoopPatternStatus `json:"loop_patterns,omitempty"`
	// Stages is the live per-stage latency table: one row per pipeline stage
	// that has recorded observations (decode, queue wait, producer, batch
	// service, drain, window, merge). Quantiles are upper bounds of the log2
	// histogram buckets, so they are ≤2× overestimates.
	Stages []StageLatency `json:"stages,omitempty"`
}

// StageLatency is one pipeline stage's latency digest in a ProgressSnapshot.
type StageLatency struct {
	Stage     string  `json:"stage"`
	Count     uint64  `json:"count"`
	MeanNanos float64 `json:"mean_nanos"`
	P50Nanos  uint64  `json:"p50_nanos"`
	P99Nanos  uint64  `json:"p99_nanos"`
}

// stageMetrics maps /progress stage rows to their registry histograms, in
// pipeline order.
var stageMetrics = []struct{ stage, metric string }{
	{"decode", "stage_decode_nanos"},
	{"queue_wait", "stage_queue_wait_nanos"},
	{"producer", "stage_producer_nanos"},
	{"batch_service", "stage_batch_service_nanos"},
	{"drain", "stage_drain_nanos"},
	{"window", "stage_window_nanos"},
	{"merge", "stage_merge_nanos"},
}

// histQuantile reads the q-quantile's bucket upper bound from a cumulative
// log2 histogram snapshot.
func histQuantile(s obs.HistogramSnapshot, q float64) uint64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	for _, b := range s.Buckets {
		if b.Count >= target {
			return b.UpperBound
		}
	}
	return s.Buckets[len(s.Buckets)-1].UpperBound
}

// stageLatencies builds the live stage table from the registry's stage
// histograms; stages with no observations are omitted.
func (t *Telemetry) stageLatencies() []StageLatency {
	if t == nil {
		return nil
	}
	var out []StageLatency
	for _, sm := range stageMetrics {
		s := t.reg.Histogram(sm.metric).Snapshot()
		if s.Count == 0 {
			continue
		}
		out = append(out, StageLatency{
			Stage:     sm.stage,
			Count:     s.Count,
			MeanNanos: float64(s.Sum) / float64(s.Count),
			P50Nanos:  histQuantile(s, 0.5),
			P99Nanos:  histQuantile(s, 0.99),
		})
	}
	return out
}

// LoopPatternStatus is one hot loop's live pattern classification in a
// ProgressSnapshot: its latest closed-window class and the communication it
// has accumulated so far.
type LoopPatternStatus struct {
	Region     string  `json:"region"`
	Class      string  `json:"class"`
	Confidence float64 `json:"confidence"`
	Bytes      uint64  `json:"bytes"`
	Windows    uint64  `json:"windows"`
}

// Progress returns a point-in-time snapshot of the current (or last) run.
// Before any run is wired it returns the zero snapshot.
func (t *Telemetry) Progress() ProgressSnapshot {
	if t == nil {
		return ProgressSnapshot{}
	}
	if fn, ok := t.progress.Load().(func() ProgressSnapshot); ok {
		return fn()
	}
	return ProgressSnapshot{Phase: t.tracer.Current()}
}

// SpanReport is one finished pipeline phase in Report.Telemetry.
type SpanReport struct {
	Name       string
	WallNanos  int64
	StartClock uint64
	EndClock   uint64
}

// TelemetryReport is the end-of-run self-observability section of a Report.
type TelemetryReport struct {
	// Counters, Gauges and Histograms snapshot the metrics registry (gauge
	// functions evaluated at snapshot time).
	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]obs.HistogramSnapshot
	// Spans are the pipeline phases in completion order.
	Spans []SpanReport
}

// report snapshots the registry and tracer into the public report section.
func (t *Telemetry) report() *TelemetryReport {
	if t == nil {
		return nil
	}
	s := t.reg.Snapshot()
	rep := &TelemetryReport{Counters: s.Counters, Gauges: s.Gauges, Histograms: s.Histograms}
	for _, sp := range t.tracer.Spans() {
		rep.Spans = append(rep.Spans, SpanReport{
			Name: sp.Name, WallNanos: sp.WallNanos,
			StartClock: sp.StartClock, EndClock: sp.EndClock,
		})
	}
	return rep
}

// Probes returns the per-layer hook bundle for this handle; on a nil handle
// it is the zero bundle, so callers can unconditionally write
// opts.Probes = tel.Probes().Sig etc.
func (t *Telemetry) Probes() obs.Probes {
	if t == nil {
		return obs.Probes{}
	}
	return t.bundle
}

// overheadBaseline is the stage/overhead totals at run wiring. The registry
// accumulates across runs on a reused handle, so per-run attribution is the
// delta against this snapshot.
type overheadBaseline struct {
	decode, queue, service, window, merge uint64
	redun, shadow                         uint64
}

// markOverheadBaseline snapshots the current stage totals; wireRun calls it
// so finishRun attributes only this run's time.
func (t *Telemetry) markOverheadBaseline() {
	if t == nil {
		return
	}
	st, ov := t.bundle.Stage, t.bundle.Overhead
	t.ovhMu.Lock()
	t.ovhBase = overheadBaseline{
		decode:  st.Decode.Sum(),
		queue:   st.Producer.Sum(),
		service: st.BatchService.Sum(),
		window:  st.Window.Sum(),
		merge:   st.Merge.Sum(),
		redun:   ov.RedundancyNanos.Value(),
		shadow:  ov.ShadowNanos.Value(),
	}
	t.ovhMu.Unlock()
}

// overheadReport decomposes this run's wall time into the profiler's own
// analysis stages. The bucket sum uses only the exact batch-granularity
// measurements (decode + queue + batch service + window + merge); the
// sampled redundancy/shadow estimates merely split batch service into its
// signature / redundancy / shadow components and are clamped so the
// signature residual never goes negative. Returns nil when no stage recorded
// anything (synthetic runs without the instrumented replay/pipeline paths).
func (t *Telemetry) overheadReport() *OverheadReport {
	if t == nil {
		return nil
	}
	st, ov := t.bundle.Stage, t.bundle.Overhead
	t.ovhMu.Lock()
	base := t.ovhBase
	t.ovhMu.Unlock()
	decode := st.Decode.Sum() - base.decode
	queue := st.Producer.Sum() - base.queue
	service := st.BatchService.Sum() - base.service
	window := st.Window.Sum() - base.window
	merge := st.Merge.Sum() - base.merge
	attributed := decode + queue + service + window + merge
	if attributed == 0 {
		return nil
	}
	redun := ov.RedundancyNanos.Value() - base.redun
	shadow := ov.ShadowNanos.Value() - base.shadow
	if split := redun + shadow; split > service {
		scale := float64(service) / float64(split)
		redun = uint64(float64(redun) * scale)
		shadow = uint64(float64(shadow) * scale)
	}
	start, _ := t.start.Load().(time.Time)
	wall := uint64(time.Since(start))
	rep := &OverheadReport{
		EngineWallNanos: wall,
		DecodeNanos:     decode,
		QueueNanos:      queue,
		SignatureNanos:  service - redun - shadow,
		RedundancyNanos: redun,
		ShadowNanos:     shadow,
		WindowNanos:     window,
		MergeNanos:      merge,
		AttributedNanos: attributed,
	}
	if wall > 0 {
		rep.AttributedShare = float64(attributed) / float64(wall)
	}
	return rep
}

// runTick returns what the run's ticker runs. Every tick feeds the saturation
// alarm (a no-op on an unmonitored run) and advances the windowed phase
// layer — closing each window now wholly below the analyser's progress
// frontier and emitting it to the live classification layer; closing is
// exactly-once and in order whatever the tick timing, and the engine's Close
// flushes what remains, so end-of-run counters are tick-independent (a no-op
// without PhaseWindow). With the timeline on it
// also samples the counter tracks: per-shard queue depth, redundancy hit rate
// and the live FPR estimate, plus a one-shot instant the first time the
// accuracy alarm trips.
func (t *Telemetry) runTick(pe *pipeline.Engine) func() {
	tl := t.Timeline()
	if tl == nil {
		return func() {
			pe.EvaluateAccuracy()
			pe.AdvancePhases()
		}
	}
	ctr := tl.Track("counters")
	alarmSeen := false
	return func() {
		pe.EvaluateAccuracy()
		pe.AdvancePhases()
		for i := 0; i < pe.Shards(); i++ {
			ctr.Counter(fmt.Sprintf("queue_depth_shard_%d", i), float64(pe.ShardDepth(i)))
		}
		if rst, ok := pe.RedundancyStats(); ok {
			ctr.Counter("redundancy_hit_rate", rst.HitRate())
		}
		if est, ok := pe.AccuracyEstimate(); ok {
			ctr.Counter("live_fpr", est.EstimatedFPR)
		}
		if !alarmSeen {
			if _, tripped := pe.AccuracyAlarm(); tripped {
				alarmSeen = true
				ctr.Instant("accuracy-alarm")
			}
		}
	}
}

// Span opens a phase on the run tracer, closed by the handle's End; nil-safe.
// Finished phases show in /progress and on WriteTimeline's "run" track.
func (t *Telemetry) Span(name string) *obs.SpanHandle {
	if t == nil {
		return nil
	}
	return t.tracer.Start(name)
}

// wireRun binds the live-introspection sources (gauge functions, the
// /progress snapshot, the periodic ticker) to one run's analyser: aggregate
// throughput and signature-saturation gauges, one depth gauge per shard
// (pipeline_shard_<i>_depth; none in-thread), and the sampling gate's skipped
// reads. eng may be nil: offline sources have no simulated-thread engine, so
// the executor gauges stay unbound and the logical clock reads 0. Everything
// here reads the analysis engine's merged state, which stays valid after
// Close, so a post-run scrape (or the Report.Telemetry snapshot) sees the
// final values rather than zeros. Call before the source starts.
func (t *Telemetry) wireRun(eng *exec.Engine, an *analysis) {
	if t == nil {
		return
	}
	pe := an.pe
	start := time.Now()
	t.start.Store(start)
	t.markOverheadBaseline()
	reg := t.reg
	if eng != nil {
		t.tracer.SetClock(eng.Clock)
		t.Timeline().SetClock(eng.Clock)
		reg.GaugeFunc("exec_logical_clock", func() float64 { return float64(eng.Clock()) })
		reg.GaugeFunc("exec_barrier_epochs", func() float64 { return float64(eng.BarrierEpochs()) })
	}
	reg.GaugeFunc("detect_accesses_processed", func() float64 { return float64(pe.Stats().Processed) })
	reg.GaugeFunc("detect_comm_bytes", func() float64 { return float64(pe.Stats().CommBytes) })
	reg.GaugeFunc("detect_accesses_per_sec", func() float64 {
		elapsed := time.Since(start).Seconds()
		if elapsed <= 0 {
			return 0
		}
		return float64(pe.Stats().Processed) / elapsed
	})
	reg.GaugeFunc("sig_slot_occupancy", pe.Occupancy)
	reg.GaugeFunc("sig_footprint_bytes", func() float64 { return float64(pe.SigFootprintBytes()) })
	if _, ok := pe.RedundancyStats(); ok {
		reg.GaugeFunc("redundancy_hit_rate", func() float64 {
			st, _ := pe.RedundancyStats()
			return st.HitRate()
		})
	}
	if an.gate != nil {
		reg.GaugeFunc("detect_sampler_skipped_reads", func() float64 { return float64(an.skipped.Load()) })
	}
	for i := 0; i < pe.Shards(); i++ {
		i := i
		reg.GaugeFunc(fmt.Sprintf("pipeline_shard_%d_depth", i), func() float64 {
			return float64(pe.ShardDepth(i))
		})
	}
	if _, monitored := pe.AccuracyStats(); monitored {
		reg.GaugeFunc("accuracy_estimated_fpr", func() float64 {
			est, _ := pe.AccuracyEstimate()
			return est.EstimatedFPR
		})
	}
	t.startTicker(t.runTick(pe))
	t.progress.Store(func() ProgressSnapshot {
		st := pe.Stats()
		elapsed := time.Since(start).Seconds()
		rate := 0.0
		if elapsed > 0 {
			rate = float64(st.Processed) / elapsed
		}
		var depths []int
		for i := 0; i < pe.Shards(); i++ {
			depths = append(depths, pe.ShardDepth(i))
		}
		rst, _ := pe.RedundancyStats() // zero stats, rate 0, when the cache is off
		snap := ProgressSnapshot{
			Phase:          t.tracer.Current(),
			ElapsedSeconds: elapsed,
			Accesses:       st.Processed,
			AccessesPerSec: rate,
			Dependencies:   st.Detected,
			CommBytes:      st.CommBytes,
			SkippedReads:   an.skipped.Load(),
			ShardDepths:    depths,
			SigOccupancy:   pe.Occupancy(),

			RedundancyHitRate: rst.HitRate(),
			Stages:            t.stageLatencies(),
		}
		if eng != nil {
			snap.Clock = eng.Clock()
			snap.PerThread = eng.ThreadProgress()
			snap.BarrierEpochs = eng.BarrierEpochs()
		}
		if est, ok := pe.AccuracyEstimate(); ok {
			snap.AccuracySampled = est.SampledAccesses
			snap.AccuracyEstimatedFPR = est.EstimatedFPR
			snap.AccuracyFPRLow, snap.AccuracyFPRHigh = est.FPRLow, est.FPRHigh
			snap.AccuracyDesignEffect = est.DesignEffect
			snap.AccuracyFPRLowClustered, snap.AccuracyFPRHighClustered = est.FPRLowClustered, est.FPRHighClustered
			snap.AccuracyAlarm, _ = pe.AccuracyAlarm()
		}
		return snap
	})
}

// wirePhases binds the live phase-observability surfaces to one run: the
// current-pattern gauges, per-class closed-window gauges and the /progress
// phase fields (wrapping the base snapshot wireRun stored). Call after
// wireRun, whose periodic ticker drives the window closing.
func (t *Telemetry) wirePhases(lp *metrics.LivePhases, regionName func(int32) string) {
	if t == nil || lp == nil {
		return
	}
	reg := t.reg
	reg.GaugeFunc("comm_current_pattern", func() float64 {
		cur, ok := lp.Current()
		if !ok {
			return -1
		}
		return float64(cur.Class)
	})
	reg.GaugeFunc("comm_current_pattern_confidence", func() float64 {
		cur, ok := lp.Current()
		if !ok {
			return 0
		}
		return cur.Confidence
	})
	for c := patterns.Class(0); c < patterns.NumClasses; c++ {
		c := c
		name := "comm_pattern_windows_" + strings.ReplaceAll(c.String(), "-", "_")
		reg.GaugeFunc(name, func() float64 { return float64(lp.ClassCounts()[c]) })
	}
	prev, _ := t.progress.Load().(func() ProgressSnapshot)
	t.progress.Store(func() ProgressSnapshot {
		var snap ProgressSnapshot
		if prev != nil {
			snap = prev()
		} else {
			snap.Phase = t.tracer.Current()
		}
		s := lp.Snapshot(phaseMaxLoops)
		snap.PhaseWindowsClosed = s.WindowsClosed
		snap.PhaseTransitions = s.Transitions
		if s.HasCurrent {
			snap.CurrentPattern = s.Current.Class.String()
			snap.CurrentPatternConfidence = s.Current.Confidence
		}
		for _, wc := range s.Recent {
			snap.RecentWindowClasses = append(snap.RecentWindowClasses, wc.Class.String())
		}
		for _, l := range s.Loops {
			snap.LoopPatterns = append(snap.LoopPatterns, LoopPatternStatus{
				Region: regionName(l.Region), Class: l.Class.String(),
				Confidence: l.Confidence, Bytes: l.Bytes, Windows: l.Windows,
			})
		}
		return snap
	})
}

// finishRun stops the ticker, records end-of-run structure gauges and
// attaches the snapshot — plus the overhead self-attribution, when any stage
// recorded time — to the report.
func (t *Telemetry) finishRun(rep *Report, tree *comm.Tree) {
	if t == nil {
		return
	}
	t.stopTicker()
	t.reg.Gauge("comm_tree_nodes").Set(float64(tree.NodeCount()))
	t.reg.Gauge("comm_matrix_nnz").Set(float64(tree.Global.NonZeroCells()))
	rep.Telemetry = t.report()
	rep.Overhead = t.overheadReport()
}
