package commprof

import (
	"fmt"
	"strings"

	"commprof/internal/accuracy"
	"commprof/internal/comm"
	"commprof/internal/patterns"
	"commprof/internal/redundancy"
)

// Matrix is the public communication matrix: Bytes[src][dst] holds the bytes
// thread dst read that thread src last wrote.
type Matrix struct {
	N     int
	Bytes [][]uint64
}

func fromInternal(m *comm.Matrix) Matrix {
	return Matrix{N: m.N(), Bytes: m.Rows()}
}

func (m Matrix) toInternal() (*comm.Matrix, error) {
	if len(m.Bytes) != m.N {
		return nil, fmt.Errorf("commprof: matrix declares N=%d but has %d rows", m.N, len(m.Bytes))
	}
	for i, row := range m.Bytes {
		if len(row) != m.N {
			return nil, fmt.Errorf("commprof: matrix row %d has %d columns, want %d", i, len(row), m.N)
		}
	}
	return comm.FromRows(m.Bytes)
}

// Total returns the summed communication volume in bytes.
func (m Matrix) Total() uint64 {
	var t uint64
	for _, row := range m.Bytes {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// ThreadLoad computes the paper's Eq. 1 per-thread load vector:
// row sum / thread count.
func (m Matrix) ThreadLoad() []float64 {
	out := make([]float64, m.N)
	for s, row := range m.Bytes {
		var sum uint64
		for _, v := range row {
			sum += v
		}
		out[s] = float64(sum) / float64(m.N)
	}
	return out
}

// Heatmap renders the matrix as an ASCII intensity map.
func (m Matrix) Heatmap() string {
	im, err := m.toInternal()
	if err != nil {
		return fmt.Sprintf("<invalid matrix: %v>", err)
	}
	return im.Heatmap()
}

// CSV renders the matrix as comma-separated rows.
func (m Matrix) CSV() string {
	var b strings.Builder
	for _, row := range m.Bytes {
		for j, v := range row {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RegionReport is one node of the nested communication structure, in
// depth-first order.
type RegionReport struct {
	// Name labels the region. Synthetic workloads use bare kernel names
	// ("daxpy#1"); regions from instrumented real sources append the source
	// position, e.g. "worker pool.go:42".
	Name string
	// File/Line locate the region in real source (instrumented programs
	// only; empty for synthetic workloads).
	File            string `json:",omitempty"`
	Line            int    `json:",omitempty"`
	Kind            string // "func" or "loop"
	Depth           int
	Accesses        uint64
	OwnBytes        uint64 // traffic attributed directly to the region
	CumulativeBytes uint64 // own + all children (the paper's summation law)
	Matrix          Matrix // cumulative matrix
}

// HotspotReport ranks a loop by its share of total communication and carries
// its Eq. 1 load vector.
type HotspotReport struct {
	Region        string
	Bytes         uint64
	Share         float64
	Load          []float64
	ActiveThreads int
	BalanceIndex  float64
}

// PipelineReport describes the sharded analysis engine of a run profiled
// with Options.AnalysisShards > 0.
type PipelineReport struct {
	// Shards is the analysis shard count K.
	Shards int
	// ProducerFlushes counts the engine's staging-buffer flushes; the total
	// enqueued access count over this is the realised enqueue amortization
	// factor.
	ProducerFlushes uint64
	// PeakResidentAccesses is the peak number of access records the analyser
	// held in flight (shard queue peaks plus the staging peak) — the
	// O(queue depth) bound streaming replay keeps resident instead of the
	// whole trace.
	PeakResidentAccesses int
	// PeakDepths is each shard's maximum observed queue depth — how close
	// the run came to its capacity bound.
	PeakDepths []int
	// ShardProcessed is each shard's analysed access count: the address-hash
	// load balance across shards.
	ShardProcessed []uint64
}

// RedundancyReport describes the redundancy-filtering fast path of a run
// profiled with Options.RedundancyCacheBits > 0. HitRate is the headline
// number: the fraction of accesses that skipped the signature backend
// entirely.
type RedundancyReport struct {
	// CacheBits is log2 of each consumer cache's entry count.
	CacheBits uint
	// Hits counts accesses skipped as provably redundant.
	Hits uint64
	// Misses counts accesses forwarded to the signature backend.
	Misses uint64
	// Evictions counts direct-mapped index collisions that displaced a
	// resident granule — the signal that CacheBits is undersized for the
	// working set.
	Evictions uint64
	// HitRate is Hits / (Hits + Misses).
	HitRate float64
}

// CoalescingReport summarises the static access-coalescing pass of a MiniPar
// run (internal/passes.Coalesce): how many probes the compiler marked, and
// how many dynamic accesses consequently never reached the analysis backend.
type CoalescingReport struct {
	// StaticElided counts probe sites marked redundant on every execution.
	StaticElided int
	// StaticOnce counts probe sites marked once-per-loop-entry: they fire on
	// the first iteration and are elided on the rest.
	StaticOnce int
	// Elided counts dynamic accesses that executed through the elided path
	// (clock and counters ticked, no probe fired).
	Elided uint64
	// Emitted counts dynamic accesses whose probes reached the analyser.
	Emitted uint64
	// Regions lists per-region elided counts, largest first.
	Regions []CoalescingRegion
}

// CoalescingRegion is one region's share of the elided accesses.
type CoalescingRegion struct {
	Region string
	Elided uint64
}

// ElisionRate is Elided / (Elided + Emitted), the emitted-access reduction.
func (c *CoalescingReport) ElisionRate() float64 {
	if total := c.Elided + c.Emitted; total > 0 {
		return float64(c.Elided) / float64(total)
	}
	return 0
}

func redundancyReport(st redundancy.Stats) *RedundancyReport {
	return &RedundancyReport{
		CacheBits: st.Bits,
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		HitRate:   st.HitRate(),
	}
}

// AccuracyReport describes the online signature-accuracy monitor of a run
// profiled with Options.AccuracyTargetFPR > 0: the live counterpart of the
// paper's offline §V-A3 false-positive sweep. EstimatedFPR is the headline
// number; at AccuracySampleBits 0 it equals the offline exact-diff FPR for
// the same signature configuration.
type AccuracyReport struct {
	// SampleBits / SampleFraction describe the shadowed slice of the granule
	// address space (1/2^SampleBits of all granules, whole granules only).
	SampleBits     uint
	SampleFraction float64
	// TargetFPR is the acceptable false-positive rate the run was asked to
	// watch for.
	TargetFPR float64
	// SampledAccesses counts accesses that reached the exact shadow;
	// SampledGranules the distinct granules it tracked.
	SampledAccesses uint64
	SampledGranules uint64
	// SigEvents counts production communicating-access verdicts inside the
	// slice; Confirmed/FalsePositives split them by the shadow's judgement,
	// and MissedEvents counts exact dependencies the signature never
	// reported (false negatives).
	SigEvents      uint64
	Confirmed      uint64
	FalsePositives uint64
	MissedEvents   uint64
	// EstimatedFPR is FalsePositives / SigEvents, bracketed by the 95%
	// Wilson interval [FPRLow, FPRHigh].
	EstimatedFPR    float64
	FPRLow, FPRHigh float64
	// DesignEffect quantifies granule-level clustering of false positives:
	// SigEvents divided by the cluster-robust effective trial count. 1 means
	// verdicts behave independently; larger values mean false positives
	// arrive in per-granule bursts and the plain Wilson interval is too
	// narrow. [FPRLowClustered, FPRHighClustered] is the Wilson interval at
	// the effective trial count — the honest bracket under clustering.
	DesignEffect                      float64
	FPRLowClustered, FPRHighClustered float64
	// EstimatedWorkingSet extrapolates the run's distinct-granule count from
	// the sampled slice.
	EstimatedWorkingSet uint64
	// ShadowBytes is the memory the exact shadow held.
	ShadowBytes uint64
	// CurrentSlots/RecommendedSlots/RecommendedBytes are the advisor: the
	// signature size that would bring the measured FPR down to TargetFPR,
	// priced at the run's own bytes per slot (Report.SignatureBytes over
	// CurrentSlots).
	CurrentSlots     uint64
	RecommendedSlots uint64
	RecommendedBytes uint64
	// Alarm carries the warn-once saturation message, "" when none fired.
	Alarm string `json:",omitempty"`
}

func accuracyReport(est accuracy.Estimate, rec accuracy.Recommendation, shadowBytes uint64, alarm string) *AccuracyReport {
	return &AccuracyReport{
		SampleBits:          est.SampleBits,
		SampleFraction:      est.SampleFraction,
		TargetFPR:           est.TargetFPR,
		SampledAccesses:     est.SampledAccesses,
		SampledGranules:     est.SampledGranules,
		SigEvents:           est.SigEvents,
		Confirmed:           est.Confirmed,
		FalsePositives:      est.FalsePositives,
		MissedEvents:        est.MissedEvents,
		EstimatedFPR:        est.EstimatedFPR,
		FPRLow:              est.FPRLow,
		FPRHigh:             est.FPRHigh,
		DesignEffect:        est.DesignEffect,
		FPRLowClustered:     est.FPRLowClustered,
		FPRHighClustered:    est.FPRHighClustered,
		EstimatedWorkingSet: est.EstimatedWorkingSet,
		ShadowBytes:         shadowBytes,
		CurrentSlots:        rec.CurrentSlots,
		RecommendedSlots:    rec.RecommendedSlots,
		RecommendedBytes:    rec.RecommendedBytes,
		Alarm:               alarm,
	}
}

// OverheadReport decomposes a run's wall time into the profiler's own
// analysis stages — where the slowdown the paper's Fig. 4 measures actually
// goes. Decode, Queue, Window and Merge come from exact per-batch timings;
// BatchService time (the shard workers' detector time) is split into
// Signature, Redundancy and Shadow using a 1-in-256 sampled sub-timing, with
// the sampled estimates clamped so the split always sums to the measured
// batch-service total. BatchService is timed per batch — by the shard
// workers, and in-thread by the analyser goroutine that hands the detector
// each quantum, whatever the source.
type OverheadReport struct {
	// EngineWallNanos is wall time from run wiring to report build. With K
	// shard workers, or the analyser goroutine beside every source, the
	// attributed stage time can legitimately exceed it (the buckets sum
	// across goroutines).
	EngineWallNanos uint64
	// DecodeNanos is trace decode time (Decoder.NextBatch). On Replay it is
	// spent on the caller's goroutine and overlaps the analyser's stages.
	DecodeNanos uint64
	// QueueNanos is producer-side time: staging, routing and enqueueing into
	// the shard queues, including time blocked on a full queue.
	QueueNanos uint64
	// SignatureNanos is detector time not attributed to the redundancy cache
	// or accuracy shadow: signature queries/updates, matrices, region
	// attribution.
	SignatureNanos uint64
	// RedundancyNanos / ShadowNanos are the sampled shares of detector time
	// spent in the redundancy fast path and the accuracy monitor's exact
	// shadow.
	RedundancyNanos uint64
	ShadowNanos     uint64
	// WindowNanos is phase-window flush and advance time.
	WindowNanos uint64
	// MergeNanos is end-of-run shard merge and tree-build time.
	MergeNanos uint64
	// AttributedNanos sums the exactly-measured buckets (decode + queue +
	// batch service + window + merge); AttributedShare divides it by
	// EngineWallNanos, so it can exceed 1 on Replay, on ProfileTrace, on
	// engine sources and at K > 0.
	AttributedNanos uint64
	AttributedShare float64
}

// PhaseReport is one detected communication phase (§V-A4).
type PhaseReport struct {
	Start, End uint64 // logical-time interval
	Matrix     Matrix
}

// PhaseWindowReport is one classified window of the phase timeline: the
// fixed-length logical-time bucket, its §VI pattern class, the classifier's
// confidence and the communicated volume.
type PhaseWindowReport struct {
	Start, End uint64
	Class      string
	Confidence float64
	Bytes      uint64
}

// PhaseTransitionReport marks a whole-program pattern change between two
// consecutive windows; At is the start of the window that introduced the new
// class.
type PhaseTransitionReport struct {
	At       uint64
	From, To string
}

// LoopTimelineReport aggregates one loop region's windowed communication:
// its summed-matrix pattern class, total volume and the number of windows in
// which it communicated.
type LoopTimelineReport struct {
	Region  string
	Class   string
	Bytes   uint64
	Windows int
}

// PhaseTimelineReport is the classified phase timeline of a run profiled
// with Options.PhaseWindow: every window of the run in time order with its
// live pattern classification, the whole-program pattern transitions, and a
// per-hot-loop digest. It is a deterministic function of the merged window
// set, so in-thread and sharded analysis produce identical timelines.
type PhaseTimelineReport struct {
	WindowSize  uint64
	Windows     []PhaseWindowReport
	Transitions []PhaseTransitionReport `json:",omitempty"`
	Loops       []LoopTimelineReport    `json:",omitempty"`
}

// Report is the result of one profiling run.
type Report struct {
	Workload       string
	Threads        int
	Accesses       uint64
	Dependencies   uint64 // inter-thread RAW dependencies detected
	CommBytes      uint64
	SignatureBytes uint64 // profiler analysis memory actually held
	// SampleFraction is the analysed fraction of reads (1.0 without
	// sampling); detected volumes scale by roughly this factor.
	SampleFraction float64
	Global         Matrix
	Regions        []RegionReport
	Hotspots       []HotspotReport
	Phases         []PhaseReport
	// PhaseTimeline is the classified phase timeline. Nil unless the run used
	// Options.PhaseWindow.
	PhaseTimeline *PhaseTimelineReport `json:",omitempty"`
	// Pipeline describes the sharded analysis engine. Nil on in-thread runs
	// (Options.AnalysisShards 0).
	Pipeline *PipelineReport `json:",omitempty"`
	// Redundancy describes the redundancy-filtering fast path. Nil unless
	// the run used Options.RedundancyCacheBits.
	Redundancy *RedundancyReport `json:",omitempty"`
	// Coalescing describes the static access-coalescing pass. Nil except on
	// MiniPar runs with the pass enabled (the default; see
	// Options.DisableCoalesce).
	Coalescing *CoalescingReport `json:",omitempty"`
	// Accuracy is the online signature-accuracy estimate. Nil unless the run
	// used Options.AccuracyTargetFPR.
	Accuracy *AccuracyReport `json:",omitempty"`
	// Telemetry is the self-observability snapshot of the run (metric
	// counters/gauges/histograms plus pipeline-phase spans). Nil unless
	// Options.Telemetry was set.
	Telemetry *TelemetryReport `json:",omitempty"`
	// Overhead decomposes the run's wall time into the profiler's own
	// analysis stages. Nil unless Options.Telemetry was set.
	Overhead *OverheadReport `json:",omitempty"`
}

// Summary renders a human-readable overview. Under read sampling it ends
// with a note that the volumes are scaled down.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s: %d threads, %d accesses, %d inter-thread RAW deps, %d bytes communicated\n",
		r.Workload, r.Threads, r.Accesses, r.Dependencies, r.CommBytes)
	fmt.Fprintf(&b, "profiler memory: %.1f KB\n", float64(r.SignatureBytes)/1024)
	if p := r.Pipeline; p != nil {
		fmt.Fprintf(&b, "sharded analysis: %d shards\n", p.Shards)
		fmt.Fprintf(&b, "peak resident accesses: %d (%d producer flushes)\n",
			p.PeakResidentAccesses, p.ProducerFlushes)
	}
	if rd := r.Redundancy; rd != nil {
		fmt.Fprintf(&b, "redundancy fast path: 2^%d entries, %.1f%% of accesses skipped (%d hits, %d misses, %d evictions)\n",
			rd.CacheBits, 100*rd.HitRate, rd.Hits, rd.Misses, rd.Evictions)
	}
	if c := r.Coalescing; c != nil {
		fmt.Fprintf(&b, "static coalescing: %d+%d probes marked (always+once), %.1f%% of accesses elided (%d of %d)\n",
			c.StaticElided, c.StaticOnce, 100*c.ElisionRate(), c.Elided, c.Elided+c.Emitted)
		for _, reg := range c.Regions {
			fmt.Fprintf(&b, "  %s: %d elided\n", reg.Region, reg.Elided)
		}
	}
	if o := r.Overhead; o != nil {
		fmt.Fprintf(&b, "overhead attribution: %.1f%% of %.1fms wall attributed — decode %.1fms, queue %.1fms, signature %.1fms, redundancy %.1fms, shadow %.1fms, window %.1fms, merge %.1fms\n",
			100*o.AttributedShare, float64(o.EngineWallNanos)/1e6,
			float64(o.DecodeNanos)/1e6, float64(o.QueueNanos)/1e6,
			float64(o.SignatureNanos)/1e6, float64(o.RedundancyNanos)/1e6,
			float64(o.ShadowNanos)/1e6, float64(o.WindowNanos)/1e6,
			float64(o.MergeNanos)/1e6)
	}
	if a := r.Accuracy; a != nil {
		fmt.Fprintf(&b, "accuracy monitor: 1/%d of granules shadowed (%d accesses, %d sig events), estimated FPR %.2f%% (95%% CI %.2f–%.2f%%), target %.2f%%, recommended slots %d (%.1f KB)\n",
			uint64(1)<<a.SampleBits, a.SampledAccesses, a.SigEvents,
			100*a.EstimatedFPR, 100*a.FPRLow, 100*a.FPRHigh, 100*a.TargetFPR,
			a.RecommendedSlots, float64(a.RecommendedBytes)/1024)
		if a.DesignEffect > 1 {
			fmt.Fprintf(&b, "accuracy clustering: design effect %.1f, cluster-robust 95%% CI %.2f–%.2f%%\n",
				a.DesignEffect, 100*a.FPRLowClustered, 100*a.FPRHighClustered)
		}
		if a.Alarm != "" {
			fmt.Fprintf(&b, "ACCURACY ALARM: %s\n", a.Alarm)
		}
	}
	b.WriteByte('\n')
	b.WriteString("region tree:\n")
	for _, reg := range r.Regions {
		fmt.Fprintf(&b, "%s%s %s: own=%dB cum=%dB accesses=%d\n",
			strings.Repeat("  ", reg.Depth), reg.Kind, reg.Name, reg.OwnBytes, reg.CumulativeBytes, reg.Accesses)
	}
	b.WriteString("\nhotspots:\n")
	for i, h := range r.Hotspots {
		fmt.Fprintf(&b, "%d. %s: %d bytes (%.1f%%), %d/%d threads active, balance %.2f\n",
			i+1, h.Region, h.Bytes, 100*h.Share, h.ActiveThreads, r.Threads, h.BalanceIndex)
	}
	if len(r.Phases) > 0 {
		b.WriteString("\nphases:\n")
		for i, p := range r.Phases {
			fmt.Fprintf(&b, "%d. t=[%d,%d) volume=%dB\n", i+1, p.Start, p.End, p.Matrix.Total())
		}
	}
	if tl := r.PhaseTimeline; tl != nil {
		fmt.Fprintf(&b, "\npattern timeline: %d windows of %d, %d transitions\n",
			len(tl.Windows), tl.WindowSize, len(tl.Transitions))
		for _, tr := range tl.Transitions {
			fmt.Fprintf(&b, "  t=%d: %s -> %s\n", tr.At, tr.From, tr.To)
		}
		for _, l := range tl.Loops {
			fmt.Fprintf(&b, "  loop %s: %s, %dB over %d windows\n", l.Region, l.Class, l.Bytes, l.Windows)
		}
	}
	if r.SampleFraction < 1 {
		fmt.Fprintf(&b, "\n(read sampling active: %.1f%% of reads analysed; volumes scale accordingly)\n",
			100*r.SampleFraction)
	}
	return b.String()
}

// PatternClassifier assigns parallel-pattern classes to matrices. Build one
// with NewPatternClassifier; it is safe for concurrent use after creation.
type PatternClassifier struct {
	knn *patterns.KNN
}

// NewPatternClassifier returns the kNN classifier trained on the canonical
// pattern corpus (§VI) drawn from seed; 0 means the default, as in
// Options.Seed. The default seed's model ships with the package, so it costs
// no training; any other seed trains one. Phase timelines (Options.PhaseWindow)
// classify with the shipped default model whatever Options.Seed is.
func NewPatternClassifier(seed int64) (*PatternClassifier, error) {
	if seed == 0 {
		seed = defaultSeed
	}
	knn, err := patterns.DefaultKNN()
	if seed != patterns.DefaultSeed {
		knn, err = patterns.TrainKNN(seed)
	}
	if err != nil {
		return nil, err
	}
	return &PatternClassifier{knn: knn}, nil
}

// Classify names the parallel pattern of a communication matrix: one of
// linear-algebra, spectral, n-body, structured-grid, master-worker, pipeline
// or barrier.
func (c *PatternClassifier) Classify(m Matrix) (string, error) {
	class, _, err := c.ClassifyWithFamily(m)
	return class, err
}

// ClassifyWithFamily additionally names the paper's §VI top-level family of
// the detected pattern: computational, architectural or synchronization.
func (c *PatternClassifier) ClassifyWithFamily(m Matrix) (class, family string, err error) {
	im, err := m.toInternal()
	if err != nil {
		return "", "", err
	}
	cl := patterns.ClassifyMatrix(c.knn, im)
	return cl.String(), patterns.FamilyOf(cl).String(), nil
}
