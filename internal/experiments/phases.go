package experiments

import (
	"fmt"
	"strings"
	"time"

	"commprof/internal/detect"
	"commprof/internal/metrics"
	"commprof/internal/patterns"
	"commprof/internal/pipeline"
	"commprof/internal/sig"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// PhasesResult is the §V-A4 dynamic-behaviour demonstration extended to the
// windowed observability layer: the serial PhaseSegmenter's phase sequence,
// the sharded pipeline's merged window set checked bit-identical against it,
// the classified pattern timeline built from those windows, and the wall
// clock cost the windowed layer adds to the sharded analysis.
type PhasesResult struct {
	App    string
	Window uint64
	Phases []metrics.Phase
	// Shards / Identical report the merge-soundness check: the sharded
	// engine's merged window set must equal the serial segmenter's exactly
	// (exact signature partitions isolate the windowed layer).
	Shards    int
	Identical bool
	// Timeline is the classified window sequence with transitions and the
	// hot-loop digest (region IDs resolved via LoopNames).
	Timeline  metrics.Timeline
	LoopNames map[int32]string
	// Events is the replayed access count; BaselineNs / WindowedNs are the
	// sharded per-access costs with the windowed layer off and on.
	Events                 uint64
	BaselineNs, WindowedNs float64
}

// Phases profiles one application with time-windowed phase segmentation.
// radix is the paper-faithful subject: each sort pass alternates between a
// local histogram phase, a reduction phase and an all-to-all permutation,
// so the phase sequence shows distinct matrices — the behaviour §V-A4 says
// static whole-program analyses mistake for one blended pattern. The same
// recorded stream then runs through the sharded pipeline to demonstrate the
// windowed layer's merge soundness and measure its cost.
func Phases(env Env, app string, size splash.Size) (*PhasesResult, error) {
	stream, table, err := env.record(app, size)
	if err != nil {
		return nil, err
	}
	window := phaseWindowFor(size)
	const shards = 4

	// Serial reference: exact backend, the PhaseSegmenter observing events.
	seg, err := metrics.NewPhaseSegmenter(env.Threads, window, 0.7)
	if err != nil {
		return nil, err
	}
	serial, err := detect.New(detect.Options{
		Threads: env.Threads, Backend: sig.NewPerfect(env.Threads), Table: table,
		OnEvent: seg.Observe, Probes: env.Probes.Detect,
	})
	if err != nil {
		return nil, err
	}
	serial.ProcessBatch(stream)
	res := &PhasesResult{
		App: app, Window: window, Shards: shards,
		Phases: seg.Finish(),
		Events: uint64(len(stream)),
	}

	// Sharded runs: window off for the baseline cost, then on for the merged
	// set. Exact partitions make any window-set mismatch a bucketing or
	// merge bug rather than a signature collision.
	runSharded := func(win uint64) (*pipeline.Engine, float64, error) {
		e, err := pipeline.New(pipeline.Options{
			Shards: shards, Threads: env.Threads, Table: table,
			PhaseWindow: win,
			NewBackend:  pipeline.PerfectFactory(env.Threads),
		})
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		e.ProcessBatch(stream)
		e.Close()
		ns := 0.0
		if len(stream) > 0 {
			ns = float64(time.Since(start).Nanoseconds()) / float64(len(stream))
		}
		return e, ns, nil
	}
	if _, res.BaselineNs, err = runSharded(0); err != nil {
		return nil, err
	}
	e, windowedNs, err := runSharded(window)
	if err != nil {
		return nil, err
	}
	res.WindowedNs = windowedNs
	ws, err := e.PhaseWindows()
	if err != nil {
		return nil, err
	}
	res.Identical = ws.Equal(seg.WindowSet())

	// Classify the merged windows into the timeline the report carries.
	knn, err := patterns.TrainKNN(env.Seed)
	if err != nil {
		return nil, err
	}
	isLoop := func(id int32) bool { return table.MustRegion(id).Kind == trace.LoopRegion }
	res.Timeline = metrics.BuildTimeline(ws, knn, isLoop, 3)
	res.LoopNames = make(map[int32]string, len(res.Timeline.Loops))
	for _, l := range res.Timeline.Loops {
		res.LoopNames[l.Region] = table.MustRegion(l.Region).Name
	}
	return res, nil
}

// phaseWindowFor picks a logical-time window matched to the input scale.
func phaseWindowFor(size splash.Size) uint64 {
	switch size {
	case splash.SimLarge:
		return 50000
	case splash.SimSmall:
		return 20000
	default:
		return 8000
	}
}

// Render formats the phase sequence, the identity verdict, the classified
// timeline and the windowed layer's measured cost.
func (r *PhasesResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§V-A4 dynamic behaviour — %s segmented into %d communication phases (window %d)\n",
		r.App, len(r.Phases), r.Window)
	for i, ph := range r.Phases {
		load := metrics.Summarize(ph.Matrix)
		fmt.Fprintf(&b, "\nphase %d: t=[%d,%d) windows=%d volume=%dB %s\n",
			i+1, ph.Start, ph.End, ph.Windows, ph.Matrix.Total(), load)
		if i < 4 {
			b.WriteString(ph.Matrix.Heatmap())
		}
	}
	if len(r.Phases) >= 2 {
		sim := metrics.CosineSimilarity(r.Phases[0].Matrix, r.Phases[1].Matrix)
		fmt.Fprintf(&b, "\nadjacent-phase similarity (phase 1 vs 2): %.3f — the phases are distinct patterns\n", sim)
	}

	verdict := "BIT-IDENTICAL"
	if !r.Identical {
		verdict = "MISMATCH (merge bug!)"
	}
	fmt.Fprintf(&b, "\nsharded windowed layer: %d shards over %d accesses, merged window set vs serial segmenter: %s\n",
		r.Shards, r.Events, verdict)
	if r.BaselineNs > 0 {
		fmt.Fprintf(&b, "windowed overhead: %.1f ns/access baseline -> %.1f ns/access windowed (%+.1f%%)\n",
			r.BaselineNs, r.WindowedNs, 100*(r.WindowedNs-r.BaselineNs)/r.BaselineNs)
	}

	fmt.Fprintf(&b, "\nclassified timeline: %d windows, %d transitions\n",
		len(r.Timeline.Windows), len(r.Timeline.Transitions))
	for _, w := range r.Timeline.Windows {
		fmt.Fprintf(&b, "  t=[%d,%d) %-15s conf=%.2f %dB\n", w.Start, w.End, w.Class, w.Confidence, w.Bytes)
	}
	for _, tr := range r.Timeline.Transitions {
		fmt.Fprintf(&b, "  transition t=%d: %s -> %s\n", tr.At, tr.From, tr.To)
	}
	for _, l := range r.Timeline.Loops {
		fmt.Fprintf(&b, "  loop %s: %s, %dB over %d windows\n", r.LoopNames[l.Region], l.Class, l.Bytes, l.Windows)
	}
	return b.String()
}
