package commprof

import (
	"fmt"

	"commprof/internal/comm"
	"commprof/internal/metrics"
	"commprof/internal/obs"
	"commprof/internal/patterns"
	"commprof/internal/trace"
)

// phaseThreshold is the cosine-similarity threshold for merging adjacent
// windows into one phase (§V-A4); the facade's fixed operating point.
const phaseThreshold = 0.7

const (
	// phaseRecentKeep bounds the recent-window ring /progress shows.
	phaseRecentKeep = 8
	// phaseMaxLoops bounds the per-loop live classifications /progress and
	// the report timeline's loop digest carry.
	phaseMaxLoops = 5
)

// phaseState bundles one run's phase-observability wiring: the loop-region
// predicate over the run's region table and the classification multiplexer,
// which consumes closed windows as they stream out when the run has
// telemetry and renders the report's timeline either way. The analysis
// engine produces the windows, in-thread and sharded alike.
type phaseState struct {
	window uint64
	table  *trace.Table
	tel    *Telemetry
	live   *metrics.LivePhases
}

// phaseClassifier is what a run's phase layer classifies with: the shipped
// default kNN, whatever the run's seed, so no run trains one. A variable so
// the facade tests can count classifications.
var phaseClassifier = func() (patterns.Classifier, error) { return patterns.DefaultKNN() }

// newPhaseState builds the phase wiring for one run, or nil when
// Options.PhaseWindow is unset.
func newPhaseState(opts Options, table *trace.Table, tel *Telemetry, probes obs.Probes) (*phaseState, error) {
	if opts.PhaseWindow == 0 {
		return nil, nil
	}
	cls, err := phaseClassifier()
	if err != nil {
		return nil, err
	}
	ps := &phaseState{window: opts.PhaseWindow, table: table, tel: tel}
	ps.live = metrics.NewLivePhases(cls, ps.isLoop, phaseRecentKeep, probes.Phase)
	return ps, nil
}

// isLoop reports whether a region id names an annotated loop.
func (p *phaseState) isLoop(id int32) bool {
	if id < 0 || int(id) >= p.table.Len() {
		return false
	}
	return p.table.MustRegion(id).Kind == trace.LoopRegion
}

// regionName resolves a region id for the report and /progress surfaces,
// including the source position for regions from instrumented real programs.
func (p *phaseState) regionName(id int32) string {
	r, err := p.table.Region(id)
	if err != nil {
		return fmt.Sprintf("region-%d", id)
	}
	return r.Label()
}

// onClose returns the window-close callback that feeds the live layer, with a
// tracer span and a timeline instant per closed window; nil when the run has
// no telemetry (nothing consumes live windows, and the final report
// classifies the complete merged set anyway).
func (p *phaseState) onClose() func(w *comm.Window, end uint64) {
	if p == nil || p.tel == nil {
		return nil
	}
	var track *obs.Track
	if tl := p.tel.Timeline(); tl != nil {
		track = tl.Track("engine")
	}
	return func(w *comm.Window, end uint64) {
		sp := p.tel.Span("phase-window")
		p.live.ObserveWindow(w, end)
		sp.End()
		track.Instant("window-close")
	}
}

// wire binds the live phase surfaces (gauges, /progress fields) to the run;
// the run's periodic ticker drives window closing. Call after wireRun so the
// /progress snapshot wraps the run's base snapshot. No-op without telemetry.
func (p *phaseState) wire() {
	if p == nil || p.tel == nil {
		return
	}
	p.tel.wirePhases(p.live, p.regionName)
}

// attach renders the complete merged window set into the report: the §V-A4
// phase list (bit-identical to a metrics.PhaseSegmenter's Finish, by the
// window merge law) and the classified pattern timeline, which reuses the
// live classification of every window the run streamed out unchanged, so
// each closed window is classified once per run.
func (p *phaseState) attach(rep *Report, ws *comm.WindowSet) {
	if p == nil {
		return
	}
	for _, ph := range metrics.SegmentWindows(ws.Sorted(), p.window, phaseThreshold) {
		rep.Phases = append(rep.Phases, PhaseReport{
			Start: ph.Start, End: ph.End, Matrix: fromInternal(ph.Matrix),
		})
	}
	tl := p.live.Timeline(ws, phaseMaxLoops)
	out := &PhaseTimelineReport{WindowSize: tl.WindowSize}
	for _, w := range tl.Windows {
		out.Windows = append(out.Windows, PhaseWindowReport{
			Start: w.Start, End: w.End,
			Class: w.Class.String(), Confidence: w.Confidence, Bytes: w.Bytes,
		})
	}
	for _, tr := range tl.Transitions {
		out.Transitions = append(out.Transitions, PhaseTransitionReport{
			At: tr.At, From: tr.From.String(), To: tr.To.String(),
		})
	}
	for _, l := range tl.Loops {
		out.Loops = append(out.Loops, LoopTimelineReport{
			Region: p.regionName(l.Region), Class: l.Class.String(),
			Bytes: l.Bytes, Windows: l.Windows,
		})
	}
	rep.PhaseTimeline = out
}
