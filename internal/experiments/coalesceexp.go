package experiments

import (
	"fmt"
	"sort"
	"strings"

	"commprof/internal/detect"
	"commprof/internal/exec"
	"commprof/internal/interp"
	"commprof/internal/passes"
	"commprof/internal/sig"
)

// CoalesceRow is one kernel of the static-coalescing ablation: the probe
// stream with the pass on versus off, and whether the detected communication
// stayed bit-identical.
type CoalesceRow struct {
	Kernel       string
	StaticElided int    // probe sites marked always-elide at compile time
	StaticOnce   int    // probe sites demoted to once-per-loop-entry
	Emitted      uint64 // accesses the detector saw, pass on
	Elided       uint64 // accesses skipped at run time, pass on
	Uncoalesced  uint64 // accesses the detector saw, pass off
	ReductionPct float64
	Identical    bool // global matrix + detected deps/bytes equal on vs off
}

// CoalesceResult is the ablation over the structured kernel corpus.
type CoalesceResult struct {
	Threads int
	Rows    []CoalesceRow
}

// Coalesce measures the static access-coalescing pass on the structured
// MiniPar kernel corpus (passes.CoalesceKernels): emitted-access reduction
// and a bit-identity check of the detected communication on an exact
// backend, per kernel.
func Coalesce(env Env) (*CoalesceResult, error) {
	kernels := passes.CoalesceKernels()
	names := make([]string, 0, len(kernels))
	for n := range kernels {
		names = append(names, n)
	}
	sort.Strings(names)

	res := &CoalesceResult{Threads: env.Threads}
	for _, name := range names {
		on, err := runCoalesceKernel(env, kernels[name], true)
		if err != nil {
			return nil, fmt.Errorf("experiments: coalesce %s: %w", name, err)
		}
		off, err := runCoalesceKernel(env, kernels[name], false)
		if err != nil {
			return nil, fmt.Errorf("experiments: coalesce %s (pass off): %w", name, err)
		}
		// Stats.Processed legitimately shrinks (that is the point of the
		// pass); the detection outcomes must not.
		onStats, offStats := on.detector.Stats(), off.detector.Stats()
		row := CoalesceRow{
			Kernel:       name,
			StaticElided: on.static.Elided,
			StaticOnce:   on.static.Once,
			Emitted:      on.engine.Accesses - on.engine.Elided,
			Elided:       on.engine.Elided,
			Uncoalesced:  off.engine.Accesses,
			Identical: on.detector.Global().Equal(off.detector.Global()) &&
				onStats.Detected == offStats.Detected &&
				onStats.CommBytes == offStats.CommBytes,
		}
		if row.Uncoalesced > 0 {
			row.ReductionPct = 100 * float64(row.Elided) / float64(row.Uncoalesced)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// coalesceRun is one kernel execution on an exact backend under sync-only
// scheduling (a quantum no thread exhausts), the regime where the pass's
// elision decisions are exact for arbitrary programs.
type coalesceRun struct {
	static   passes.CoalesceStats
	engine   exec.Stats
	detector *detect.Detector
}

func runCoalesceKernel(env Env, src string, coalesce bool) (coalesceRun, error) {
	mod, table, cs, err := passes.CompileWith(src, passes.Options{Coalesce: coalesce})
	if err != nil {
		return coalesceRun{}, err
	}
	rt, err := interp.New(mod)
	if err != nil {
		return coalesceRun{}, err
	}
	d, err := env.detector(sig.NewPerfect(env.Threads), table)
	if err != nil {
		return coalesceRun{}, err
	}
	eng := exec.New(exec.Options{
		Threads: env.Threads, Quantum: 1 << 30, Probe: d.Probe(),
		Probes: env.Probes.Engine,
	})
	stats, err := rt.Run(eng)
	if err != nil {
		return coalesceRun{}, err
	}
	return coalesceRun{static: cs, engine: stats, detector: d}, nil
}

// Render formats the ablation.
func (r *CoalesceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "static access coalescing — MiniPar kernel corpus, %d threads, exact backend\n", r.Threads)
	fmt.Fprintf(&b, "%-10s %7s %6s %10s %10s %12s %10s %10s\n",
		"kernel", "elide", "once", "emitted", "elided", "uncoalesced", "reduction", "identical")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %7d %6d %10d %10d %12d %9.1f%% %10v\n",
			row.Kernel, row.StaticElided, row.StaticOnce, row.Emitted, row.Elided,
			row.Uncoalesced, row.ReductionPct, row.Identical)
	}
	return b.String()
}
