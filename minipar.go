package commprof

import (
	"fmt"
	"sort"

	"commprof/internal/exec"
	"commprof/internal/interp"
	"commprof/internal/passes"
	"commprof/internal/trace"
)

// MiniParOutput is one value a MiniPar program emitted with `out`, in
// emission order.
type MiniParOutput struct {
	Thread int32
	Value  int64
}

// ProfileMiniPar compiles MiniPar source through the full static pipeline —
// parsing, loop annotation (the paper's Listing 1), constant folding,
// lowering, probe insertion and verification — then executes it SPMD on
// threads simulated threads with the profiler attached.
//
// onlyFuncs, when non-empty, restricts instrumentation to the named
// functions (the paper's §IV-A decomposition into analysed and unanalysed
// code); a name that is not a function of the program is an error. An empty
// slice instruments the whole program.
//
// See the package example under examples/miniparlang and cmd/minipar for the
// language reference (grammar documented in the internal front end):
//
//	array A[256];
//	func main() {
//	  parfor i = 0..256 { A[i] = i; }   // block-partitioned across threads
//	  barrier;
//	  if tid == 0 { out A[0]; }
//	}
func ProfileMiniPar(src string, threads int, onlyFuncs []string, opts Options) (*Report, []MiniParOutput, error) {
	opts.setDefaults()
	if threads <= 0 {
		return nil, nil, fmt.Errorf("commprof: threads must be positive, got %d", threads)
	}
	mod, table, cs, err := passes.CompileWith(src, passes.Options{
		Only: onlyFuncs, Coalesce: !opts.DisableCoalesce,
	})
	if err != nil {
		return nil, nil, err
	}
	rt, err := interp.New(mod)
	if err != nil {
		return nil, nil, err
	}
	var stats exec.Stats
	rep, err := profileEngine(opts, engineSource{
		name: "minipar", threads: threads, table: table,
		run: func(eng *exec.Engine) (exec.Stats, error) {
			var err error
			stats, err = rt.Run(eng)
			return stats, err
		},
	})
	if err != nil {
		return nil, nil, err
	}
	if !opts.DisableCoalesce {
		rep.Coalescing = coalescingReport(cs, stats, rt, table)
	}
	var outs []MiniParOutput
	for _, o := range rt.Outputs() {
		outs = append(outs, MiniParOutput{Thread: o.Thread, Value: o.Value})
	}
	return rep, outs, nil
}

// coalescingReport assembles Report.Coalescing from the static pass stats and
// the runtime's per-region elided counters.
func coalescingReport(cs passes.CoalesceStats, stats exec.Stats, rt *interp.Runtime, table *trace.Table) *CoalescingReport {
	rep := &CoalescingReport{
		StaticElided: cs.Elided,
		StaticOnce:   cs.Once,
		Elided:       stats.Elided,
		Emitted:      stats.Accesses - stats.Elided,
	}
	for id, n := range rt.ElidedByRegion() {
		name := fmt.Sprintf("region#%d", id)
		if r, err := table.Region(id); err == nil {
			name = r.Name
		}
		rep.Regions = append(rep.Regions, CoalescingRegion{Region: name, Elided: n})
	}
	sort.Slice(rep.Regions, func(i, j int) bool {
		if rep.Regions[i].Elided != rep.Regions[j].Elided {
			return rep.Regions[i].Elided > rep.Regions[j].Elided
		}
		return rep.Regions[i].Region < rep.Regions[j].Region
	})
	return rep
}
