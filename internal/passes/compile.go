package passes

import (
	"commprof/internal/ir"
	"commprof/internal/minipar"
	"commprof/internal/trace"
)

// Options configures CompileWith.
type Options struct {
	// Only restricts instrumentation to the named functions; nil instruments
	// the whole program.
	Only map[string]bool
	// Coalesce runs the static access-coalescing pass after instrumentation
	// (see Coalesce). The drivers turn it on unless given -coalesce=false.
	Coalesce bool
}

// CompileWith runs the full static pipeline on MiniPar source: parse, loop
// annotation, constant folding, lowering, instrumentation (of the functions
// in opts.Only, or the whole program when that is nil), static access
// coalescing if asked for, and verification. It returns the executable
// module, the static region table and the coalescing statistics (zero when
// the pass is off).
func CompileWith(src string, opts Options) (*ir.Module, *trace.Table, CoalesceStats, error) {
	var cs CoalesceStats
	prog, err := minipar.Parse(src)
	if err != nil {
		return nil, nil, cs, err
	}
	table, err := Annotate(prog)
	if err != nil {
		return nil, nil, cs, err
	}
	FoldConstants(prog)
	mod, err := Lower(prog)
	if err != nil {
		return nil, nil, cs, err
	}
	Instrument(mod, opts.Only)
	if opts.Coalesce {
		cs = Coalesce(mod)
	}
	if err := Verify(mod); err != nil {
		return nil, nil, cs, err
	}
	return mod, table, cs, nil
}
