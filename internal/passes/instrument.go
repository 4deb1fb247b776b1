package passes

import "commprof/internal/ir"

// Instrument marks shared-memory instructions with probes so the runtime
// reports them to the profiler. Per the paper's §IV-A, the source can be
// decomposed into code that must be analysed and code that should not be:
// when only is non-nil, probes are inserted solely in the named functions,
// eliminating unnecessary analysis elsewhere; a nil only instruments the
// whole program. It returns the number of probes inserted.
func Instrument(m *ir.Module, only map[string]bool) int {
	probes := 0
	for fi := range m.Funcs {
		f := &m.Funcs[fi]
		if only != nil && !only[f.Name] {
			continue
		}
		for i := range f.Code {
			switch f.Code[i].Op {
			case ir.OpLoadArr, ir.OpStoreArr:
				if !f.Code[i].Probed {
					f.Code[i].Probed = true
					probes++
				}
			}
		}
	}
	return probes
}
