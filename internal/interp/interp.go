// Package interp executes compiled MiniPar modules on the simulated-thread
// engine. Every thread runs main SPMD-style; probed array accesses fire the
// engine's instrumentation hook (and from there the profiler), while
// unprobed accesses execute silently — reproducing the paper's distinction
// between analysed and unanalysed code. Array values are real: MiniPar
// programs compute actual results, observable through `out`.
package interp

import (
	"fmt"
	"sort"
	"sync"

	"commprof/internal/exec"
	"commprof/internal/ir"
	"commprof/internal/vmem"
)

// DefaultMaxSteps bounds per-thread execution to catch runaway loops.
const DefaultMaxSteps = 50_000_000

// Output is one value emitted by `out`, tagged with the emitting thread and
// a global sequence number.
type Output struct {
	Seq    uint64
	Thread int32
	Value  int64
}

// Runtime holds the shared state of one program execution.
type Runtime struct {
	mod    *ir.Module
	space  *vmem.Space
	arrs   []vmem.Region
	values [][]int64

	mu      sync.Mutex
	outputs []Output
	seq     uint64

	maxSteps uint64
	nthreads int

	// regionElided counts elided-probe executions per static region, indexed
	// by region ID + 1 so trace.NoRegion (-1) lands in slot 0. The engine's
	// turn orders every bump, and they are read once the run is over.
	regionElided []uint64

	// onceIdx, parallel to mod.Funcs, maps a loop anchor pc (its
	// OpRegionEnter) to the pcs of the probes anchored there; nil for
	// functions with no OnceAnchor probes.
	onceIdx []map[int][]int
}

// New prepares a runtime for the module: allocates the shared address space
// and zero-initialises array values.
func New(mod *ir.Module) (*Runtime, error) {
	if mod.MainIndex < 0 || mod.MainIndex >= len(mod.Funcs) {
		return nil, fmt.Errorf("interp: module has no main")
	}
	r := &Runtime{mod: mod, space: vmem.NewSpace(), maxSteps: DefaultMaxSteps}
	for _, a := range mod.Arrays {
		r.arrs = append(r.arrs, r.space.Alloc(a.Name, uint64(a.Size), 8))
		r.values = append(r.values, make([]int64, a.Size))
	}
	maxRegion := int32(-1)
	r.onceIdx = make([]map[int][]int, len(mod.Funcs))
	for fi := range mod.Funcs {
		f := &mod.Funcs[fi]
		if f.RegionID > maxRegion {
			maxRegion = f.RegionID
		}
		for pc, in := range f.Code {
			if in.Op == ir.OpRegionEnter && int32(in.A) > maxRegion {
				maxRegion = int32(in.A)
			}
			if in.Probed && in.OnceAnchor != 0 {
				if r.onceIdx[fi] == nil {
					r.onceIdx[fi] = map[int][]int{}
				}
				a := int(in.OnceAnchor)
				r.onceIdx[fi][a] = append(r.onceIdx[fi][a], pc)
			}
		}
	}
	r.regionElided = make([]uint64, maxRegion+2)
	return r, nil
}

// countElided attributes one elided-probe execution to region.
func (r *Runtime) countElided(region int32) {
	if i := int(region) + 1; i >= 0 && i < len(r.regionElided) {
		r.regionElided[i]++
	}
}

// ElidedByRegion returns per-region elided-probe execution counts, keyed by
// static region ID (only regions with a non-zero count appear).
func (r *Runtime) ElidedByRegion() map[int32]uint64 {
	out := map[int32]uint64{}
	for i, n := range r.regionElided {
		if n > 0 {
			out[int32(i)-1] = n
		}
	}
	return out
}

// SetMaxSteps overrides the per-thread step budget. Exported for
// internal/passes' differential fuzz harness, which bounds the programs it
// generates from another package; no driver sets it.
func (r *Runtime) SetMaxSteps(n uint64) {
	if n > 0 {
		r.maxSteps = n
	}
}

// arrayValues returns a copy of the named array's final contents (the tests'
// window on what a program computed).
func (r *Runtime) arrayValues(name string) ([]int64, bool) {
	for i, a := range r.mod.Arrays {
		if a.Name == name {
			out := make([]int64, len(r.values[i]))
			copy(out, r.values[i])
			return out, true
		}
	}
	return nil, false
}

// Outputs returns all `out` values in emission order.
func (r *Runtime) Outputs() []Output {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Output, len(r.outputs))
	copy(out, r.outputs)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Run executes the module on the engine (every thread runs main) and blocks
// until completion.
func (r *Runtime) Run(e *exec.Engine) (exec.Stats, error) {
	r.nthreads = e.Threads()
	return e.Run(func(t *exec.Thread) {
		th := &thread{rt: r, t: t, stepsLeft: r.maxSteps}
		th.call(r.mod.MainIndex)
	})
}

// thread is the per-thread interpreter state.
type thread struct {
	rt        *Runtime
	t         *exec.Thread
	stack     []int64
	stepsLeft uint64
	depth     int
}

const maxCallDepth = 256

func (th *thread) fail(f *ir.Func, pc int, format string, args ...any) {
	line := 0
	if pc < len(f.Code) {
		line = f.Code[pc].Line
	}
	panic(fmt.Sprintf("minipar runtime error: %s (func %s, line %d): T%d",
		fmt.Sprintf(format, args...), f.Name, line, th.t.ID()))
}

func (th *thread) push(v int64) { th.stack = append(th.stack, v) }

func (th *thread) pop() int64 {
	v := th.stack[len(th.stack)-1]
	th.stack = th.stack[:len(th.stack)-1]
	return v
}

// call executes function fi; arguments are already on the stack.
func (th *thread) call(fi int) {
	th.depth++
	if th.depth > maxCallDepth {
		panic(fmt.Sprintf("minipar runtime error: call depth exceeds %d (runaway recursion): T%d", maxCallDepth, th.t.ID()))
	}
	defer func() { th.depth-- }()

	f := &th.rt.mod.Funcs[fi]
	locals := make([]int64, f.NumLocals)
	// Once-anchored probes fire on their first execution after each pass
	// through their anchor (the loop header's OpRegionEnter) and are elided
	// on subsequent iterations; onceFired tracks that per call frame.
	anchors := th.rt.onceIdx[fi]
	var onceFired map[int]bool
	pc := 0
	for pc < len(f.Code) {
		if th.stepsLeft == 0 {
			panic(fmt.Sprintf("minipar runtime error: step budget exhausted (infinite loop?): T%d", th.t.ID()))
		}
		th.stepsLeft--
		in := f.Code[pc]
		switch in.Op {
		case ir.OpPush:
			th.push(in.A)
		case ir.OpLoadLocal:
			th.push(locals[in.A])
		case ir.OpStoreLocal:
			locals[in.A] = th.pop()
		case ir.OpTid:
			th.push(int64(th.t.ID()))
		case ir.OpNThreads:
			th.push(int64(th.rt.threads()))
		case ir.OpBin:
			r := th.pop()
			l := th.pop()
			v, err := evalBin(in.A, l, r)
			if err != nil {
				th.fail(f, pc, "%v", err)
			}
			th.push(v)
		case ir.OpNeg:
			th.push(-th.pop())
		case ir.OpNot:
			if th.pop() == 0 {
				th.push(1)
			} else {
				th.push(0)
			}
		case ir.OpLoadArr:
			idx := th.pop()
			a := in.A
			if idx < 0 || idx >= th.rt.mod.Arrays[a].Size {
				th.fail(f, pc, "index %d out of range for %s[%d]", idx, th.rt.mod.Arrays[a].Name, th.rt.mod.Arrays[a].Size)
			}
			if in.Probed {
				if in.Elide || (in.OnceAnchor != 0 && onceFired[pc]) {
					th.t.ReadElided(8)
					th.rt.countElided(th.t.Region())
				} else {
					if in.OnceAnchor != 0 {
						if onceFired == nil {
							onceFired = map[int]bool{}
						}
						onceFired[pc] = true
					}
					th.t.Read(th.rt.arrs[a].Addr(uint64(idx)), 8)
				}
			}
			th.push(th.rt.values[a][idx])
		case ir.OpStoreArr:
			val := th.pop()
			idx := th.pop()
			a := in.A
			if idx < 0 || idx >= th.rt.mod.Arrays[a].Size {
				th.fail(f, pc, "index %d out of range for %s[%d]", idx, th.rt.mod.Arrays[a].Name, th.rt.mod.Arrays[a].Size)
			}
			if in.Probed {
				if in.Elide || (in.OnceAnchor != 0 && onceFired[pc]) {
					th.t.WriteElided(8)
					th.rt.countElided(th.t.Region())
				} else {
					if in.OnceAnchor != 0 {
						if onceFired == nil {
							onceFired = map[int]bool{}
						}
						onceFired[pc] = true
					}
					th.t.Write(th.rt.arrs[a].Addr(uint64(idx)), 8)
				}
			}
			th.rt.values[a][idx] = val
		case ir.OpJump:
			pc = int(in.A)
			continue
		case ir.OpJumpZero:
			if th.pop() == 0 {
				pc = int(in.A)
				continue
			}
		case ir.OpBarrier:
			th.t.Barrier()
		case ir.OpWork:
			n := th.pop()
			if n > 0 {
				th.t.Work(int(n))
			}
		case ir.OpOut:
			th.rt.emit(th.t.ID(), th.pop())
		case ir.OpCall:
			th.call(int(in.A))
		case ir.OpRet:
			return
		case ir.OpRegionEnter:
			if anchors != nil {
				for _, p := range anchors[pc] {
					delete(onceFired, p)
				}
			}
			th.t.EnterRegion(int32(in.A))
		case ir.OpRegionExit:
			th.t.ExitRegion()
		case ir.OpLock:
			th.t.Acquire(th.rt.mod.LockBase + int(th.pop()))
		case ir.OpUnlock:
			th.t.Release(th.rt.mod.LockBase + int(th.pop()))
		default:
			th.fail(f, pc, "unknown opcode %s", in.Op)
		}
		pc++
	}
}

func (r *Runtime) emit(tid int32, v int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.outputs = append(r.outputs, Output{Seq: r.seq, Thread: tid, Value: v})
	r.seq++
}

// threads returns the engine thread count recorded at Run.
func (r *Runtime) threads() int { return r.nthreads }

func evalBin(code, l, rv int64) (int64, error) {
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	switch code {
	case ir.BinAdd:
		return l + rv, nil
	case ir.BinSub:
		return l - rv, nil
	case ir.BinMul:
		return l * rv, nil
	case ir.BinDiv:
		if rv == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return l / rv, nil
	case ir.BinMod:
		if rv == 0 {
			return 0, fmt.Errorf("modulo by zero")
		}
		return l % rv, nil
	case ir.BinEq:
		return b(l == rv), nil
	case ir.BinNe:
		return b(l != rv), nil
	case ir.BinLt:
		return b(l < rv), nil
	case ir.BinLe:
		return b(l <= rv), nil
	case ir.BinGt:
		return b(l > rv), nil
	case ir.BinGe:
		return b(l >= rv), nil
	case ir.BinAnd:
		return b(l != 0 && rv != 0), nil
	case ir.BinOr:
		return b(l != 0 || rv != 0), nil
	default:
		return 0, fmt.Errorf("unknown operator code %d", code)
	}
}
