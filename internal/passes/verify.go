package passes

import (
	"fmt"

	"commprof/internal/ir"
)

// Verify checks structural well-formedness of a lowered module: jump targets
// in range, array and function references valid, local slots within bounds,
// and — via abstract interpretation over the control-flow graph — a
// consistent, non-negative evaluation-stack depth at every instruction with
// depth zero at every return. Run it after lowering and instrumentation;
// a failure indicates a compiler bug, not a user error.
func Verify(m *ir.Module) error {
	if m.MainIndex < 0 || m.MainIndex >= len(m.Funcs) {
		return fmt.Errorf("passes: invalid main index %d", m.MainIndex)
	}
	for fi := range m.Funcs {
		if _, _, err := stackDepths(m, &m.Funcs[fi]); err != nil {
			return fmt.Errorf("passes: func %s: %w", m.Funcs[fi].Name, err)
		}
	}
	return nil
}

// stackDepths checks one function as Verify does and returns the entry
// stack depth and reachability of every pc. It is the one stack-depth
// interpretation: the verifier reports its error, and the coalescing pass,
// which runs before the verifier, leaves a function it rejects unmarked.
func stackDepths(m *ir.Module, f *ir.Func) (depth []int, reach []bool, err error) {
	n := len(f.Code)
	if n == 0 {
		return nil, nil, fmt.Errorf("empty body")
	}
	// Static reference checks.
	for pc, in := range f.Code {
		switch in.Op {
		case ir.OpJump, ir.OpJumpZero:
			if in.A < 0 || in.A > int64(n) {
				return nil, nil, fmt.Errorf("pc %d: jump target %d out of range", pc, in.A)
			}
		case ir.OpLoadArr, ir.OpStoreArr:
			if in.A < 0 || int(in.A) >= len(m.Arrays) {
				return nil, nil, fmt.Errorf("pc %d: array %d out of range", pc, in.A)
			}
		case ir.OpCall:
			if in.A < 0 || int(in.A) >= len(m.Funcs) {
				return nil, nil, fmt.Errorf("pc %d: callee %d out of range", pc, in.A)
			}
		case ir.OpLoadLocal, ir.OpStoreLocal:
			if in.A < 0 || int(in.A) >= f.NumLocals {
				return nil, nil, fmt.Errorf("pc %d: local slot %d out of range [0,%d)", pc, in.A, f.NumLocals)
			}
		case ir.OpBin:
			if ir.BinOpName(in.A) == fmt.Sprintf("bin(%d)", in.A) {
				return nil, nil, fmt.Errorf("pc %d: unknown binary operator %d", pc, in.A)
			}
		default:
			if in.Op.String() == fmt.Sprintf("op(%d)", uint8(in.Op)) {
				return nil, nil, fmt.Errorf("pc %d: unknown opcode %d", pc, uint8(in.Op))
			}
		}
	}

	// Abstract stack-depth interpretation. Entry depth is the parameter
	// count (the caller pushed the arguments).
	depth = make([]int, n)
	reach = make([]bool, n)
	type state struct{ pc, d int }
	work := []state{{0, f.NumParams}}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		if s.pc == n {
			if s.d != 0 {
				return nil, nil, fmt.Errorf("fall-off with stack depth %d", s.d)
			}
			continue
		}
		if reach[s.pc] {
			if depth[s.pc] != s.d {
				return nil, nil, fmt.Errorf("pc %d: inconsistent stack depth %d vs %d", s.pc, depth[s.pc], s.d)
			}
			continue
		}
		reach[s.pc] = true
		depth[s.pc] = s.d
		in := f.Code[s.pc]
		d := s.d + stackDelta(m, in)
		if d < 0 {
			return nil, nil, fmt.Errorf("pc %d (%s): stack underflow", s.pc, in)
		}
		switch in.Op {
		case ir.OpJump:
			work = append(work, state{int(in.A), d})
		case ir.OpJumpZero:
			work = append(work, state{int(in.A), d}, state{s.pc + 1, d})
		case ir.OpRet:
			if d != 0 {
				return nil, nil, fmt.Errorf("pc %d: return with stack depth %d", s.pc, d)
			}
		default:
			work = append(work, state{s.pc + 1, d})
		}
	}
	return depth, reach, nil
}

// stackDelta returns the net evaluation-stack effect of an instruction.
func stackDelta(m *ir.Module, in ir.Instr) int {
	switch in.Op {
	case ir.OpPush, ir.OpLoadLocal, ir.OpTid, ir.OpNThreads:
		return 1
	case ir.OpStoreLocal, ir.OpJumpZero, ir.OpWork, ir.OpOut, ir.OpLock, ir.OpUnlock, ir.OpBin:
		return -1
	case ir.OpLoadArr, ir.OpNeg, ir.OpNot:
		return 0 // pop one, push one
	case ir.OpStoreArr:
		return -2
	case ir.OpCall:
		return -m.Funcs[in.A].NumParams
	default:
		return 0
	}
}
