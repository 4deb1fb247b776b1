package passes

import (
	"fmt"
	"strconv"

	"commprof/internal/cover"
	"commprof/internal/ir"
)

// Coalesce is the static access-coalescing pass: it runs after Instrument and
// marks probed accesses whose probes are provably redundant so the runtime
// can skip the analysis backend for them (the access itself still executes
// and still ticks the logical clock — see exec.Thread.ReadElided — so
// scheduling is bit-identical with the pass off).
//
// The pass is deliberately conservative and purely local:
//
//   - Within one basic block, a probed access is elided when an earlier access
//     in the block covers it, by the coverage rule of internal/cover (the one
//     the Go-source coalescer runs too): a read is covered by any prior
//     same-address access, a write only by a prior same-address write with
//     no read of any address since, and a kept write clears all coverage,
//     which also makes the decision independent of the runtime granularity.
//   - Addresses are compared symbolically: two accesses match only when their
//     index expressions are structurally identical and no local they mention
//     was stored to in between (SSA-style versioning), and no store could have
//     changed an array value the expressions load.
//   - Any instruction with cross-thread visibility — call, barrier, lock,
//     unlock, work (which can exhaust a scheduling quantum) — and any region
//     marker clears all coverage (see boundary).
//   - For structurally simple innermost loops (straight-line body, no
//     boundary instructions), the block rule is extended across the back
//     edge: the loop span is simulated twice in sequence; a probe covered in
//     both simulations is elided outright, and a probe covered only in the
//     second (i.e. by the previous iteration) is marked once-per-loop-entry —
//     it fires on the first iteration and is elided on the rest, anchored at
//     the loop's OpRegionEnter.
//
// Only the probed access stream matters for soundness: unprobed accesses are
// invisible to the detector, so they contribute no coverage and clear none
// (though any store still invalidates loaded-value symbols).
func Coalesce(m *ir.Module) CoalesceStats {
	var st CoalesceStats
	for fi := range m.Funcs {
		coalesceFunc(m, &m.Funcs[fi], &st)
	}
	return st
}

// CoalesceStats summarises one run of the coalescing pass.
type CoalesceStats struct {
	// Elided counts probes marked statically redundant on every execution.
	Elided int
	// Once counts probes marked redundant on every loop iteration after the
	// first (fired once per loop entry).
	Once int
}

// simState is the symbolic per-straight-line-span simulation state.
type simState struct {
	stack []string
	// localVer versions local slots: a store bumps the version so stale
	// symbols never compare equal.
	localVer map[int64]int
	// storeCount versions loaded array values: any store (probed or not) or
	// boundary may change array contents, so value symbols embed the count.
	storeCount int
	// cover holds the probed accesses' coverage, keyed by symbolic address.
	cover cover.Set
	// opaque generates fresh symbols for unknown stack entries at span entry.
	opaque int
}

func newSimState(entryDepth int) *simState {
	s := &simState{localVer: map[int64]int{}}
	for i := 0; i < entryDepth; i++ {
		s.stack = append(s.stack, s.fresh())
	}
	return s
}

func (s *simState) fresh() string {
	s.opaque++
	return "?" + strconv.Itoa(s.opaque)
}

func (s *simState) push(sym string) { s.stack = append(s.stack, sym) }

func (s *simState) pop() string {
	if len(s.stack) == 0 {
		// Defensive only: span entry depths come from the same abstract
		// interpretation the verifier runs, so underflow cannot happen on
		// lowered code.
		return s.fresh()
	}
	sym := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	return sym
}

// clearCoverage starts a new epoch: all coverage facts are dropped and value
// symbols are invalidated.
func (s *simState) clearCoverage() {
	s.cover.Clear()
	s.storeCount++
}

// step simulates one instruction and reports whether a probed access at this
// instruction is covered (elidable). It must be called for every instruction
// of a straight-line span in order.
func (s *simState) step(m *ir.Module, in ir.Instr) (elide bool) {
	switch in.Op {
	case ir.OpPush:
		s.push("c" + strconv.FormatInt(in.A, 10))
	case ir.OpLoadLocal:
		s.push(fmt.Sprintf("l%d.%d", in.A, s.localVer[in.A]))
	case ir.OpStoreLocal:
		s.pop()
		s.localVer[in.A]++
	case ir.OpTid:
		s.push("tid")
	case ir.OpNThreads:
		s.push("nt")
	case ir.OpBin:
		r := s.pop()
		l := s.pop()
		s.push("(" + l + ir.BinOpName(in.A) + r + ")")
	case ir.OpNeg:
		s.push("(-" + s.pop() + ")")
	case ir.OpNot:
		s.push("(!" + s.pop() + ")")
	case ir.OpLoadArr:
		idx := s.pop()
		key := "A" + strconv.FormatInt(in.A, 10) + "[" + idx + "]"
		elide = in.Probed && s.cover.Read(key)
		s.push("v" + strconv.Itoa(s.storeCount) + "(" + key + ")")
	case ir.OpStoreArr:
		s.pop() // value
		idx := s.pop()
		key := "A" + strconv.FormatInt(in.A, 10) + "[" + idx + "]"
		// An unprobed store is invisible to the detector: no coverage
		// effect. Any store, elided or not, still invalidates loaded values.
		elide = in.Probed && s.cover.Write(key)
		s.storeCount++
	case ir.OpJumpZero, ir.OpWork, ir.OpOut, ir.OpLock, ir.OpUnlock:
		s.pop()
	case ir.OpCall:
		for i := 0; i < m.Funcs[in.A].NumParams; i++ {
			s.pop()
		}
	}
	if boundary(in.Op) {
		s.clearCoverage()
	}
	return elide
}

// boundary reports whether coverage dies at op: an instruction with
// cross-thread visibility (call, barrier, lock, unlock, and work, which can
// exhaust a scheduling quantum and yield mid-span), a region marker, or an
// opcode this pass does not know. Everything else is thread-local.
func boundary(op ir.Op) bool {
	switch op {
	case ir.OpPush, ir.OpLoadLocal, ir.OpStoreLocal, ir.OpTid, ir.OpNThreads,
		ir.OpBin, ir.OpNeg, ir.OpNot, ir.OpLoadArr, ir.OpStoreArr,
		ir.OpJump, ir.OpJumpZero, ir.OpOut, ir.OpRet:
		return false
	}
	return true
}

// coalesceFunc analyses one function and marks elidable probes in place.
func coalesceFunc(m *ir.Module, f *ir.Func, st *CoalesceStats) {
	probed := false
	for _, in := range f.Code {
		if in.Probed {
			probed = true
			break
		}
	}
	if !probed {
		return
	}
	depth, reach, err := stackDepths(m, f)
	if err != nil {
		return // Verify reports it
	}
	leaders := blockLeaders(f)
	loops := eligibleLoops(f, leaders, depth)

	// Probes inside an eligible loop span are decided by the loop analysis,
	// which strictly subsumes the block rule there.
	inLoop := make([]bool, len(f.Code))
	for _, l := range loops {
		for pc := l.start; pc <= l.end; pc++ {
			inLoop[pc] = true
		}
	}

	// Block-local pass.
	var s *simState
	for pc := 0; pc < len(f.Code); pc++ {
		if leaders[pc] || s == nil {
			if !reach[pc] {
				s = nil
				continue
			}
			s = newSimState(depth[pc])
		}
		if s.step(m, f.Code[pc]) && !inLoop[pc] {
			f.Code[pc].Elide = true
			st.Elided++
		}
	}

	// Loop pass: simulate each eligible span twice in sequence.
	for _, l := range loops {
		s := newSimState(0)
		first := map[int]bool{}
		for pc := l.start; pc <= l.end; pc++ {
			first[pc] = s.step(m, f.Code[pc])
		}
		for pc := l.start; pc <= l.end; pc++ {
			if !s.step(m, f.Code[pc]) {
				continue
			}
			if first[pc] {
				f.Code[pc].Elide = true
				st.Elided++
			} else {
				anchor := l.start - 1
				if anchor <= 0 {
					// Cannot happen: the function's own region marker
					// occupies pc 0, so a loop header is never at pc 1.
					continue
				}
				f.Code[pc].OnceAnchor = int32(anchor)
				st.Once++
			}
		}
	}
}

// blockLeaders marks the first instruction of every basic block.
func blockLeaders(f *ir.Func) []bool {
	leaders := make([]bool, len(f.Code))
	if len(leaders) > 0 {
		leaders[0] = true
	}
	mark := func(pc int) {
		if pc >= 0 && pc < len(leaders) {
			leaders[pc] = true
		}
	}
	for pc, in := range f.Code {
		switch in.Op {
		case ir.OpJump, ir.OpJumpZero:
			mark(int(in.A))
			mark(pc + 1)
		case ir.OpRet:
			mark(pc + 1)
		}
	}
	return leaders
}

// loopSpan is an eligible innermost loop: Code[start..end] is the header
// condition plus straight-line body, end holds the back-edge jump, and
// Code[start-1] is the loop's OpRegionEnter (the once-per-entry anchor).
type loopSpan struct{ start, end int }

// eligibleLoops finds loops the cross-iteration rule may treat as straight
// lines: exactly one conditional exit to just past the back edge, no other
// jumps into or inside the span, no boundary instructions, and a region
// marker immediately before the header (every MiniPar for/parfor/while has
// one; anything else is not a surface loop).
func eligibleLoops(f *ir.Func, leaders []bool, depth []int) []loopSpan {
	var out []loopSpan
	for pc, in := range f.Code {
		if in.Op != ir.OpJump || int(in.A) >= pc {
			continue
		}
		start := int(in.A)
		if start < 1 || f.Code[start-1].Op != ir.OpRegionEnter || depth[start] != 0 {
			continue
		}
		jz := -1
		ok := true
		for p := start; p < pc && ok; p++ {
			switch f.Code[p].Op {
			case ir.OpJump, ir.OpRet:
				ok = false
			case ir.OpJumpZero:
				if jz >= 0 || int(f.Code[p].A) != pc+1 {
					ok = false
				}
				jz = p
			default:
				ok = !boundary(f.Code[p].Op)
			}
		}
		if !ok || jz < 0 {
			continue
		}
		// No jump elsewhere in the function may target the inside of the
		// span (the body start after the conditional exit is expected).
		for p := start + 1; p <= pc && ok; p++ {
			if leaders[p] && p != jz+1 {
				ok = false
			}
		}
		if ok {
			out = append(out, loopSpan{start, pc})
		}
	}
	return out
}
