package passes

import (
	"fmt"
	"strconv"

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
//     in the block covers it: a read is covered by any prior same-address
//     access (read or write) by the same thread; a write is covered by a prior
//     same-address write with no intervening reads of any address (the reads
//     would otherwise need their reader-set marks re-cleared — PR 4's
//     fall-through rule). A kept write starts a new epoch: it clears all
//     coverage, which also makes the decision independent of the runtime
//     granularity (two addresses that alias into one granule can never both
//     carry coverage across a write).
//   - Addresses are compared symbolically: two accesses match only when their
//     index expressions are structurally identical and no local they mention
//     was stored to in between (SSA-style versioning), and no store could have
//     changed an array value the expressions load.
//   - Any instruction with cross-thread visibility — call, barrier, lock,
//     unlock, work (which can exhaust a scheduling quantum) — and any region
//     marker clears all coverage.
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

// kindCover records which access kind established coverage for a key.
type kindCover uint8

const (
	coverRead kindCover = iota + 1
	coverWrite
)

// simState is the symbolic per-straight-line-span simulation state.
type simState struct {
	stack []string
	// localVer versions local slots: a store bumps the version so stale
	// symbols never compare equal.
	localVer map[int64]int
	// storeCount versions loaded array values: any store (probed or not) or
	// boundary may change array contents, so value symbols embed the count.
	storeCount int
	// cover maps an address key to the kind of the covering access.
	cover map[string]kindCover
	// reads counts probed reads (kept or elided) in the span; writeReads
	// snapshots it at each covering write, so a later same-key write is
	// elidable only when no reads happened in between.
	reads      uint64
	writeReads map[string]uint64
	// opaque generates fresh symbols for unknown stack entries at span entry.
	opaque int
}

func newSimState(entryDepth int) *simState {
	s := &simState{
		localVer:   map[int64]int{},
		cover:      map[string]kindCover{},
		writeReads: map[string]uint64{},
	}
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
	for k := range s.cover {
		delete(s.cover, k)
	}
	for k := range s.writeReads {
		delete(s.writeReads, k)
	}
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
		if in.Probed {
			s.reads++
			if s.cover[key] != 0 {
				elide = true
			} else {
				s.cover[key] = coverRead
			}
		}
		s.push("v" + strconv.Itoa(s.storeCount) + "(" + key + ")")
	case ir.OpStoreArr:
		s.pop() // value
		idx := s.pop()
		key := "A" + strconv.FormatInt(in.A, 10) + "[" + idx + "]"
		if in.Probed {
			if s.cover[key] == coverWrite && s.writeReads[key] == s.reads {
				elide = true
				s.storeCount++ // the store still changes memory
			} else {
				s.clearCoverage()
				s.cover[key] = coverWrite
				s.writeReads[key] = s.reads
			}
		} else {
			// Invisible to the detector: no coverage effect, but the store
			// still invalidates loaded values.
			s.storeCount++
		}
	case ir.OpJumpZero:
		s.pop()
	case ir.OpJump, ir.OpRet:
		// No stack effect.
	case ir.OpWork, ir.OpOut:
		s.pop()
		if in.Op == ir.OpWork {
			// Work can exhaust the scheduling quantum and yield mid-span.
			s.clearCoverage()
		}
	case ir.OpBarrier, ir.OpRegionEnter, ir.OpRegionExit:
		s.clearCoverage()
	case ir.OpLock, ir.OpUnlock:
		s.pop()
		s.clearCoverage()
	case ir.OpCall:
		for i := 0; i < m.Funcs[in.A].NumParams; i++ {
			s.pop()
		}
		s.clearCoverage()
	default:
		s.clearCoverage()
	}
	return elide
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
	depth, reach, ok := stackDepths(m, f)
	if !ok {
		return
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

// stackDepths runs the verifier's abstract stack interpretation, returning
// the entry depth and reachability of every pc. ok is false when the code is
// structurally inconsistent (the later Verify will reject it).
func stackDepths(m *ir.Module, f *ir.Func) (depth []int, reach []bool, ok bool) {
	n := len(f.Code)
	depth = make([]int, n)
	reach = make([]bool, n)
	type state struct{ pc, d int }
	work := []state{{0, f.NumParams}}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		if s.pc < 0 || s.pc >= n {
			continue
		}
		if reach[s.pc] {
			if depth[s.pc] != s.d {
				return nil, nil, false
			}
			continue
		}
		reach[s.pc] = true
		depth[s.pc] = s.d
		in := f.Code[s.pc]
		d := s.d + stackDelta(m, in)
		if d < 0 {
			return nil, nil, false
		}
		switch in.Op {
		case ir.OpJump:
			work = append(work, state{int(in.A), d})
		case ir.OpJumpZero:
			work = append(work, state{int(in.A), d}, state{s.pc + 1, d})
		case ir.OpRet:
		default:
			work = append(work, state{s.pc + 1, d})
		}
	}
	return depth, reach, true
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
			case ir.OpCall, ir.OpBarrier, ir.OpLock, ir.OpUnlock, ir.OpWork,
				ir.OpRegionEnter, ir.OpRegionExit:
				ok = false
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
