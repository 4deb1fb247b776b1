// Package ir defines the stack-machine intermediate representation that
// MiniPar programs are lowered to. It is the analogue of the LLVM IR the
// paper instruments: loads and stores of shared arrays are discrete
// instructions that the instrumentation pass (internal/passes) marks with
// probes, and region-enter/exit markers carry the loop UIDs assigned by the
// static annotation pass (Listing 1's metadata nodes).
package ir

import (
	"fmt"
	"strings"
)

// Op enumerates instruction opcodes.
type Op uint8

// Opcodes.
const (
	// OpPush pushes the immediate A.
	OpPush Op = iota
	// OpLoadLocal pushes local slot A.
	OpLoadLocal
	// OpStoreLocal pops into local slot A.
	OpStoreLocal
	// OpTid pushes the executing thread's ID.
	OpTid
	// OpNThreads pushes the thread count.
	OpNThreads
	// OpBin pops R then L and pushes L <op> R; A encodes the operator.
	OpBin
	// OpNeg negates the top of stack.
	OpNeg
	// OpNot logically negates the top of stack (0 -> 1, non-0 -> 0).
	OpNot
	// OpLoadArr pops an index and pushes array A's element; Probed loads
	// fire the instrumentation hook.
	OpLoadArr
	// OpStoreArr pops a value then an index and stores to array A.
	OpStoreArr
	// OpJump jumps to instruction A.
	OpJump
	// OpJumpZero pops; jumps to A when zero.
	OpJumpZero
	// OpBarrier synchronises all threads.
	OpBarrier
	// OpWork pops N and simulates N units of computation.
	OpWork
	// OpOut pops a value and appends it to the run output.
	OpOut
	// OpCall calls function A (arguments are popped by the callee prologue).
	OpCall
	// OpRet returns from the current function.
	OpRet
	// OpRegionEnter pushes static region A onto the thread's region stack.
	OpRegionEnter
	// OpRegionExit pops the thread's region stack.
	OpRegionExit
	// OpLock pops a mutex ID and acquires it.
	OpLock
	// OpUnlock pops a mutex ID and releases it.
	OpUnlock
)

var opNames = [...]string{
	"push", "loadlocal", "storelocal", "tid", "nthreads", "bin", "neg", "not",
	"loadarr", "storearr", "jump", "jz", "barrier", "work", "out",
	"call", "ret", "regenter", "regexit", "lock", "unlock",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Binary operators for OpBin's A field.
const (
	BinAdd = iota
	BinSub
	BinMul
	BinDiv
	BinMod
	BinEq
	BinNe
	BinLt
	BinLe
	BinGt
	BinGe
	BinAnd
	BinOr
)

var binNames = [...]string{"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||"}

// BinOpName returns the source form of a binary operator code.
func BinOpName(code int64) string {
	if code >= 0 && int(code) < len(binNames) {
		return binNames[code]
	}
	return fmt.Sprintf("bin(%d)", code)
}

// BinOpCode returns the operator code for a source operator.
func BinOpCode(op string) (int64, error) {
	for i, n := range binNames {
		if n == op {
			return int64(i), nil
		}
	}
	return 0, fmt.Errorf("ir: unknown binary operator %q", op)
}

// EvalBin applies operator code to l and r: MiniPar's one definition of
// integer arithmetic, shared by the constant folder and the interpreter so a
// folded expression always means what the running one would. Comparisons and
// logic yield 1 or 0; a zero divisor or an unknown code is an error.
func EvalBin(code, l, r int64) (int64, error) {
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	switch code {
	case BinAdd:
		return l + r, nil
	case BinSub:
		return l - r, nil
	case BinMul:
		return l * r, nil
	case BinDiv:
		if r == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return l / r, nil
	case BinMod:
		if r == 0 {
			return 0, fmt.Errorf("modulo by zero")
		}
		return l % r, nil
	case BinEq:
		return b(l == r), nil
	case BinNe:
		return b(l != r), nil
	case BinLt:
		return b(l < r), nil
	case BinLe:
		return b(l <= r), nil
	case BinGt:
		return b(l > r), nil
	case BinGe:
		return b(l >= r), nil
	case BinAnd:
		return b(l != 0 && r != 0), nil
	case BinOr:
		return b(l != 0 || r != 0), nil
	default:
		return 0, fmt.Errorf("unknown operator code %d", code)
	}
}

// Instr is one instruction.
type Instr struct {
	Op Op
	// A is the immediate: value for push, slot, array index, jump target,
	// function index, region ID or operator code depending on Op.
	A int64
	// Probed marks shared-memory instructions the instrumentation pass has
	// selected; only probed accesses reach the profiler.
	Probed bool
	// Elide marks a probed access the coalescing pass proved redundant in
	// every execution: the runtime still ticks the logical clock and the
	// access counters (so scheduling is bit-identical), but skips the probe.
	Elide bool
	// OnceAnchor, when non-zero, marks a probed access that is redundant on
	// every loop iteration except the first: the runtime fires the probe the
	// first time the access executes after the OpRegionEnter at this pc
	// (the loop header's region marker) and elides subsequent executions.
	// Zero means unset — a loop RegionEnter can never sit at pc 0, which the
	// function prologue's region marker occupies.
	OnceAnchor int32
	// Line is the source line for diagnostics.
	Line int
}

// String renders the instruction.
func (i Instr) String() string {
	p := ""
	switch {
	case i.Probed && i.Elide:
		p = " !probe:elided"
	case i.Probed && i.OnceAnchor != 0:
		p = fmt.Sprintf(" !probe:once@%d", i.OnceAnchor)
	case i.Probed:
		p = " !probe"
	}
	switch i.Op {
	case OpBin:
		return fmt.Sprintf("bin %s%s", BinOpName(i.A), p)
	case OpTid, OpNThreads, OpBarrier, OpRet, OpRegionExit, OpNeg, OpNot, OpWork, OpOut, OpLock, OpUnlock:
		return i.Op.String() + p
	default:
		return fmt.Sprintf("%s %d%s", i.Op, i.A, p)
	}
}

// Array describes one shared array of 8-byte elements.
type Array struct {
	Name string
	Size int64
}

// Func is a compiled function body.
type Func struct {
	Name string
	// NumParams is the count of parameters; the caller pushes arguments
	// left-to-right and the prologue (emitted by the lowerer) pops them
	// into slots [0, NumParams).
	NumParams int
	// NumLocals is the total local-slot count including parameters.
	NumLocals int
	// Code is the instruction sequence; execution falls off the end as an
	// implicit return.
	Code []Instr
	// RegionID is the function's static region.
	RegionID int32
}

// Module is a compiled MiniPar program.
type Module struct {
	Arrays []Array
	Funcs  []Func
	// MainIndex is the index of main in Funcs.
	MainIndex int
	// LockBase offsets user lock IDs so they cannot collide with engine-
	// internal locks used by the runtime.
	LockBase int
}

// FindFunc returns the index of the named function, or -1.
func (m *Module) FindFunc(name string) int {
	for i := range m.Funcs {
		if m.Funcs[i].Name == name {
			return i
		}
	}
	return -1
}

// Disassemble renders the whole module for debugging and golden tests.
func (m *Module) Disassemble() string {
	var b strings.Builder
	for _, a := range m.Arrays {
		fmt.Fprintf(&b, "array %s[%d]\n", a.Name, a.Size)
	}
	for _, f := range m.Funcs {
		fmt.Fprintf(&b, "func %s (params=%d locals=%d region=%d)\n", f.Name, f.NumParams, f.NumLocals, f.RegionID)
		for pc, in := range f.Code {
			fmt.Fprintf(&b, "  %4d  %s\n", pc, in)
		}
	}
	return b.String()
}
