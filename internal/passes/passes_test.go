package passes

import (
	"slices"
	"strings"
	"testing"

	"commprof/internal/ir"
	"commprof/internal/minipar"
	"commprof/internal/trace"
)

const pipelineSrc = `
array A[32];
func main() {
  parfor i = 0..32 {
    A[i] = i * 2;
    for j = 0..2 {
      A[i] = A[i] + j;
    }
  }
  barrier;
  call finish();
}
func finish() {
  while 0 { work 1; }
  out A[0];
}
`

func mustParse(t *testing.T, src string) *minipar.Program {
	t.Helper()
	p, err := minipar.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAnnotateAssignsLoopUIDs(t *testing.T) {
	prog := mustParse(t, pipelineSrc)
	table, err := Annotate(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Regions: main(func), main#parfor0(loop), main#for1(loop, nested),
	// finish(func), finish#while0(loop).
	if table.Len() != 5 {
		t.Fatalf("table has %d regions:\n%+v", table.Len(), table.Regions)
	}
	mainFn := &prog.Funcs[slices.IndexFunc(prog.Funcs, func(f minipar.FuncDecl) bool { return f.Name == "main" })]
	outer := mainFn.Body[0].(*minipar.ForStmt)
	if outer.RegionID < 0 {
		t.Fatal("outer loop not annotated")
	}
	inner := outer.Body[1].(*minipar.ForStmt)
	if inner.RegionID < 0 {
		t.Fatal("inner loop not annotated")
	}
	// Nesting: inner's parent is outer; outer's parent is main.
	if got := table.MustRegion(inner.RegionID).Parent; got != outer.RegionID {
		t.Fatalf("inner parent = %d, want %d", got, outer.RegionID)
	}
	if got := table.MustRegion(outer.RegionID).Parent; got != mainFn.RegionID {
		t.Fatalf("outer parent = %d, want %d", got, mainFn.RegionID)
	}
	reg := table.MustRegion(outer.RegionID)
	if reg.Kind != trace.LoopRegion || !strings.Contains(reg.Name, "parfor") {
		t.Fatalf("outer region: %+v", reg)
	}
}

func TestFoldConstants(t *testing.T) {
	prog := mustParse(t, `array A[4]; func main() { x = 2*3+4; y = -(1+1); z = 1 < 2; A[1+1] = x; if 4/0 == 0 { } }`)
	FoldConstants(prog)
	body := prog.Funcs[0].Body
	if lit := body[0].(*minipar.AssignStmt).Expr.(*minipar.IntLit); lit.Value != 10 {
		t.Fatalf("x = %d", lit.Value)
	}
	if lit := body[1].(*minipar.AssignStmt).Expr.(*minipar.IntLit); lit.Value != -2 {
		t.Fatalf("y = %d", lit.Value)
	}
	if lit := body[2].(*minipar.AssignStmt).Expr.(*minipar.IntLit); lit.Value != 1 {
		t.Fatalf("z = %d", lit.Value)
	}
	if lit := body[3].(*minipar.StoreStmt).Index.(*minipar.IntLit); lit.Value != 2 {
		t.Fatalf("store index = %d", lit.Value)
	}
	// Division by constant zero must NOT fold (runtime error preserved).
	cond := body[4].(*minipar.IfStmt).Cond.(*minipar.BinExpr)
	if _, folded := cond.L.(*minipar.IntLit); folded {
		t.Fatal("4/0 was folded away")
	}
}

func TestLowerRequiresAnnotation(t *testing.T) {
	prog := mustParse(t, `func main() { for i = 0..2 { work 1; } }`)
	if _, err := Lower(prog); err == nil {
		t.Fatal("lowering unannotated program must fail")
	}
}

func TestLowerUndefinedVariable(t *testing.T) {
	prog := mustParse(t, `func main() { x = y; }`)
	if _, err := Annotate(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := Lower(prog); err == nil || !strings.Contains(err.Error(), "before assignment") {
		t.Fatalf("err = %v", err)
	}
}

func TestCompilePipeline(t *testing.T) {
	mod, table, _, err := CompileWith(pipelineSrc, Options{Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 5 {
		t.Fatalf("regions = %d", table.Len())
	}
	if len(mod.Funcs) != 2 || mod.MainIndex != 0 {
		t.Fatalf("module shape: %d funcs, main %d", len(mod.Funcs), mod.MainIndex)
	}
	// Every array access must be probed (whole-program instrumentation).
	loads, stores, probed := 0, 0, 0
	for _, f := range mod.Funcs {
		for _, in := range f.Code {
			switch in.Op {
			case ir.OpLoadArr:
				loads++
			case ir.OpStoreArr:
				stores++
			}
			if in.Probed {
				probed++
			}
		}
	}
	if probed != loads+stores || probed == 0 {
		t.Fatalf("probes %d, loads %d, stores %d", probed, loads, stores)
	}
	dis := mod.Disassemble()
	for _, want := range []string{"func main", "loadarr", "!probe", "regenter"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q", want)
		}
	}
}

func TestSelectiveInstrumentation(t *testing.T) {
	prog := mustParse(t, pipelineSrc)
	if _, err := Annotate(prog); err != nil {
		t.Fatal(err)
	}
	mod, err := Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	n := Instrument(mod, map[string]bool{"finish": true})
	if n == 0 {
		t.Fatal("no probes inserted")
	}
	// main's accesses must be unprobed.
	mi := mod.FindFunc("main")
	for _, in := range mod.Funcs[mi].Code {
		if in.Probed {
			t.Fatal("main instrumented despite selective set")
		}
	}
	// Idempotent: re-instrumenting inserts nothing new.
	if again := Instrument(mod, map[string]bool{"finish": true}); again != 0 {
		t.Fatalf("re-instrumentation inserted %d probes", again)
	}
}

func TestVerifyAcceptsCompiledPrograms(t *testing.T) {
	srcs := []string{
		pipelineSrc,
		`func main() { x = 1; if x { out x; } else { out 0; } }`,
		`array A[4]; func main() { lock 2 { A[0] = A[0] + 1; } }`,
		`func main() { call f(1,2,3); } func f(a,b,c) { out a+b+c; }`,
	}
	for i, src := range srcs {
		if _, _, _, err := CompileWith(src, Options{Coalesce: true}); err != nil {
			t.Errorf("program %d failed: %v", i, err)
		}
	}
}

func TestVerifyCatchesCorruptIR(t *testing.T) {
	mod, _, _, err := CompileWith(`func main() { out 1; }`, Options{Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: jump out of range.
	bad := *mod
	bad.Funcs = append([]ir.Func(nil), mod.Funcs...)
	bad.Funcs[0].Code = append([]ir.Instr(nil), mod.Funcs[0].Code...)
	bad.Funcs[0].Code[0] = ir.Instr{Op: ir.OpJump, A: 999}
	if err := Verify(&bad); err == nil {
		t.Error("out-of-range jump accepted")
	}
	// Corrupt: stack underflow.
	bad2 := *mod
	bad2.Funcs = append([]ir.Func(nil), mod.Funcs...)
	bad2.Funcs[0].Code = []ir.Instr{{Op: ir.OpBin, A: ir.BinAdd}, {Op: ir.OpRet}}
	if err := Verify(&bad2); err == nil {
		t.Error("stack underflow accepted")
	}
	// Corrupt: leftover stack at return.
	bad3 := *mod
	bad3.Funcs = append([]ir.Func(nil), mod.Funcs...)
	bad3.Funcs[0].Code = []ir.Instr{{Op: ir.OpPush, A: 1}, {Op: ir.OpRet}}
	if err := Verify(&bad3); err == nil {
		t.Error("unbalanced stack at return accepted")
	}
	// Corrupt: bad local slot.
	bad4 := *mod
	bad4.Funcs = append([]ir.Func(nil), mod.Funcs...)
	bad4.Funcs[0].Code = []ir.Instr{{Op: ir.OpLoadLocal, A: 99}, {Op: ir.OpOut}, {Op: ir.OpRet}}
	if err := Verify(&bad4); err == nil {
		t.Error("bad local slot accepted")
	}
}

func TestCompileRejectsParseErrors(t *testing.T) {
	if _, _, _, err := CompileWith("this is not minipar", Options{Coalesce: true}); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLowerErrorPaths(t *testing.T) {
	// Constructions that parse and annotate but fail lowering: unknown
	// variable usage in every statement position that evaluates expressions.
	cases := []string{
		`func main() { work u; }`,
		`func main() { out u; }`,
		`func main() { for i = u..1 { } }`,
		`func main() { for i = 0..u { } }`,
		`func main() { parfor i = u..1 { } }`,
		`func main() { while u { } }`,
		`func main() { if u { } }`,
		`func main() { lock u { } }`,
		`array A[2]; func main() { A[u] = 1; }`,
		`array A[2]; func main() { A[0] = u; }`,
		`array A[2]; func main() { x = A[u]; }`,
		`func main() { x = -u; }`,
		`func main() { x = !u; }`,
		`func main() { x = 1 + u; }`,
		`func main() { call f(u); } func f(x) {}`,
	}
	for _, src := range cases {
		prog := mustParse(t, src)
		if _, err := Annotate(prog); err != nil {
			t.Fatalf("%q: annotate: %v", src, err)
		}
		if _, err := Lower(prog); err == nil {
			t.Errorf("lowered %q despite undefined variable", src)
		}
	}
}
