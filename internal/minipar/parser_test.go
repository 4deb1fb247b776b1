package minipar

import (
	"fmt"
	"strings"
	"testing"
)

const sampleSrc = `
// stencil demo
array A[64];
array B[64];

func main() {
  parfor i = 0..64 {
    A[i] = tid;
  }
  barrier;
  call smooth(3);
}

func smooth(rounds) {
  for r = 0..rounds {
    parfor i = 1..63 {
      B[i] = (A[i-1] + A[i] + A[i+1]) / 3;
      work 2;
    }
    barrier;
  }
  if tid == 0 {
    out B[32];
  }
}
`

// findFunc returns the function with the given name.
func findFunc(p *Program, name string) (*FuncDecl, bool) {
	for i := range p.Funcs {
		if p.Funcs[i].Name == name {
			return &p.Funcs[i], true
		}
	}
	return nil, false
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("parfor i = 0..10 { A[i] = i*2; } // c")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{TokParfor, TokIdent, TokAssign, TokInt, TokDotDot, TokInt,
		TokLBrace, TokIdent, TokLBracket, TokIdent, TokRBracket, TokAssign,
		TokIdent, TokStar, TokInt, TokSemi, TokRBrace, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Fatalf("token %d = %s, want %s", i, toks[i].Kind, k)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("a at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("b at %d:%d", toks[1].Line, toks[1].Col)
	}
}

func TestLexTwoCharOperators(t *testing.T) {
	toks, err := Lex("== != <= >= && || ..")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{TokEq, TokNe, TokLe, TokGe, TokAndAnd, TokOrOr, TokDotDot, TokEOF}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Fatalf("token %d = %s, want %s", i, toks[i].Kind, k)
		}
	}
	// Every punctuation spelling of the table lexes to one token of its kind.
	for k, s := range tokNames {
		if isIdentStart(s[0]) {
			continue
		}
		toks, err := Lex(s)
		if err != nil || len(toks) != 2 || toks[0].Kind != k || toks[0].Text != s {
			t.Errorf("Lex(%q) = %v, %v; want one %s token", s, toks, err, k)
		}
	}
	// Longest match first: "<==" is "<=" then "=".
	toks, err = Lex("<==")
	if err != nil || len(toks) != 3 || toks[0].Kind != TokLe || toks[1].Kind != TokAssign {
		t.Errorf("Lex(\"<==\") = %v, %v; want <= = EOF", toks, err)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("a @ b"); err == nil {
		t.Error("bad character accepted")
	}
	if _, err := Lex("99999999999999999999"); err == nil {
		t.Error("overflow integer accepted")
	}
}

func TestParseSample(t *testing.T) {
	prog, err := Parse(sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Arrays) != 2 || len(prog.Funcs) != 2 {
		t.Fatalf("decls: %d arrays %d funcs", len(prog.Arrays), len(prog.Funcs))
	}
	mainFn, ok := findFunc(prog, "main")
	if !ok || len(mainFn.Body) != 3 {
		t.Fatalf("main body: %v", mainFn)
	}
	pf, ok := mainFn.Body[0].(*ForStmt)
	if !ok || !pf.Parallel || pf.Var != "i" {
		t.Fatalf("first stmt: %#v", mainFn.Body[0])
	}
	smooth, _ := findFunc(prog, "smooth")
	if len(smooth.Params) != 1 || smooth.Params[0] != "rounds" {
		t.Fatalf("smooth params: %v", smooth.Params)
	}
	inner, ok := smooth.Body[0].(*ForStmt)
	if !ok || inner.Parallel {
		t.Fatalf("smooth outer loop: %#v", smooth.Body[0])
	}
	if prog.FindArray("A") != 0 || prog.FindArray("missing") != -1 {
		t.Fatal("FindArray wrong")
	}
}

func TestParsePrecedence(t *testing.T) {
	prog, err := Parse(`array A[4]; func main() { x = 1 + 2 * 3 < 10 && 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	as := prog.Funcs[0].Body[0].(*AssignStmt)
	// Top: &&
	and, ok := as.Expr.(*BinExpr)
	if !ok || and.Op != "&&" {
		t.Fatalf("top op: %#v", as.Expr)
	}
	cmp, ok := and.L.(*BinExpr)
	if !ok || cmp.Op != "<" {
		t.Fatalf("left of &&: %#v", and.L)
	}
	add, ok := cmp.L.(*BinExpr)
	if !ok || add.Op != "+" {
		t.Fatalf("left of <: %#v", cmp.L)
	}
	mul, ok := add.R.(*BinExpr)
	if !ok || mul.Op != "*" {
		t.Fatalf("right of +: %#v", add.R)
	}

	for src, want := range map[string]string{
		"8 - 4 - 2":  "((8 - 4) - 2)", // left associativity
		"16 / 4 / 2": "((16 / 4) / 2)",
		"- ! -1":     "(-(!(-1)))", // repeated prefixes
	} {
		prog, err := Parse("func main() { x = " + src + "; }")
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := paren(prog.Funcs[0].Body[0].(*AssignStmt).Expr); got != want {
			t.Errorf("%s parses as %s, want %s", src, got, want)
		}
	}
	// Comparisons do not chain.
	_, err = Parse("func main() { x = 1 < 2 < 3; }")
	if want := "minipar: 1:25: expected ;, found <"; err == nil || err.Error() != want {
		t.Errorf("chained comparison: got %v, want %s", err, want)
	}
}

// paren renders an expression of literals and operators fully bracketed.
func paren(e Expr) string {
	switch e := e.(type) {
	case *IntLit:
		return fmt.Sprint(e.Value)
	case *BinExpr:
		return "(" + paren(e.L) + " " + e.Op + " " + paren(e.R) + ")"
	case *UnaryExpr:
		return "(" + e.Op + paren(e.X) + ")"
	}
	return fmt.Sprintf("%T", e)
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no main":           `array A[4]; func f() {}`,
		"main with params":  `func main(x) {}`,
		"dup array":         `array A[4]; array A[4]; func main() {}`,
		"dup func":          `func main() {} func main() {}`,
		"zero array":        `array A[0]; func main() {}`,
		"undeclared array":  `func main() { A[0] = 1; }`,
		"undeclared read":   `array A[4]; func main() { A[0] = B[0]; }`,
		"unknown call":      `func main() { call f(); }`,
		"bad arity":         `func main() { call f(1); } func f() {}`,
		"unterminated":      `func main() {`,
		"stmt start":        `func main() { ..; }`,
		"missing semicolon": `func main() { x = 1 }`,
		"garbage top level": `banana`,
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: accepted %q", name, src)
		}
	}
}

func TestParseAllStatementForms(t *testing.T) {
	src := `
array A[8];
func main() {
  x = -3;
  y = !0;
  A[0] = x;
  if x < 0 { A[1] = 1; } else { A[1] = 2; }
  while x < 0 { x = x + 1; }
  for i = 0..4 { work i; }
  parfor j = 0..8 { A[j] = j; }
  lock 1 { A[2] = A[2] + 1; }
  barrier;
  out A[2];
  call helper(1, 2);
}
func helper(a, b) { A[a] = b; }
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := findFunc(prog, "main")
	if len(m.Body) != 11 {
		t.Fatalf("main has %d statements", len(m.Body))
	}
	if _, ok := m.Body[7].(*LockStmt); !ok {
		t.Fatalf("stmt 7: %#v", m.Body[7])
	}
}

func TestTokenStrings(t *testing.T) {
	if TokParfor.String() != "parfor" || TokEOF.String() != "EOF" {
		t.Error("token names wrong")
	}
	tok := Token{Kind: TokInt, Int: 42, Line: 3, Col: 7}
	if tok.String() != "42" || !strings.Contains(tok.Pos(), "3:7") {
		t.Error("token rendering wrong")
	}
	if TokKind(250).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestParseErrorBranches(t *testing.T) {
	// Each case aims a specific production's error path.
	cases := []string{
		`func main() { for = 0..1 { } }`,          // for: missing loop var
		`func main() { for i 0..1 { } }`,          // for: missing =
		`func main() { for i = ..1 { } }`,         // for: bad from-expr
		`func main() { for i = 0 1 { } }`,         // for: missing ..
		`func main() { for i = 0.. { } }`,         // for: bad to-expr
		`func main() { for i = 0..1 ( ) }`,        // for: missing block
		`func main() { x = 1 || ; }`,              // ||: bad rhs
		`func main() { x = 1 && ; }`,              // &&: bad rhs
		`func main() { x = 1 < ; }`,               // comparison: bad rhs
		`func main() { x = 1 + ; }`,               // +: bad rhs
		`func main() { x = 1 * ; }`,               // *: bad rhs
		`func main() { x = - ; }`,                 // unary: bad operand
		`func main() { x = ! ; }`,                 // unary: bad operand
		`func main() { x = (1; }`,                 // primary: unclosed paren
		`func main() { x = A[1; }`,                // primary: unclosed index
		`func main() { A[1 = 2; }`,                // store: unclosed index
		`func main() { while { } }`,               // while: bad cond
		`func main() { if { } }`,                  // if: bad cond
		`func main() { lock { } }`,                // lock: bad id
		`func main() { work ; }`,                  // work: bad expr
		`func main() { out ; }`,                   // out: bad expr
		`func main() { call f(1,; } func f(x) {}`, // call: bad arg list
		`func main() { call f(; } func f() {}`,    // call: unclosed args
		`array A[x]; func main() {}`,              // array: non-int size
		`array A; func main() {}`,                 // array: missing brackets
		`func (x) {}`,                             // func: missing name
		`func f(1) {}`,                            // func: bad param
		`func f(a {}`,                             // func: unclosed params
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}
