package minipar_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"commprof/internal/minipar"
	"commprof/internal/passes"
)

// The identity wall: what the front end makes of every input below — its
// token stream or lex error, and its AST or parse error — is pinned, the real
// corpus by a golden file and tens of thousands of seeded inputs by the
// SHA-256 of their rendering. A rewrite of the lexer or the parser that is
// meant to change nothing must leave both as they are.

var update = flag.Bool("update", false, "rewrite testdata/frontend.golden from this build")

// frontendSeededSHA256 is the SHA-256 of the rendering of seededInputs, each
// input quoted on a line of its own before its rendering.
const frontendSeededSHA256 = "1a3127e304f165f26fb1a2220b998e413ecc2023970aac7ee42a980c7940efcf"

// minSeeded is the least number of seeded inputs the wall renders.
const minSeeded = 50000

// parserTestSources are the MiniPar sources of the package's parser, lexer
// and fuzz tests, as they read when the wall was recorded.
var parserTestSources = []string{
	`
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
`,
	`
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
`,
	"parfor i = 0..10 { A[i] = i*2; } // c",
	"a\n  b",
	"== != <= >= && || ..",
	"a @ b",
	"99999999999999999999",
	"array A[4]; func main() { x = 1 + 2 * 3 < 10 && 1; }",
	"array A[4]; func f() {}",
	"func main(x) {}",
	"array A[4]; array A[4]; func main() {}",
	"func main() {} func main() {}",
	"array A[0]; func main() {}",
	"func main() { A[0] = 1; }",
	"array A[4]; func main() { A[0] = B[0]; }",
	"func main() { call f(); }",
	"func main() { call f(1); } func f() {}",
	"func main() {",
	"func main() { ..; }",
	"func main() { x = 1 }",
	"banana",
	"func main() { for = 0..1 { } }",
	"func main() { for i 0..1 { } }",
	"func main() { for i = ..1 { } }",
	"func main() { for i = 0 1 { } }",
	"func main() { for i = 0.. { } }",
	"func main() { for i = 0..1 ( ) }",
	"func main() { x = 1 || ; }",
	"func main() { x = 1 && ; }",
	"func main() { x = 1 < ; }",
	"func main() { x = 1 + ; }",
	"func main() { x = 1 * ; }",
	"func main() { x = - ; }",
	"func main() { x = ! ; }",
	"func main() { x = (1; }",
	"func main() { x = A[1; }",
	"func main() { A[1 = 2; }",
	"func main() { while { } }",
	"func main() { if { } }",
	"func main() { lock { } }",
	"func main() { work ; }",
	"func main() { out ; }",
	"func main() { call f(1,; } func f(x) {}",
	"func main() { call f(; } func f() {}",
	"array A[x]; func main() {}",
	"array A; func main() {}",
	"func (x) {}",
	"func f(1) {}",
	"func f(a {}",
	"func main() {}",
	"array A[1]; func main() { A[0] = tid; }",
	"func main() { parfor i = 0..10 { work i; } }",
	"func main() { if 1 { } else { } }",
	"func main() { lock 0 { } }",
	"func main() { while 0 { } }",
	"func main() { x = ((1+2)*3)/4 % 5; out x; }",
	"// only a comment",
	"",
	"array",
	"func main( { }",
	"func main() { x = 1 }\x00",
	"func main() { x = -----1; }",
	"func main() { out 9223372036854775807; }",
	"a b c",
	"0..1",
	"== = ===",
	"//",
	"\t\n\r ",
	"_x9",
}

// corpusInput is one named source of the real corpus.
type corpusInput struct{ name, src string }

// realCorpus gathers the repository's MiniPar programs: testdata/*.mp, the
// coalescing kernels, the coalescing fuzz corpus and parserTestSources.
func realCorpus(t *testing.T) []corpusInput {
	t.Helper()
	var out []corpusInput
	mps, err := filepath.Glob("../../testdata/*.mp")
	if err != nil || len(mps) == 0 {
		t.Fatalf("no testdata/*.mp programs (%v)", err)
	}
	sort.Strings(mps)
	for _, path := range mps {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, corpusInput{"testdata/" + filepath.Base(path), string(b)})
	}
	kernels := passes.CoalesceKernels()
	names := make([]string, 0, len(kernels))
	for name := range kernels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, corpusInput{"kernel " + name, kernels[name]})
	}
	seeds, err := filepath.Glob("../passes/testdata/fuzz/*/*")
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no internal/passes fuzz corpus (%v)", err)
	}
	sort.Strings(seeds)
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "string(") {
			t.Fatalf("%s: not a one-string fuzz corpus entry", path)
		}
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		rel, _ := filepath.Rel("..", path)
		out = append(out, corpusInput{"internal/" + filepath.ToSlash(rel), src})
	}
	for i, src := range parserTestSources {
		out = append(out, corpusInput{fmt.Sprintf("parser test source %d", i), src})
	}
	return out
}

// render writes the token stream (or lex error) and the AST (or parse
// error) of src.
func render(w io.Writer, src string) (parsed bool) {
	toks, err := minipar.Lex(src)
	if err != nil {
		fmt.Fprintf(w, "lex error: %v\n", err)
	} else {
		// One row per source line: each token's column and kind, then its
		// text where it is not the kind's spelling (an INT's is empty) and
		// its value where set.
		for i, tok := range toks {
			if i == 0 || tok.Line != toks[i-1].Line {
				if i > 0 {
					io.WriteString(w, "\n")
				}
				fmt.Fprintf(w, "%d|", tok.Line)
			}
			fmt.Fprintf(w, " %d %s", tok.Col, tok.Kind)
			if tok.Text != tok.Kind.String() && (tok.Kind != minipar.TokInt || tok.Text != "") {
				fmt.Fprintf(w, " %q", tok.Text)
			}
			if tok.Int != 0 || tok.Kind == minipar.TokInt {
				fmt.Fprintf(w, " #%d", tok.Int)
			}
		}
		io.WriteString(w, "\n")
	}
	prog, err := minipar.Parse(src)
	if err != nil {
		fmt.Fprintf(w, "parse error: %v\n", err)
		return false
	}
	writeNode(w, reflect.ValueOf(prog), "")
	io.WriteString(w, "\n")
	return true
}

// writeNode renders an AST value: every exported field by name, one list
// element a line.
func writeNode(w io.Writer, v reflect.Value, indent string) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		writeNode(w, v.Elem(), indent)
	case reflect.Struct:
		fmt.Fprintf(w, "%s{", v.Type().Name())
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			if i > 0 {
				io.WriteString(w, " ")
			}
			fmt.Fprintf(w, "%s:", f.Name)
			writeNode(w, v.Field(i), indent)
		}
		io.WriteString(w, "}")
	case reflect.Slice:
		if v.Len() == 0 {
			io.WriteString(w, "[]")
			return
		}
		io.WriteString(w, "[")
		for i := 0; i < v.Len(); i++ {
			io.WriteString(w, "\n"+indent+"  ")
			writeNode(w, v.Index(i), indent+"  ")
		}
		io.WriteString(w, "\n"+indent+"]")
	case reflect.String:
		fmt.Fprintf(w, "%q", v.String())
	default:
		fmt.Fprintf(w, "%v", v.Interface())
	}
}

func TestFrontendCorpusGolden(t *testing.T) {
	var b strings.Builder
	for _, in := range realCorpus(t) {
		fmt.Fprintf(&b, "== %s\n", in.name)
		render(&b, in.src)
	}
	const golden = "testdata/frontend.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := "<end of golden>"
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("%s line %d:\n got %q\nwant %q", golden, i+1, gl[i], w)
			}
		}
		t.Fatalf("%s: rendering is a prefix of the golden (%d of %d lines)", golden, len(gl), len(wl))
	}
}

func TestFrontendSeededSHA256(t *testing.T) {
	inputs := seededInputs(realCorpus(t))
	if len(inputs) < minSeeded {
		t.Fatalf("%d seeded inputs, want at least %d", len(inputs), minSeeded)
	}
	h := sha256.New()
	n := 0
	for _, src := range inputs {
		fmt.Fprintf(h, "== %q\n", src)
		if render(h, src) {
			n++
		}
	}
	got := fmt.Sprintf("%x", h.Sum(nil))
	t.Logf("%d seeded inputs, %d parsed, %d errors", len(inputs), n, len(inputs)-n)
	if got != frontendSeededSHA256 {
		t.Fatalf("seeded rendering SHA-256 = %s, want %s", got, frontendSeededSHA256)
	}
}

// rng is splitmix64: a generator defined here, so the seeded inputs do not
// depend on any library's choice of algorithm.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) pick(s []string) string { return s[r.intn(len(s))] }

var (
	keywordSpellings = []string{"array", "func", "for", "parfor", "if", "else", "while",
		"barrier", "work", "out", "call", "lock", "tid", "nthreads"}
	punctSpellings = []string{"{", "}", "(", ")", "[", "]", ";", ",", "=", "..",
		"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||", "!"}
	otherAtoms = []string{"x", "A", "_y9", "main", "f", "0", "7", "42",
		"9223372036854775807", "9223372036854775808", " ", "\n", "\t", "\r", "// c\n", "//",
		"@", "#", "$", "\x00", "\xff", "`", "'", "\"", "&", "|", ".", ":", "...", "<==", "=<",
		"!==", "|||", "&&&", "é"}
	binarySpellings = []string{"||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"}
)

// seededInputs returns the wall's generated inputs: every one-byte cut, drop
// and duplication of the corpus, random sequences of every spelling and of
// illegal bytes (bare, as an expression and as a statement list), random
// expressions and random programs.
func seededInputs(corpus []corpusInput) []string {
	var out []string
	for _, in := range corpus {
		s := in.src
		for i := 0; i < len(s); i++ {
			out = append(out, s[:i], s[:i]+s[i+1:], s[:i+1]+s[i:])
		}
	}
	atoms := append(append(append([]string{}, keywordSpellings...), punctSpellings...), otherAtoms...)
	r := rng(56)
	soup := func() string {
		var b strings.Builder
		for n := 1 + r.intn(24); n > 0; n-- {
			b.WriteString(r.pick(atoms))
			if r.intn(2) == 0 {
				b.WriteString(" ")
			}
		}
		return b.String()
	}
	for i := 0; i < 12000; i++ {
		out = append(out, soup())
	}
	for i := 0; i < 6000; i++ {
		out = append(out, "array A[8]; func main() { x = "+soup()+"; }")
	}
	for i := 0; i < 6000; i++ {
		out = append(out, "array A[8]; func main() { "+soup()+" }")
	}
	for i := 0; i < 10000; i++ {
		out = append(out, "array A[8]; func main() { x = "+genExpr(&r, 4)+"; }")
	}
	for i := 0; i < 4000; i++ {
		var b strings.Builder
		b.WriteString("array A[8];\nfunc main() {\n")
		genStmts(&b, &r, 3)
		b.WriteString("}\nfunc f(a, b) {\n")
		genStmts(&b, &r, 2)
		b.WriteString("}\n")
		out = append(out, b.String())
	}
	return out
}

// genExpr returns a random well-bracketed expression of at most depth
// levels, operands and operators spaced at random.
func genExpr(r *rng, depth int) string {
	sp := func() string { return []string{"", " ", "\n"}[r.intn(3)] }
	if depth <= 0 || r.intn(3) == 0 {
		leaves := 6
		if depth <= 0 {
			leaves = 4 // no nesting below the last level
		}
		switch r.intn(leaves) {
		case 0:
			return strconv.Itoa(r.intn(100))
		case 1:
			return "tid"
		case 2:
			return "nthreads"
		case 3:
			return []string{"x", "a", "b"}[r.intn(3)]
		case 4:
			return "A[" + genExpr(r, depth-1) + "]"
		default:
			return "(" + genExpr(r, depth-1) + ")"
		}
	}
	switch r.intn(5) {
	case 0:
		return []string{"-", "!"}[r.intn(2)] + sp() + genExpr(r, depth-1)
	case 1:
		return "(" + sp() + genExpr(r, depth-1) + sp() + ")"
	default:
		return genExpr(r, depth-1) + sp() + r.pick(binarySpellings) + sp() + genExpr(r, depth-1)
	}
}

// genStmts writes a random list of statements nested at most depth deep.
func genStmts(b *strings.Builder, r *rng, depth int) {
	for n := r.intn(4); n >= 0; n-- {
		k := r.intn(12)
		if depth == 0 && k >= 7 {
			k = r.intn(7)
		}
		switch k {
		case 0:
			fmt.Fprintf(b, "x = %s;\n", genExpr(r, 2))
		case 1:
			fmt.Fprintf(b, "A[%s] = %s;\n", genExpr(r, 1), genExpr(r, 2))
		case 2:
			b.WriteString("barrier;\n")
		case 3:
			fmt.Fprintf(b, "work %s;\n", genExpr(r, 1))
		case 4:
			fmt.Fprintf(b, "out %s;\n", genExpr(r, 2))
		case 5:
			fmt.Fprintf(b, "call f(%s, %s);\n", genExpr(r, 1), genExpr(r, 1))
		case 6:
			fmt.Fprintf(b, "call f(%s);\n", genExpr(r, 1))
		case 7, 8:
			fmt.Fprintf(b, "%s i = %s..%s {\n", []string{"for", "parfor"}[r.intn(2)], genExpr(r, 1), genExpr(r, 1))
			genStmts(b, r, depth-1)
			b.WriteString("}\n")
		case 9:
			fmt.Fprintf(b, "if %s {\n", genExpr(r, 2))
			genStmts(b, r, depth-1)
			if r.intn(2) == 0 {
				b.WriteString("} else {\n")
				genStmts(b, r, depth-1)
			}
			b.WriteString("}\n")
		case 10:
			fmt.Fprintf(b, "while %s {\n", genExpr(r, 2))
			genStmts(b, r, depth-1)
			b.WriteString("}\n")
		default:
			fmt.Fprintf(b, "lock %s {\n", genExpr(r, 1))
			genStmts(b, r, depth-1)
			b.WriteString("}\n")
		}
	}
}
