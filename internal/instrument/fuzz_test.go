package instrument

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sync"
	"testing"
)

// probeStub mirrors the commprof/probe API surface the rewriter emits calls
// against. The fuzz harness type-checks instrumented output against this
// stub instead of the real package (whose own dependency graph would drag
// the whole repository into every fuzz execution); the e2e tests in
// cmd/commtrace guarantee the stub cannot drift from the real shim without
// failing the build.
const probeStub = `package probe

import "unsafe"

type Region struct {
	Name   string
	Parent int32
	Loop   bool
	File   string
	Line   int
}

func Register(regions []Region) {}

type TG struct{}

func G() *TG { return nil }

func (g *TG) R(p unsafe.Pointer, size uint32, region int32) {}
func (g *TG) W(p unsafe.Pointer, size uint32, region int32) {}

func Shutdown() {}
func Exit(code int) {}
`

var (
	stubOnce sync.Once
	stubPkg  *types.Package
	stubErr  error
)

// stubImporter resolves the imports instrumentation may inject; anything else
// (only the unit tests import more, the fuzz corpus is universe-only) goes to
// the source importer.
type stubImporter struct{}

func (stubImporter) Import(path string) (*types.Package, error) {
	switch path {
	case "unsafe":
		return types.Unsafe, nil
	case probeImportPath:
		stubOnce.Do(func() {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "probe.go", probeStub, 0)
			if err != nil {
				stubErr = err
				return
			}
			conf := types.Config{Importer: importer.Default()}
			stubPkg, stubErr = conf.Check(probeImportPath, fset, []*ast.File{f}, nil)
		})
		return stubPkg, stubErr
	}
	imp := stdImporter()
	importerMu.Lock()
	defer importerMu.Unlock()
	return imp.Import(path)
}

// checkInstrumented asserts every rewritten file plus the generated
// registration file parses and type-checks as one package.
func checkInstrumented(t *testing.T, res *Result) {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	add := func(name string, src []byte) {
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatalf("instrumented output does not parse: %v\n%s", err, src)
		}
		files = append(files, f)
	}
	for name, src := range res.Files {
		add(name, src)
	}
	reg, err := RegistrationSource(res)
	if err != nil {
		t.Fatal(err)
	}
	add(registrationFile, reg)
	conf := types.Config{Importer: stubImporter{}}
	if _, err := conf.Check(res.PackageName, fset, files, nil); err != nil {
		t.Errorf("instrumented output does not type-check: %v", err)
		for name, src := range res.Files {
			t.Logf("-- %s --\n%s", name, src)
		}
		t.FailNow()
	}
}

// FuzzInstrument feeds synthesized Go files through the rewriter and asserts
// the invariant the whole frontend rests on: whatever the rewriter accepts,
// its output must still parse and type-check. Inputs that do not compile (or
// import anything — the harness is hermetic) are skipped, not failures.
func FuzzInstrument(f *testing.F) {
	seeds := []string{
		"package p\n\nvar g int64\n\nfunc f() {\n\tg = g + 1\n}\n",
		"package p\n\nfunc f() chan int {\n\tc := make(chan int)\n\tx := 0\n\tgo func() {\n\t\tx = 1\n\t\tc <- x\n\t}()\n\treturn c\n}\n",
		"package p\n\nvar s []int64\n\nfunc f(n int) {\n\tfor i := 0; i < n; i++ {\n\t\ts[i] = s[i] * 2\n\t}\n}\n",
		"package main\n\nvar g int32\n\nfunc main() {\n\tc := make(chan int32, 1)\n\tselect {\n\tcase v := <-c:\n\t\tg = v\n\tdefault:\n\t\tg = 2\n\t}\n}\n",
		"package p\n\ntype t struct{ a, b int64 }\n\nfunc f(p *t, xs []t) int64 {\n\tvar sum int64\n\tfor i := range xs {\n\t\txs[i].a = p.b\n\t\tsum += xs[i].a\n\t}\n\tp.a++\n\treturn sum\n}\n",
		"package p\n\nvar m = map[int]int{}\nvar a [8]byte\n\nfunc f(i int) {\n\tm[i] = i\n\tif i > 0 {\n\t\ta[i] = byte(i)\n\t} else if a[0] > 1 {\n\t\ta[0]--\n\t}\n}\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		// Hermetic guard: sources with imports would reach for GOROOT source
		// type-checking on every execution; the corpus stays universe-only.
		fset := token.NewFileSet()
		parsed, err := parser.ParseFile(fset, "fuzz.go", src, 0)
		if err != nil || len(parsed.Imports) > 0 {
			t.Skip()
		}
		res, err := SourcesOpts(map[string][]byte{"fuzz.go": []byte(src)}, Options{})
		if err != nil {
			t.Skip() // input does not type-check: not our bug
		}
		checkInstrumented(t, res)

		// The coalesced rewrite (the default above) must also reconcile with
		// the raw rewrite: same sources must yield probes+coalesced == raw
		// probes, and the raw output must parse and type-check too.
		raw, err := SourcesOpts(map[string][]byte{"fuzz.go": []byte(src)}, Options{DisableCoalesce: true})
		if err != nil {
			t.Fatalf("raw rewrite failed where coalesced succeeded: %v", err)
		}
		if raw.Coalesced != 0 {
			t.Fatalf("disabled coalescer still dropped %d probes", raw.Coalesced)
		}
		if res.Probes+res.Coalesced != raw.Probes {
			t.Fatalf("probe accounting broken: %d kept + %d coalesced != %d raw",
				res.Probes, res.Coalesced, raw.Probes)
		}
		checkInstrumented(t, raw)
	})
}
