// Package instrument rewrites the source of a real Go package so that its
// shared-memory accesses feed the commprof probe stream. It is the frontend
// counterpart to the simulated executor: where internal/exec synthesizes
// accesses from a workload description, this package injects probe calls into
// actual goroutine programs, and the unchanged backend (detector, sharded
// pipeline, phase windows, accuracy monitor) consumes the result.
//
// The rewrite is purely syntactic plus type information from go/types:
//
//  1. Every function declaration, function literal and for/range loop body
//     becomes a static region with a stable UID — its index in the region
//     table, assigned in file-name-then-position order so repeated runs over
//     the same source yield identical tables.
//  2. Before each statement that reads or writes probe-eligible shared
//     memory, the rewriter inserts _cp.R/_cp.W calls capturing (kind,
//     &expr, static size, region UID); the goroutine handle _cp is bound
//     once per instrumented function body via probe.G().
//  3. main.main additionally defers probe.Shutdown(), which finalizes the
//     trace file being recorded or analyses the run in-process, and direct
//     os.Exit calls become probe.Exit calls, which do the same first.
//
// Eligibility is deliberately conservative — see the package documentation in
// DESIGN.md §7 for the exact placement rules and what is not instrumented.
package instrument

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"commprof/internal/trace"
)

// probeImportPath is the import path of the runtime shim injected into
// instrumented sources.
const probeImportPath = "commprof/probe"

// The source importer resolves stdlib imports from GOROOT source, needing
// neither a build cache nor network access. It memoizes type-checked packages
// internally, so it is shared across SourcesOpts calls (the stdlib graph behind
// "fmt" takes whole seconds to check from scratch); imported-package
// positions land in the importer's private FileSet, which is fine because
// the rewriter never queries positions of imported objects. The mutex covers
// the importer's internal cache during Check.
var (
	importerMu sync.Mutex
	srcImp     types.Importer
)

func stdImporter() types.Importer {
	importerMu.Lock()
	defer importerMu.Unlock()
	if srcImp == nil {
		srcImp = importer.ForCompiler(token.NewFileSet(), "source", nil)
	}
	return srcImp
}

// Result is an instrumented package: rewritten sources plus the static
// region table the rewrite assigned.
type Result struct {
	// PackageName is the target's package clause name.
	PackageName string
	// Files maps base file names to instrumented, gofmt-formatted source.
	// Only original package files appear here; the generated registration
	// file is produced by WriteModule.
	Files map[string][]byte
	// Table is the static region table; region UIDs in injected probes are
	// indexes into it.
	Table *trace.Table
	// Probes counts injected R/W calls across the package, after coalescing.
	Probes int
	// Coalesced counts probe calls the block-local coalescer dropped as
	// provably redundant (see coalesce.go); zero when the pass is disabled.
	Coalesced int

	// probeAlias is the collision-free import alias chosen for the shim,
	// reused by the generated registration file.
	probeAlias string
}

// Options configures instrumentation.
type Options struct {
	// DisableCoalesce turns off the block-local probe coalescer (coalesce.go).
	// The pass is on by default, mirroring the MiniPar pipeline's default.
	DisableCoalesce bool
}

// DirOpts loads, type-checks and instruments the single Go package in dir
// (ignoring _test.go files). The package must type-check against the standard
// library; its own imports are resolved from source, so no build cache or
// network is needed.
func DirOpts(dir string, opts Options) (*Result, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("instrument: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("instrument: no Go files in %s", dir)
	}
	sort.Strings(names)
	srcs := make(map[string][]byte, len(names))
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, fmt.Errorf("instrument: %w", err)
		}
		srcs[n] = b
	}
	return SourcesOpts(srcs, opts)
}

// SourcesOpts instruments a package given as base-name → source. File names
// only label positions and order region assignment; they need not exist on
// disk.
func SourcesOpts(srcs map[string][]byte, opts Options) (*Result, error) {
	names := make([]string, 0, len(srcs))
	for n := range srcs {
		names = append(names, n)
	}
	sort.Strings(names)

	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(names))
	for _, n := range names {
		// Comments are intentionally dropped: go/printer cannot reliably
		// re-anchor them across statement insertion, and scrambled comments
		// would destabilize the golden files.
		f, err := parser.ParseFile(fset, n, srcs[n], parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("instrument: %w", err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: stdImporter()}
	importerMu.Lock()
	pkg, err := conf.Check(files[0].Name.Name, fset, files, info)
	importerMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("instrument: type check: %w", err)
	}

	sizes := types.SizesFor("gc", runtime.GOARCH)
	if sizes == nil {
		sizes = types.SizesFor("gc", "amd64")
	}
	c := &ctx{
		fset:     fset,
		files:    files,
		names:    names,
		info:     info,
		pkg:      pkg,
		sizes:    sizes,
		table:    trace.NewTable(),
		regionOf: map[ast.Node]int32{},
		used:     usedIdents(files),
		coalesce: !opts.DisableCoalesce,
	}
	c.handleName = fresh("_cp", c.used)
	c.probeAlias = fresh("commprobe", c.used)
	c.unsafeAlias = fresh("unsafe", c.used)

	c.assignRegions()
	c.rewrite()
	if err := c.table.Validate(); err != nil {
		return nil, fmt.Errorf("instrument: region table: %w", err)
	}

	out := make(map[string][]byte, len(files))
	for i, f := range files {
		b, err := render(fset, f)
		if err != nil {
			return nil, fmt.Errorf("instrument: %s: %w", names[i], err)
		}
		out[names[i]] = b
	}
	return &Result{
		PackageName: pkg.Name(),
		Files:       out,
		Table:       c.table,
		Probes:      c.probes,
		Coalesced:   c.coalesced,
		probeAlias:  c.probeAlias,
	}, nil
}

// ctx carries the per-package state threaded through the region and rewrite
// passes.
type ctx struct {
	fset  *token.FileSet
	files []*ast.File
	names []string
	info  *types.Info
	pkg   *types.Package
	sizes types.Sizes
	table *trace.Table

	// regionOf maps each FuncDecl, FuncLit, ForStmt and RangeStmt to the
	// region UID assigned to its body.
	regionOf map[ast.Node]int32

	// captured marks local variables referenced from more than one function
	// body; closure capture makes them potentially shared across goroutines.
	captured map[*types.Var]bool

	// used holds every identifier spelled anywhere in the package, so
	// injected names cannot collide with or shadow user code.
	used        map[string]bool
	handleName  string // goroutine handle variable, normally "_cp"
	probeAlias  string // import alias for commprof/probe
	unsafeAlias string // import alias for unsafe

	// coalesce enables the block-local probe coalescer (on by default).
	coalesce  bool
	probes    int
	coalesced int
}

// usedIdents collects every identifier name appearing in the package, the
// conservative "taken" set for fresh-name selection.
func usedIdents(files []*ast.File) map[string]bool {
	used := make(map[string]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				used[id.Name] = true
			}
			return true
		})
	}
	return used
}

// fresh returns base if unused, else base with the first free numeric suffix.
func fresh(base string, used map[string]bool) string {
	name := base
	for i := 0; used[name]; i++ {
		name = fmt.Sprintf("%s%d", base, i)
	}
	used[name] = true
	return name
}

// render pretty-prints an instrumented file through gofmt so golden files and
// emitted modules are stable and style-clean.
func render(fset *token.FileSet, f *ast.File) ([]byte, error) {
	var sb strings.Builder
	if err := format.Node(&sb, fset, f); err != nil {
		return nil, err
	}
	// format.Node on a synthetic AST is already canonical, but a second pass
	// through format.Source guards against position artifacts from injected
	// nodes.
	return format.Source([]byte(sb.String()))
}
