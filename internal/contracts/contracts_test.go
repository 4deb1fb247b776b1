// Package contracts_test checks the repository's structural contracts: things
// that were deleted or kept out on purpose and must stay that way (a second
// trace format written, an analyser flag declared outside flags.go, an
// internal/ export that only tests call, a shared twin of the single-owner
// analyser, ...). It type-checks every non-test package of the module, bench/
// and the testdata/ programs included, with go/types over the standard
// library's source, and matches identifiers, selectors, imports and string
// literals by what they resolve to rather than by substring. Each contract
// also runs once against a planted violation, which it must report.
//
// The package has no non-test code, so `go test ./...` runs it exactly once.
package contracts_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the import path of the repository's root module; bench/ is
// the nested module commprof/bench, so every directory's import path is
// modulePath + "/" + its path.
const modulePath = "commprof"

// self is this package's directory. It is the checker, not the checked: its
// planted sources spell out what the contracts ban.
const self = "internal/contracts"

// file is one parsed Go file.
type file struct {
	name string // slash path relative to the module root
	ast  *ast.File
	test bool
}

// pkg is one directory's package: its non-test files type-checked, its
// _test.go files parsed only.
type pkg struct {
	dir   string // slash path relative to the module root, "." for the root
	files []*file
	tests []*file
	types *types.Package
	info  *types.Info
}

// module is the whole repository, loaded once per set of planted files.
type module struct {
	root  string
	fset  *token.FileSet
	pkgs  map[string]*pkg // by import path
	dirs  []*pkg          // sorted by dir
	plant map[string]string
	std   types.Importer
	errs  []error
}

// std is shared by every load: the source importer memoizes the standard
// library packages it has checked, which is most of the cost of a load.
var std types.Importer

func init() {
	// Type-check net and os/user from their pure-Go files rather than running
	// cgo over them.
	build.Default.CgoEnabled = false
	std = importer.ForCompiler(token.NewFileSet(), "source", nil)
}

// load parses and type-checks the module at root, with plant's files (slash
// paths relative to root) added to it.
func load(root string, plant map[string]string) (*module, error) {
	m := &module{root: root, fset: token.NewFileSet(), pkgs: map[string]*pkg{}, plant: plant, std: std}
	byDir := map[string]*pkg{}
	add := func(rel, name string, src any) error {
		dir := path.Dir(rel)
		if ok, err := build.Default.MatchFile(filepath.Join(root, filepath.FromSlash(dir)), name); err != nil || !ok {
			if _, planted := plant[rel]; !planted {
				return err
			}
		}
		if src == nil {
			data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(rel)))
			if err != nil {
				return err
			}
			src = data
		}
		f, err := parser.ParseFile(m.fset, rel, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p := byDir[dir]
		if p == nil {
			p = &pkg{dir: dir}
			byDir[dir] = p
		}
		test := strings.HasSuffix(name, "_test.go")
		if test {
			p.tests = append(p.tests, &file{rel, f, true})
		} else {
			p.files = append(p.files, &file{rel, f, false})
		}
		return nil
	}
	err := filepath.WalkDir(root, func(abs string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := relPath(root, abs)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || rel == self) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		if _, planted := plant[rel]; planted {
			return nil
		}
		return add(rel, d.Name(), nil)
	})
	if err != nil {
		return nil, err
	}
	for rel, src := range plant {
		if strings.HasSuffix(rel, ".go") {
			if err := add(rel, path.Base(rel), src); err != nil {
				return nil, err
			}
		}
	}
	for _, p := range byDir {
		m.pkgs[importPath(p.dir)] = p
		m.dirs = append(m.dirs, p)
	}
	sort.Slice(m.dirs, func(i, j int) bool { return m.dirs[i].dir < m.dirs[j].dir })
	for _, p := range m.dirs {
		if len(p.files) > 0 {
			if _, err := m.check(p, nil); err != nil {
				return nil, err
			}
		}
	}
	if len(m.errs) > 0 {
		return nil, fmt.Errorf("type errors: %v", m.errs)
	}
	return m, nil
}

func importPath(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + dir
}

func relPath(root, abs string) string {
	rel, err := filepath.Rel(root, abs)
	if err != nil {
		panic(err)
	}
	return filepath.ToSlash(rel)
}

// check type-checks p, first checking the module packages it imports.
// stack guards against import cycles.
func (m *module) check(p *pkg, stack []string) (*types.Package, error) {
	if p.types != nil {
		return p.types, nil
	}
	if slices.Contains(stack, p.dir) {
		return nil, fmt.Errorf("import cycle through %s", p.dir)
	}
	stack = append(stack, p.dir)
	p.info = &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{
		Importer: importerFunc(func(ip string) (*types.Package, error) {
			if q := m.pkgs[ip]; q != nil && len(q.files) > 0 {
				return m.check(q, stack)
			}
			return m.std.Import(ip)
		}),
		Error: func(err error) { m.errs = append(m.errs, err) },
	}
	asts := make([]*ast.File, len(p.files))
	for i, f := range p.files {
		asts[i] = f.ast
	}
	tp, _ := conf.Check(importPath(p.dir), m.fset, asts, p.info)
	p.types = tp
	return tp, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// pos renders a node's position as path:line.
func (m *module) pos(at token.Pos) string {
	p := m.fset.Position(at)
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// scope selects the files a contract looks at. bench/ is in scope only when
// asked for: it is its own module, and ROADMAP item 0 tracks what it still
// names.
type scope struct {
	tests   bool     // _test.go files too (parsed, not type-checked)
	bench   bool     // bench/ too
	dirs    []string // only these directories and below (all when empty)
	exclude []string // not these directories and below
}

func under(dir, prefix string) bool {
	return dir == prefix || strings.HasPrefix(dir, prefix+"/")
}

func (s scope) has(dir string) bool {
	if under(dir, "bench") && !s.bench {
		return false
	}
	if len(s.dirs) > 0 && !slices.ContainsFunc(s.dirs, func(d string) bool { return under(dir, d) }) {
		return false
	}
	return !slices.ContainsFunc(s.exclude, func(d string) bool { return under(dir, d) })
}

// each calls fn on every file in scope, with its package.
func (m *module) each(s scope, fn func(p *pkg, f *file)) {
	for _, p := range m.dirs {
		if !s.has(p.dir) {
			continue
		}
		for _, f := range p.files {
			fn(p, f)
		}
		if s.tests {
			for _, f := range p.tests {
				fn(p, f)
			}
		}
	}
}

// findings collects a contract's violations as "path:line: what".
type findings []string

func (out *findings) add(m *module, at token.Pos, format string, args ...any) {
	*out = append(*out, m.pos(at)+": "+fmt.Sprintf(format, args...))
}

// idents reports every identifier in f spelled as one of names, declared or
// used. A name is the identifier itself, so a test named
// TestTraceFormatComposes or a comment never matches.
func (out *findings) idents(m *module, f *file, names ...string) {
	ast.Inspect(f.ast, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && slices.Contains(names, id.Name) {
			out.add(m, id.Pos(), "identifier %s", id.Name)
		}
		return true
	})
}

// literals reports every string literal in f whose value matches re.
func (out *findings) literals(m *module, f *file, re *regexp.Regexp) {
	ast.Inspect(f.ast, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil && re.MatchString(s) {
				out.add(m, lit.Pos(), "string %s", lit.Value)
			}
		}
		return true
	})
}

// imports reports f's import of path.
func (out *findings) imports(m *module, f *file, ip string) {
	for _, spec := range f.ast.Imports {
		if s, _ := strconv.Unquote(spec.Path.Value); s == ip {
			out.add(m, spec.Pos(), "imports %q", ip)
		}
	}
}

// uses reports every reference in a type-checked file to the object
// pkgPath.name (a package-level func, type, var or const, or a method or
// field of one of the package's types).
func (out *findings) uses(m *module, p *pkg, f *file, pkgPath string, names ...string) {
	ast.Inspect(f.ast, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && slices.Contains(names, id.Name) {
			if obj := p.info.Uses[id]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath {
				out.add(m, id.Pos(), "uses %s.%s", strings.TrimPrefix(pkgPath, modulePath+"/"), id.Name)
			}
		}
		return true
	})
}

// flagDefiners are the package flag functions and *flag.FlagSet methods that
// declare a flag; the flag's name is their first or second argument.
var flagDefiners = []string{
	"Bool", "BoolFunc", "BoolVar", "Duration", "DurationVar", "Float64", "Float64Var",
	"Func", "Int", "Int64", "Int64Var", "IntVar", "String", "StringVar", "TextVar",
	"Uint", "Uint64", "Uint64Var", "UintVar", "Var",
}

// flags reports every flag declaration in f named one of names. In a
// type-checked file the call must resolve to package flag; in a test file,
// which is parsed only, a selector call to one of the definers is enough.
func (out *findings) flags(m *module, p *pkg, f *file, names ...string) {
	ast.Inspect(f.ast, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !slices.Contains(flagDefiners, sel.Sel.Name) {
			return true
		}
		if !f.test {
			if obj := p.info.Uses[sel.Sel]; obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "flag" {
				return true
			}
		}
		for _, arg := range call.Args[:min(2, len(call.Args))] {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, _ := strconv.Unquote(lit.Value); slices.Contains(names, s) {
					out.add(m, lit.Pos(), "declares flag -%s", s)
				}
			}
		}
		return true
	})
}

// contract is one structural rule: check returns its violations, and plant is
// a violation (files by slash path) that check must report.
type contract struct {
	name  string
	check func(m *module) findings
	plant map[string]string
}

var contracts = []contract{
	{
		// One trace format, v3, is written and read: no non-test code in
		// internal/trace reads or writes a fixed 29-byte record (the retired
		// v1/v2 access layout), no option, flag or environment variable may
		// select a format, and no mode converts a trace into another. (bench/
		// still exports the variable the shim used to read.)
		name: "a fixed 29-byte trace record or a trace-format knob is back",
		check: func(m *module) (out findings) {
			m.each(scope{tests: true}, func(p *pkg, f *file) {
				out.idents(m, f, "TraceFormat")
				out.literals(m, f, regexp.MustCompile(`TRACE_FORMAT`))
				if f.test {
					return
				}
				out.literals(m, f, regexp.MustCompile(`^(trace-format|recode)$`))
				out.idents(m, f, "writeFixedRecord", "accessRecLen")
				if p.dir == "internal/trace" {
					out.fixedRecords(m, p, f)
				}
			})
			return out
		},
		plant: map[string]string{
			"cmd/commprof/planted.go": `package main

import "flag"

var plantedFormat = flag.Int("trace-format", 3, "trace format")
`,
			"internal/trace/planted.go": `package trace

import (
	"encoding/binary"
	"io"
)

func (d *Decoder) plantedNext() (Access, error) {
	var rec [8 + 8 + 4 + 4 + 4 + 1]byte
	if _, err := io.ReadFull(d.br, rec[:]); err != nil {
		return Access{}, err
	}
	return Access{Time: binary.LittleEndian.Uint64(rec[0:]), Kind: Kind(rec[28])}, nil
}
`,
		},
	},
	{
		// Write paths stream through trace.Encoder; none holds the run as a
		// slice of access records first.
		name: "a write path materialises the run",
		check: func(m *module) (out findings) {
			m.each(scope{dirs: []string{".", "cmd/commtrace"}}, func(p *pkg, f *file) {
				ast.Inspect(f.ast, func(n ast.Node) bool {
					as, ok := n.(*ast.AssignStmt)
					if !ok || len(as.Lhs) != len(as.Rhs) {
						return true
					}
					for i, lhs := range as.Lhs {
						sel, ok := lhs.(*ast.SelectorExpr)
						call, isCall := as.Rhs[i].(*ast.CallExpr)
						if !ok || !isCall || sel.Sel.Name != "Accesses" {
							continue
						}
						if id, ok := call.Fun.(*ast.Ident); ok {
							if _, builtin := p.info.Uses[id].(*types.Builtin); builtin && id.Name == "append" {
								out.add(m, as.Pos(), "appends to %s.Accesses", types.ExprString(sel.X))
							}
						}
					}
					return true
				})
			})
			return out
		},
		plant: map[string]string{"planted.go": `package commprof

import "commprof/internal/trace"

func plantedMaterialise(s *trace.Stream, a trace.Access) { s.Accesses = append(s.Accesses, a) }
`},
	},
	{
		// bench/ is the one benchmark harness: nothing cites the deleted shell
		// harness or its result files. The change logs record history.
		name: "the superseded benchmark harness is cited",
		check: func(m *module) (out findings) {
			re := regexp.MustCompile(`scripts/bench\.sh|BENCH_[a-z]+\.json`)
			skip := []string{"CHANGES.md", "ROADMAP.md"}
			scan := func(rel string, data []byte) {
				if bytes.IndexByte(data[:min(len(data), 8000)], 0) >= 0 {
					return // binary
				}
				for i, line := range bytes.Split(data, []byte("\n")) {
					if re.Match(line) {
						out = append(out, fmt.Sprintf("%s:%d: cites %s", rel, i+1, re.Find(line)))
					}
				}
			}
			err := filepath.WalkDir(m.root, func(abs string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				rel := relPath(m.root, abs)
				if d.IsDir() {
					if rel == ".git" || rel == ".bench_build" || rel == "bench" || rel == self {
						return filepath.SkipDir
					}
					return nil
				}
				if slices.Contains(skip, rel) {
					return nil
				}
				data, err := os.ReadFile(abs)
				if err != nil {
					return err
				}
				scan(rel, data)
				return nil
			})
			if err != nil {
				out = append(out, err.Error())
			}
			for rel, src := range m.plant {
				scan(rel, []byte(src))
			}
			return out
		},
		plant: map[string]string{"docs/planted.md": "Compare with the numbers in BENCH_replay.json.\n"},
	},
	{
		// The sharded engine has one overload behaviour (backpressure) and one
		// hand-off (buffers over a channel). sync.Cond is the deleted ring's
		// signature, so it is looked for in internal/pipeline here (the
		// second-scheduler rule looks for it in internal/exec).
		name: "an overload policy or a hand-rolled ring is back",
		check: func(m *module) (out findings) {
			m.each(scope{}, func(p *pkg, f *file) {
				out.idents(m, f, "OverloadPolicy", "ShardPolicy", "ShardBatchSize", "DegradeBurst", "AutoStallPerSec")
				out.literals(m, f, regexp.MustCompile(`shard-policy|shard-batch`))
				if under(p.dir, "internal/pipeline") {
					out.uses(m, p, f, "sync", "Cond")
				}
			})
			return out
		},
		plant: map[string]string{"internal/pipeline/planted.go": `package pipeline

import "sync"

type plantedRing struct{ notEmpty sync.Cond }
`},
	},
	{
		// The analyser's flags are declared once, in flags.go's BindFlags, and
		// cross into an instrumented program as the one variable COMMPROF_OPTS:
		// no frontend declares one of the eight names itself (nor the deleted
		// -shard-queue, so that it stays dead), and the per-option variables
		// and their parser stay gone.
		name: "an analyser option is spelled out by hand again",
		check: func(m *module) (out findings) {
			m.each(scope{tests: true}, func(p *pkg, f *file) {
				out.literals(m, f, regexp.MustCompile(`COMMPROF_(SHARDS|PHASES|GRANULARITY|REDUNDANCY_BITS|SIG)\b`))
				out.idents(m, f, "envInt")
			})
			m.each(scope{tests: true, dirs: []string{"cmd/commprof", "cmd/commtrace", "probe"}}, func(p *pkg, f *file) {
				out.flags(m, p, f, "sig", "phases", "sample", "granularity", "shards", "shard-queue",
					"redundancy-bits", "accuracy-bits", "accuracy-target")
			})
			return out
		},
		plant: map[string]string{"cmd/commtrace/planted.go": `package main

import "flag"

func plantedFlags(fs *flag.FlagSet) *int { return fs.Int("shards", 0, "analysis shards") }
`},
	},
	{
		// Telemetry is wired once, by the facade's Telemetry: no code outside
		// internal/obs and the root package builds its own registry, tracer,
		// timeline, probe bundle or server (bench/ included), and no command
		// declares a telemetry flag by hand instead of binding
		// TelemetryFlags. (commtrace's -timeline is its own: under -mode live
		// it crosses into the instrumented process.)
		name: "a second telemetry wiring is back",
		check: func(m *module) (out findings) {
			m.each(scope{bench: true, exclude: []string{".", "internal/obs"}}, func(p *pkg, f *file) {
				out.uses(m, p, f, modulePath+"/internal/obs", "NewRegistry", "NewTracer", "NewTimeline", "Serve", "DefaultProbes")
			})
			m.each(scope{tests: true, dirs: []string{"cmd/commprof", "cmd/commbench", "cmd/commtrace", "probe"}}, func(p *pkg, f *file) {
				out.flags(m, p, f, "telemetry", "telemetry-addr", "telemetry-dump", "pprof")
			})
			return out
		},
		plant: map[string]string{
			"bench/planted.go": `package main

import "commprof/internal/obs"

var plantedRegistry = obs.NewRegistry()
`,
			"cmd/commbench/planted.go": `package main

import "flag"

func plantedPprof(fs *flag.FlagSet) *bool { return fs.Bool("pprof", false, "mount pprof") }
`,
		},
	},
	{
		// Every exported function and method in internal/ has a caller in
		// non-test code (bench/ counts): what only tests call is deleted, or
		// unexported beside an in-package test. See testOnlyExports.
		name:  "a test-only export is back in internal/",
		check: testOnlyExports,
		plant: map[string]string{"internal/comm/planted.go": `package comm

// plantedSet shares its method's name with every Len in the module; the
// method has no caller.
type plantedSet struct{ n int }

func (s *plantedSet) Len() int { return s.n }

var _ = &plantedSet{}
`},
	},
	{
		// The profiler's reader sets have one layout, the exact mask arena
		// (sig.Asymmetric); the paper's per-slot bloom filters (sig.Bloom)
		// serve only the reproduction experiments. No code outside
		// internal/sig imports the filter, none outside internal/experiments
		// builds sig.Bloom, and the rate knob, the layout switch and the fill
		// telemetry the filters fed stay deleted.
		name: "the bloom reader-set layout is back in production",
		check: func(m *module) (out findings) {
			m.each(scope{}, func(p *pkg, f *file) {
				if p.dir != "internal/sig" {
					out.imports(m, f, modulePath+"/internal/bloom")
				}
				if p.dir != "internal/experiments" {
					out.uses(m, p, f, modulePath+"/internal/sig", "NewBloom")
				}
				out.idents(m, f, "PaperBloom", "BloomFPRate", "FillAlarmRatio", "FillTrajectory")
				out.literals(m, f, regexp.MustCompile(`sig_(bloom_)?fill_ratio|sig_filter_allocs`))
				out.flags(m, p, f, "fpr")
			})
			return out
		},
		plant: map[string]string{"internal/detect/planted.go": `package detect

import "commprof/internal/bloom"

var plantedFilter = bloom.New(bloom.Derive(64, 0.01), 1)
`},
	},
	{
		// The single-owner kernel reads and writes plain slices (the
		// signature's []byte arena through encoding/binary); it may not reach
		// any other structure by casting.
		name: "package unsafe is imported on the analysis path",
		check: func(m *module) (out findings) {
			m.each(scope{tests: true, dirs: []string{"internal/sig", "internal/detect", "internal/comm", "internal/redundancy", "internal/pipeline"}}, func(p *pkg, f *file) {
				out.imports(m, f, "unsafe")
			})
			return out
		},
		plant: map[string]string{"internal/sig/planted_test.go": `package sig

import "unsafe"

var plantedSize = unsafe.Sizeof(Asymmetric{})
`},
	},
	{
		// Every detector has one owner, one caller at a time (DESIGN §5); on
		// the engine the scheduler's turn serialises the program's threads.
		// So no ownership option comes back (detect's SingleOwner,
		// pipeline.Options' Concurrent), nor an owned-only matrix add, an Own
		// switch on the signature, the mask arena's CAS loop or an atomic
		// matrix. (sig.Bloom, the paper's layout, keeps its CAS in bloom.go.)
		name: "a shared twin of the single-owner analyser is back",
		check: func(m *module) (out findings) {
			m.each(scope{}, func(p *pkg, f *file) {
				out.idents(m, f, "SingleOwner", "AddOwned")
				switch f.name {
				case "internal/sig/sig.go":
					ast.Inspect(f.ast, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && strings.HasPrefix(id.Name, "CompareAndSwap") {
							if obj := p.info.Uses[id]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" {
								out.add(m, id.Pos(), "calls atomic %s", id.Name)
							}
						}
						return true
					})
				case "internal/comm/matrix.go":
					out.imports(m, f, "sync/atomic")
				}
			})
			for _, c := range []struct{ dir, typ, member string }{
				{"internal/sig", "Asymmetric", "Own"},
				{"internal/pipeline", "Options", "Concurrent"},
			} {
				p := m.pkgs[importPath(c.dir)]
				obj := p.types.Scope().Lookup(c.typ)
				if member, _, _ := types.LookupFieldOrMethod(types.NewPointer(obj.Type()), true, p.types, c.member); member != nil {
					out.add(m, member.Pos(), "%s.%s has %s", path.Base(c.dir), c.typ, c.member)
				}
			}
			return out
		},
		plant: map[string]string{"internal/sig/planted.go": `package sig

func (s *Asymmetric) Own(owned bool) {}
`},
	},
	{
		// No run trains the §VI classifier: the phase layer classifies with the
		// shipped model (patterns.DefaultKNN), and corpora and kNNs are built
		// only where the recipe lives (patterns.TrainKNN) and by the
		// experiments.
		name: "a run path trains the pattern classifier",
		check: func(m *module) (out findings) {
			pp := modulePath + "/internal/patterns"
			m.each(scope{exclude: []string{"internal/patterns", "internal/experiments"}}, func(p *pkg, f *file) {
				out.uses(m, p, f, pp, "Corpus", "NewKNN")
				if f.name == "phases.go" {
					out.uses(m, p, f, pp, "NewPatternClassifier", "TrainKNN")
				}
			})
			return out
		},
		plant: map[string]string{"cmd/commprof/planted.go": `package main

import "commprof/internal/patterns"

var plantedTrain = patterns.NewKNN
`},
	},
	{
		// On the per-access path an access reaches its buffer one field at a
		// time (DESIGN §5, "the copy rule"): append(buf, a) or buf[i] = a with
		// a trace.Access spills the value and reloads it with one wide load
		// the core cannot forward from the narrow stores.
		name: "an access is copied whole into a buffer",
		check: func(m *module) (out findings) {
			access := func(p *pkg, e ast.Expr) bool {
				t := p.info.TypeOf(e)
				return t != nil && types.TypeString(t, nil) == modulePath+"/internal/trace.Access"
			}
			dirs := []string{".", "internal/pipeline", "internal/detect", "internal/trace", "internal/exec", "probe"}
			m.each(scope{dirs: dirs}, func(p *pkg, f *file) {
				ast.Inspect(f.ast, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						id, ok := n.Fun.(*ast.Ident)
						if _, builtin := p.info.Uses[id].(*types.Builtin); !ok || !builtin || id.Name != "append" || n.Ellipsis.IsValid() {
							return true
						}
						for _, arg := range n.Args[1:] {
							if access(p, arg) {
								out.add(m, arg.Pos(), "appends a trace.Access whole")
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if ix, ok := lhs.(*ast.IndexExpr); ok && access(p, ix) {
								out.add(m, ix.Pos(), "assigns a trace.Access whole to %s", types.ExprString(ix))
							}
						}
					}
					return true
				})
			})
			return out
		},
		plant: map[string]string{"internal/pipeline/planted.go": `package pipeline

import "commprof/internal/trace"

func plantedStage(buf []trace.Access, a trace.Access) []trace.Access { return append(buf, a) }
`},
	},
	{
		// The engine has one scheduler, the deterministic turn hand-off (DESIGN
		// §5, "The batch kernel and who owns it"): each simulated thread is a
		// coroutine that Run's loop resumes. No option or flag runs the threads
		// as free goroutines again, and internal/exec's non-test files start no
		// goroutine, spell no channel type (the deleted per-thread resume
		// channels) and build no condition-variable barrier. Real concurrency
		// has its own frontend (commprof/probe). MiniPar's parfor
		// (minipar.ForStmt.Parallel) is a loop kind, not a scheduler.
		name: "a second scheduler is back",
		check: func(m *module) (out findings) {
			for _, c := range []struct{ dir, typ string }{{".", "Options"}, {"internal/exec", "Options"}} {
				p := m.pkgs[importPath(c.dir)]
				obj := p.types.Scope().Lookup(c.typ)
				if member, _, _ := types.LookupFieldOrMethod(types.NewPointer(obj.Type()), true, p.types, "Parallel"); member != nil {
					out.add(m, member.Pos(), "%s.%s has Parallel", p.types.Name(), c.typ)
				}
			}
			m.each(scope{tests: true, dirs: []string{"cmd"}}, func(p *pkg, f *file) {
				out.flags(m, p, f, "parallel")
			})
			m.each(scope{tests: true, dirs: []string{"internal/exec"}}, func(p *pkg, f *file) {
				if f.test {
					out.idents(m, f, "NewCond")
					return
				}
				out.uses(m, p, f, "sync", "Cond", "NewCond")
				ast.Inspect(f.ast, func(n ast.Node) bool {
					switch n.(type) {
					case *ast.GoStmt:
						out.add(m, n.Pos(), "a go statement")
					case *ast.ChanType:
						out.add(m, n.Pos(), "a channel type")
					}
					return true
				})
			})
			return out
		},
		plant: map[string]string{
			"planted.go": `package commprof

func (o Options) Parallel() bool { return false }
`,
			"cmd/commprof/planted_test.go": `package main

import "flag"

func plantedParallel(fs *flag.FlagSet) *bool { return fs.Bool("parallel", false, "free goroutines") }
`,
			"internal/exec/planted.go": `package exec

import "sync"

type plantedBarrier struct{ cond *sync.Cond }
`,
			"internal/exec/planted_go.go": `package exec

func plantedSpawn(t *Thread, body func(*Thread)) { go t.main(body) }
`,
			"internal/exec/planted_chan.go": `package exec

type plantedTurn struct{ resume chan struct{} }
`,
		},
	},
	{
		// The analysis engine is its own single producer (DESIGN §5): the
		// analyser goroutine feeds it through ProcessBatch, and Close flushes.
		// internal/pipeline declares no Producer type and keeps no slice of
		// producers, so concurrent producers — and with them late window
		// partials, a producer registry and atomics on staged accesses —
		// stay out.
		name: "a second producer is back",
		check: func(m *module) (out findings) {
			producer := func(name string) bool { return strings.Contains(strings.ToLower(name), "producer") }
			m.each(scope{dirs: []string{"internal/pipeline"}}, func(p *pkg, f *file) {
				ast.Inspect(f.ast, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.TypeSpec:
						if producer(n.Name.Name) {
							out.add(m, n.Pos(), "declares type %s", n.Name.Name)
						}
					case *ast.Ident:
						if v, ok := p.info.Defs[n].(*types.Var); ok && producer(n.Name) {
							if _, slice := v.Type().Underlying().(*types.Slice); slice {
								out.add(m, n.Pos(), "declares %s, a slice of producers", n.Name)
							}
						}
					}
					return true
				})
			})
			return out
		},
		plant: map[string]string{"internal/pipeline/planted.go": `package pipeline

type Producer struct{ staged int }

type plantedRegistry struct{ producers []*Engine }
`},
	},
	{
		// Every source reaches the analyser through the analysis's one quantum
		// ring (analysis.go: start, handOn, endQuanta): a source fills it on
		// its own goroutine and the one analyser goroutine drains it. No other
		// root-package file builds a channel of access buffers, so no source
		// grows a second ring of its own.
		name: "a second source-side ring is back",
		check: func(m *module) (out findings) {
			m.each(scope{dirs: []string{"."}}, func(p *pkg, f *file) {
				if f.name == "analysis.go" {
					return
				}
				ast.Inspect(f.ast, func(n ast.Node) bool {
					if ct, ok := n.(*ast.ChanType); ok {
						if t := p.info.TypeOf(ct.Value); t != nil && types.TypeString(t, nil) == "[]"+modulePath+"/internal/trace.Access" {
							out.add(m, ct.Pos(), "chan []trace.Access outside analysis.go")
						}
					}
					return true
				})
			})
			return out
		},
		plant: map[string]string{"planted.go": `package commprof

import "commprof/internal/trace"

var plantedRing = make(chan []trace.Access, 2)
`},
	},
}

// fixedRecords reports every place in f that sizes a buffer, a read or a
// write to the 29 bytes of a fixed access record: an array length, a call
// argument or a slice bound whose constant value is 29, however it is
// spelled (a literal, 8+8+4+4+4+1, a named constant). f is a non-test file of
// internal/trace, where no other constant is 29.
func (out *findings) fixedRecords(m *module, p *pkg, f *file) {
	is29 := func(x ast.Expr) bool {
		tv, ok := p.info.Types[x]
		return ok && tv.Value != nil && tv.Value.String() == "29"
	}
	report := func(x ast.Expr) {
		if x != nil && is29(x) {
			out.add(m, x.Pos(), "a fixed 29-byte record")
		}
	}
	ast.Inspect(f.ast, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ArrayType:
			report(n.Len)
		case *ast.CallExpr:
			for _, arg := range n.Args {
				report(arg)
			}
		case *ast.SliceExpr:
			report(n.Low)
			report(n.High)
			report(n.Max)
		}
		return true
	})
}

// testOnlyAllowed are the exports kept although only tests call them, each
// with its reason.
var testOnlyAllowed = map[string]bool{
	"internal/murmur.Sum128":                 true, // the reference HashAddr and HashAddrPair are tested against
	"(*internal/interp.Runtime).SetMaxSteps": true, // bounds the fuzz harness of internal/passes from another package
}

// testOnlyExports reports every exported function and method declared in
// internal/ that no non-test code of the module calls (bench/, examples/,
// cmd/ and the testdata/ programs count as callers; a function's calls of
// itself do not, nor do calls from another export this rule reports, so a
// helper only a test-only export calls is reported with it). A call is
// resolved to the object it names, so a method is matched by its receiver
// type, not by its name. A concrete method also counts as called when
// non-test code calls the same method through an interface its type
// satisfies, and when it satisfies an interface of a standard-library package
// the module imports (fmt.Stringer, io.Writer, flag.Value, ...), whose
// callers are outside the module. An interface's method counts as called
// when code calls it through the interface, or when the interface satisfies
// such a standard-library interface.
func testOnlyExports(m *module) (out findings) {
	// callers records, per called function, the declarations calling it: the
	// enclosing function, or nil for a package-level var or type.
	callers := map[*types.Func]map[*types.Func]bool{}
	std := map[string][]*types.Interface{}
	seenStd := map[*types.Package]bool{}
	for _, p := range m.dirs {
		if len(p.files) == 0 {
			continue
		}
		for _, imp := range p.types.Imports() {
			if seenStd[imp] || m.pkgs[imp.Path()] != nil {
				continue
			}
			seenStd[imp] = true
			for _, name := range imp.Scope().Names() {
				tn, ok := imp.Scope().Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						std[it.Method(i).Name()] = append(std[it.Method(i).Name()], it)
					}
				}
			}
		}
		for _, f := range p.files {
			for _, decl := range f.ast.Decls {
				var caller *types.Func
				if fd, ok := decl.(*ast.FuncDecl); ok {
					caller = p.info.Defs[fd.Name].(*types.Func)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := p.info.Uses[id].(*types.Func)
					if !ok || fn.Origin() == caller {
						return true
					}
					fn = fn.Origin()
					if callers[fn] == nil {
						callers[fn] = map[*types.Func]bool{}
					}
					callers[fn][caller] = true
					return true
				})
			}
		}
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	std["Error"] = append(std["Error"], errIface)
	// concrete lists the module's package-level concrete named types: a
	// method is in the method set of its receiver's type and of every type
	// that embeds it.
	var concrete []types.Type
	for _, p := range m.dirs {
		if p.types == nil {
			continue
		}
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if nt, ok := tn.Type().(*types.Named); ok && nt.TypeParams().Len() == 0 && !types.IsInterface(nt) {
					concrete = append(concrete, nt)
				}
			}
		}
	}
	implementsAny := func(t types.Type, ifaces []*types.Interface) bool {
		return slices.ContainsFunc(ifaces, func(it *types.Interface) bool { return types.Implements(t, it) })
	}
	// candidates are the exports under test, in declaration order; dead
	// holds those found test-only so far.
	var candidates []*types.Func
	for _, p := range m.dirs {
		if !under(p.dir, "internal") {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				var names []*ast.Ident
				switch n := n.(type) {
				case *ast.FuncDecl:
					names = []*ast.Ident{n.Name}
				case *ast.InterfaceType:
					for _, field := range n.Methods.List {
						names = append(names, field.Names...)
					}
				}
				for _, id := range names {
					if fn, ok := p.info.Defs[id].(*types.Func); ok && id.IsExported() && !testOnlyAllowed[exportName(fn)] {
						candidates = append(candidates, fn)
					}
				}
				return true
			})
		}
	}
	dead := map[*types.Func]bool{}
	called := func(fn *types.Func) bool {
		for caller := range callers[fn] {
			if caller == nil || !dead[caller] {
				return true
			}
		}
		return false
	}
	used := func(fn *types.Func) bool {
		if called(fn) {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		if types.IsInterface(recv.Type()) {
			return implementsAny(recv.Type(), std[fn.Name()])
		}
		var viaIface []*types.Interface // interfaces live code calls fn's name through
		for callee := range callers {
			if r := callee.Type().(*types.Signature).Recv(); r != nil && callee.Name() == fn.Name() && types.IsInterface(r.Type()) && called(callee) {
				viaIface = append(viaIface, r.Type().Underlying().(*types.Interface))
			}
		}
		for _, t := range concrete {
			for _, ct := range []types.Type{t, types.NewPointer(t)} {
				if obj, _, _ := types.LookupFieldOrMethod(ct, false, fn.Pkg(), fn.Name()); obj == fn &&
					(implementsAny(ct, viaIface) || implementsAny(ct, std[fn.Name()])) {
					return true
				}
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range candidates {
			if !dead[fn] && !used(fn) {
				dead[fn], changed = true, true
			}
		}
	}
	for _, fn := range candidates {
		if dead[fn] {
			out.add(m, fn.Pos(), "%s has no caller outside tests", exportName(fn))
		}
	}
	return out
}

// exportName is fn's full name with the module path trimmed, as
// testOnlyAllowed spells it.
func exportName(fn *types.Func) string {
	return strings.ReplaceAll(fn.FullName(), modulePath+"/", "")
}

// repoRoot is the root module's directory, two levels above this package.
func repoRoot(t *testing.T) string {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(filepath.Join(root, "go.mod")); err != nil || !bytes.HasPrefix(data, []byte("module "+modulePath+"\n")) {
		t.Fatalf("%s is not the %s module root", root, modulePath)
	}
	return root
}

func TestContracts(t *testing.T) {
	root := repoRoot(t)
	m, err := load(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range contracts {
		if got := c.check(m); len(got) > 0 {
			t.Errorf("%s:\n\t%s", c.name, strings.Join(got, "\n\t"))
		}
	}
}

// TestContractsFireOnPlantedViolations adds each contract's planted file to
// the module and requires the contract to report it.
func TestContractsFireOnPlantedViolations(t *testing.T) {
	root := repoRoot(t)
	for _, c := range contracts {
		m, err := load(root, c.plant)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := c.check(m)
		for rel := range c.plant {
			if !slices.ContainsFunc(got, func(f string) bool { return strings.HasPrefix(f, rel+":") }) {
				t.Errorf("%s: planted %s not reported; findings: %q", c.name, rel, got)
			}
		}
	}
}
