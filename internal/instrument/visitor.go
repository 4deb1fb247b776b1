package instrument

import (
	"go/ast"
	"go/token"
	"go/types"
	"math"
)

// probeKind distinguishes the two injected probe calls.
type probeKind int

const (
	probeRead probeKind = iota
	probeWrite
)

// rewrite drives probe injection over every function body. Placement
// discipline: every probe is inserted as a statement BEFORE the statement it
// instruments — reads first, then writes — so probes evaluate their operands
// before the original statement mutates anything and no expression is ever
// moved or re-evaluated after a side effect.
func (c *ctx) rewrite() {
	c.captured = c.findCaptured()
	for _, f := range c.files {
		before := c.probes
		shimCalls := c.rewriteExits(f) // calls into the shim other than probes
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			br := &bodyRewriter{c: c}
			fd.Body.List = br.stmts(fd.Body.List, c.regionOf[fd])
			var prelude []ast.Stmt
			if c.isMain(fd) {
				// Shutdown is deferred first so it runs after any of the
				// user's own defers have finished touching shared memory.
				prelude = append(prelude, c.deferShutdownStmt())
				shimCalls = true
			}
			if br.probes > 0 {
				prelude = append(prelude, c.handleDeclStmt())
			}
			fd.Body.List = append(prelude, fd.Body.List...)
		}
		if c.probes > before || shimCalls {
			addImport(f, c.probeAlias, probeImportPath)
		}
		if c.probes > before {
			addImport(f, c.unsafeAlias, "unsafe")
		}
	}
}

// rewriteExits turns every direct os.Exit(x) call in f into commprobe.Exit(x)
// — Shutdown, then os.Exit — so that way out of the program keeps its trace
// too, and reports whether it found one. An "os" import the rewrite leaves
// without a use becomes a blank import.
func (c *ctx) rewriteExits(f *ast.File) bool {
	osName := func(e ast.Expr) types.Object {
		if id, ok := e.(*ast.Ident); ok {
			if pn, ok := c.info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "os" {
				return pn
			}
		}
		return nil
	}
	rewrote := map[types.Object]bool{}
	left := map[types.Object]int{} // uses each import of "os" keeps
	ast.Inspect(f, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Exit" {
				if pn := osName(sel.X); pn != nil {
					v.Fun = c.shimCall("Exit").Fun
					rewrote[pn] = true
				}
			}
		case *ast.SelectorExpr:
			if pn := osName(v.X); pn != nil {
				left[pn]++
			}
		}
		return true
	})
	for _, spec := range f.Imports {
		obj := c.info.Implicits[spec]
		if spec.Name != nil {
			obj = c.info.Defs[spec.Name]
		}
		if rewrote[obj] && left[obj] == 0 {
			spec.Name = ast.NewIdent("_")
		}
	}
	return len(rewrote) > 0
}

// isMain reports whether fd is the program entry point of a main package.
func (c *ctx) isMain(fd *ast.FuncDecl) bool {
	return c.pkg.Name() == "main" && fd.Name.Name == "main" && fd.Recv == nil
}

// findCaptured returns the local variables referenced from more than one
// function body. A local captured by a function literal can be shared across
// goroutines (the literal may run under `go`), so capture upgrades a local to
// probe-eligible everywhere it appears.
func (c *ctx) findCaptured() map[*types.Var]bool {
	owner := map[*types.Var]ast.Node{}
	captured := map[*types.Var]bool{}
	var walk func(n ast.Node, body ast.Node)
	walk = func(n ast.Node, body ast.Node) {
		ast.Inspect(n, func(nd ast.Node) bool {
			switch v := nd.(type) {
			case *ast.FuncLit:
				walk(v.Body, v)
				return false
			case *ast.Ident:
				vr, ok := c.info.ObjectOf(v).(*types.Var)
				if !ok || vr.IsField() || vr.Pkg() != c.pkg || vr.Parent() == c.pkg.Scope() {
					return true
				}
				if prev, seen := owner[vr]; seen && prev != body {
					captured[vr] = true
				} else {
					owner[vr] = body
				}
			}
			return true
		})
	}
	for _, f := range c.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				walk(fd.Body, fd)
			}
		}
	}
	return captured
}

// bodyRewriter instruments one function body. Nested function literals get
// their own rewriter (and their own handle binding), so probes always uses
// the handle of the goroutine actually executing them.
type bodyRewriter struct {
	c      *ctx
	probes int
}

// stmts rewrites a statement list, interleaving probe statements before the
// statements they instrument, then coalesces block-local redundant probes
// (see coalesce.go) unless the pass is disabled.
func (b *bodyRewriter) stmts(list []ast.Stmt, region int32) []ast.Stmt {
	out := make([]ast.Stmt, 0, len(list))
	for _, s := range list {
		out = append(out, b.stmt(s, region)...)
		out = append(out, s)
	}
	if b.c.coalesce {
		out = b.coalesceList(out)
	}
	return out
}

// stmt recurses into s, rewriting nested blocks in place, and returns the
// probe statements to insert before s.
func (b *bodyRewriter) stmt(s ast.Stmt, region int32) []ast.Stmt {
	var pre []ast.Stmt
	switch v := s.(type) {
	case *ast.AssignStmt:
		for _, e := range v.Rhs {
			b.reads(e, region, &pre)
		}
		for _, l := range v.Lhs {
			if isBlank(l) {
				continue
			}
			if v.Tok == token.DEFINE {
				continue // fresh variables: first write is creation, not communication
			}
			if v.Tok == token.ASSIGN {
				b.chainReads(l, region, &pre) // indexes and pointers on the path are read
			} else {
				b.probe(l, probeRead, region, &pre) // compound ops (+=, |=, …) read the target too
			}
			b.probe(l, probeWrite, region, &pre)
		}
	case *ast.IncDecStmt:
		b.probe(v.X, probeRead, region, &pre)
		b.probe(v.X, probeWrite, region, &pre)
	case *ast.ExprStmt:
		b.reads(v.X, region, &pre)
	case *ast.SendStmt:
		// The channel's internals belong to the runtime, not the program's
		// shared state; only the value being sent is a program-level read.
		b.reads(v.Value, region, &pre)
	case *ast.ReturnStmt:
		for _, e := range v.Results {
			b.reads(e, region, &pre)
		}
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						b.reads(e, region, &pre)
					}
				}
			}
		}
	case *ast.GoStmt:
		b.reads(v.Call, region, &pre) // arguments are evaluated by the spawning goroutine
	case *ast.DeferStmt:
		b.reads(v.Call, region, &pre) // arguments are evaluated at defer time
	case *ast.BlockStmt:
		v.List = b.stmts(v.List, region)
	case *ast.IfStmt:
		if v.Init != nil {
			pre = append(pre, b.stmt(v.Init, region)...)
		}
		b.reads(v.Cond, region, &pre)
		v.Body.List = b.stmts(v.Body.List, region)
		if v.Else != nil {
			switch e := v.Else.(type) {
			case *ast.BlockStmt:
				e.List = b.stmts(e.List, region)
			case *ast.IfStmt:
				// An else-if condition only evaluates when the first branch
				// fails, so its probes cannot go before the outer if; wrap
				// the chained if in a block and probe inside it.
				inner := b.stmt(e, region)
				if len(inner) > 0 {
					wrapped := append(inner, ast.Stmt(e))
					if b.c.coalesce {
						wrapped = b.coalesceList(wrapped)
					}
					if len(wrapped) > 1 {
						v.Else = &ast.BlockStmt{List: wrapped}
					}
				}
			}
		}
	case *ast.ForStmt:
		// Init/Cond/Post are not probed: their reads repeat per iteration
		// but any probe would sit outside the loop (see DESIGN.md §7).
		v.Body.List = b.stmts(v.Body.List, b.c.regionOf[v])
	case *ast.RangeStmt:
		b.reads(v.X, region, &pre) // the range operand is evaluated once, before the loop
		v.Body.List = b.stmts(v.Body.List, b.c.regionOf[v])
	case *ast.SwitchStmt:
		if v.Init != nil {
			pre = append(pre, b.stmt(v.Init, region)...)
		}
		if v.Tag != nil {
			b.reads(v.Tag, region, &pre)
		}
		b.caseBodies(v.Body, region)
	case *ast.TypeSwitchStmt:
		b.caseBodies(v.Body, region)
	case *ast.SelectStmt:
		// Communication clauses are conditional; only the chosen clause's
		// body runs, so probes go inside the bodies, never before the select.
		for _, cl := range v.Body.List {
			if comm, ok := cl.(*ast.CommClause); ok {
				comm.Body = b.stmts(comm.Body, region)
			}
		}
	case *ast.LabeledStmt:
		pre = append(pre, b.stmt(v.Stmt, region)...)
	}
	return pre
}

// caseBodies rewrites the clause bodies of a switch. Case expressions are
// evaluated conditionally (first match wins), so they are not probed.
func (b *bodyRewriter) caseBodies(body *ast.BlockStmt, region int32) {
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CaseClause); ok {
			cc.Body = b.stmts(cc.Body, region)
		}
	}
}

// reads walks an expression collecting read probes for every eligible
// shared-memory load inside it, and hands nested function literals to their
// own rewriter.
func (b *bodyRewriter) reads(e ast.Expr, region int32, out *[]ast.Stmt) {
	if e == nil {
		return
	}
	if b.eligible(e) {
		b.emit(e, probeRead, region, out)
		b.chainReads(e, region, out)
		return
	}
	switch v := e.(type) {
	case *ast.ParenExpr:
		b.reads(v.X, region, out)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			// Taking an address reads the indexes on the path, not the target.
			b.chainReads(v.X, region, out)
			return
		}
		b.reads(v.X, region, out)
	case *ast.StarExpr:
		b.reads(v.X, region, out)
	case *ast.BinaryExpr:
		b.reads(v.X, region, out)
		b.reads(v.Y, region, out)
	case *ast.CallExpr:
		if lit, ok := v.Fun.(*ast.FuncLit); ok {
			b.lit(lit)
		} else {
			b.reads(v.Fun, region, out)
		}
		for _, a := range v.Args {
			b.reads(a, region, out)
		}
	case *ast.IndexExpr:
		b.insideReads(v.X, region, out)
		b.reads(v.Index, region, out)
	case *ast.SelectorExpr:
		b.insideReads(v.X, region, out)
	case *ast.SliceExpr:
		b.reads(v.X, region, out)
		b.reads(v.Low, region, out)
		b.reads(v.High, region, out)
		b.reads(v.Max, region, out)
	case *ast.TypeAssertExpr:
		b.reads(v.X, region, out)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			b.reads(el, region, out)
		}
	case *ast.KeyValueExpr:
		b.reads(v.Value, region, out)
	case *ast.FuncLit:
		b.lit(v)
	}
}

// insideReads descends into the base of an ineligible index or selector
// chain. The base variable itself is not probed as a whole — `m[1]` must not
// record a read of the entire map header, nor `g[idx()]` a read of the whole
// array — but index expressions and call arguments nested inside it are.
func (b *bodyRewriter) insideReads(e ast.Expr, region int32, out *[]ast.Stmt) {
	switch v := e.(type) {
	case *ast.Ident:
		// base variable header: compilers keep it registered, skip
	case *ast.ParenExpr:
		b.insideReads(v.X, region, out)
	case *ast.IndexExpr:
		b.insideReads(v.X, region, out)
		b.reads(v.Index, region, out)
	case *ast.SelectorExpr:
		b.insideReads(v.X, region, out)
	default:
		b.reads(e, region, out)
	}
}

// chainReads collects the implicit reads buried in an lvalue chain: index
// expressions and explicitly dereferenced pointers. The base variable's own
// header load is deliberately not probed — compilers keep it in a register —
// so `s[i] = v` probes the element write and the read of i, not of s.
func (b *bodyRewriter) chainReads(e ast.Expr, region int32, out *[]ast.Stmt) {
	switch v := e.(type) {
	case *ast.ParenExpr:
		b.chainReads(v.X, region, out)
	case *ast.IndexExpr:
		b.chainReads(v.X, region, out)
		b.reads(v.Index, region, out)
	case *ast.SelectorExpr:
		b.chainReads(v.X, region, out)
	case *ast.StarExpr:
		b.reads(v.X, region, out)
	}
}

// lit instruments a function literal with a fresh rewriter: its body binds
// its own goroutine handle, which is what makes `go func() {...}()` attribute
// probes to the spawned goroutine rather than the spawner.
func (b *bodyRewriter) lit(v *ast.FuncLit) {
	nb := &bodyRewriter{c: b.c}
	v.Body.List = nb.stmts(v.Body.List, b.c.regionOf[v])
	if nb.probes > 0 {
		v.Body.List = append([]ast.Stmt{b.c.handleDeclStmt()}, v.Body.List...)
	}
}

// probe emits one probe for e if it is eligible; used for write targets where
// the statement kind, not the expression shape, decides the probe kind.
func (b *bodyRewriter) probe(e ast.Expr, kind probeKind, region int32, out *[]ast.Stmt) {
	if !b.eligible(e) {
		return
	}
	if kind == probeWrite {
		// The write's chain reads were already collected by the paired read
		// probe or the caller; emit just the store record here.
		b.emit(e, probeWrite, region, out)
		return
	}
	b.emit(e, probeRead, region, out)
	b.chainReads(e, region, out)
}

// eligible reports whether e denotes probe-worthy shared memory: an
// addressable, side-effect-free lvalue chain rooted in shared state, with a
// statically known size. Map elements (not addressable), expressions
// containing calls, and purely goroutine-local variables all fail here.
func (b *bodyRewriter) eligible(e ast.Expr) bool {
	tv, ok := b.c.info.Types[e]
	if !ok || !tv.Addressable() {
		return false
	}
	if !b.pure(e) || !b.shared(e) {
		return false
	}
	sz, ok := b.c.sizeOf(tv.Type)
	return ok && sz > 0 && sz <= math.MaxUint32
}

// pure reports whether e can be re-evaluated inside a probe argument without
// side effects: identifier/selector/index/deref chains over pure operands.
func (b *bodyRewriter) pure(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.Ident, *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return b.pure(v.X)
	case *ast.StarExpr:
		return b.pure(v.X)
	case *ast.IndexExpr:
		return b.pure(v.X) && b.pure(v.Index)
	case *ast.BinaryExpr:
		return b.pure(v.X) && b.pure(v.Y)
	case *ast.SelectorExpr:
		if sel, ok := b.c.info.Selections[v]; ok {
			return sel.Kind() == types.FieldVal && b.pure(v.X)
		}
		return b.pure(v.X) // qualified identifier (pkg.Var)
	}
	return false
}

// shared reports whether the chain e can denote memory visible to another
// goroutine: it passes through a pointer (explicit deref or pointer-receiver
// field), lands in a slice's backing array, or roots in a package-level or
// closure-captured variable. Everything else is goroutine-private and skipped.
func (b *bodyRewriter) shared(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.Ident:
		vr, ok := b.c.info.ObjectOf(v).(*types.Var)
		if !ok || vr.IsField() {
			return false
		}
		if vr.Pkg() != nil && vr.Parent() == vr.Pkg().Scope() {
			return true // package-level variable
		}
		return b.c.captured[vr] // local shared through closure capture
	case *ast.ParenExpr:
		return b.shared(v.X)
	case *ast.StarExpr:
		return true // explicit pointer dereference
	case *ast.IndexExpr:
		if _, ok := b.c.info.TypeOf(v.X).Underlying().(*types.Slice); ok {
			return true // slice backing arrays are assumed shareable
		}
		return b.shared(v.X) // array element: as shared as the array itself
	case *ast.SelectorExpr:
		if sel, ok := b.c.info.Selections[v]; ok {
			if sel.Indirect() {
				return true // implicit deref through a pointer on the path
			}
			return b.shared(v.X)
		}
		if vr, ok := b.c.info.ObjectOf(v.Sel).(*types.Var); ok {
			return vr.Pkg() != nil && vr.Parent() == vr.Pkg().Scope()
		}
		return false
	}
	return false
}

// sizeOf computes a type's static size, reporting failure instead of
// panicking for abstract types (unresolved type parameters and friends).
func (c *ctx) sizeOf(t types.Type) (n int64, ok bool) {
	if t == nil {
		return 0, false
	}
	defer func() {
		if recover() != nil {
			n, ok = 0, false
		}
	}()
	return c.sizes.Sizeof(t), true
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
