package instrument

import (
	"go/ast"
	"go/token"
	"strconv"
)

// emit appends one probe statement for e:
//
//	_cp.R(unsafe.Pointer(&e), size, region)
//
// The operand is cloned with neutral positions so go/printer lays the probe
// out independently of the original expression's source location.
func (b *bodyRewriter) emit(e ast.Expr, kind probeKind, region int32, out *[]ast.Stmt) {
	sz, ok := b.c.sizeOf(b.c.info.TypeOf(e))
	if !ok {
		return
	}
	method := "R"
	if kind == probeWrite {
		method = "W"
	}
	call := &ast.CallExpr{
		Fun: &ast.SelectorExpr{X: ast.NewIdent(b.c.handleName), Sel: ast.NewIdent(method)},
		Args: []ast.Expr{
			&ast.CallExpr{
				Fun:  &ast.SelectorExpr{X: ast.NewIdent(b.c.unsafeAlias), Sel: ast.NewIdent("Pointer")},
				Args: []ast.Expr{&ast.UnaryExpr{Op: token.AND, X: cloneExpr(e)}},
			},
			intLit(sz),
			intLit(int64(region)),
		},
	}
	*out = append(*out, &ast.ExprStmt{X: call})
	b.probes++
	b.c.probes++
}

// shimCall builds a call of the runtime shim's function name through the
// package's import alias: `commprobe.name(args...)`.
func (c *ctx) shimCall(name string, args ...ast.Expr) *ast.CallExpr {
	return &ast.CallExpr{
		Fun:  &ast.SelectorExpr{X: ast.NewIdent(c.probeAlias), Sel: ast.NewIdent(name)},
		Args: args,
	}
}

// handleDeclStmt builds `_cp := commprobe.G()`, the per-function-body
// goroutine handle binding.
func (c *ctx) handleDeclStmt() ast.Stmt {
	return &ast.AssignStmt{
		Lhs: []ast.Expr{ast.NewIdent(c.handleName)},
		Tok: token.DEFINE,
		Rhs: []ast.Expr{c.shimCall("G")},
	}
}

// deferShutdownStmt builds `defer commprobe.Shutdown()` for main.main.
func (c *ctx) deferShutdownStmt() ast.Stmt {
	return &ast.DeferStmt{Call: c.shimCall("Shutdown")}
}

// addImport prepends a fresh import declaration binding alias to path. A
// separate declaration per injected import sidesteps go/printer's paren and
// position bookkeeping for extending existing groups; the alias is written
// explicitly only when it differs from the package's natural name.
func addImport(f *ast.File, alias, path string) {
	spec := &ast.ImportSpec{
		Path: &ast.BasicLit{Kind: token.STRING, Value: strconv.Quote(path)},
	}
	if alias != baseName(path) {
		spec.Name = ast.NewIdent(alias)
	}
	decl := &ast.GenDecl{Tok: token.IMPORT, Specs: []ast.Spec{spec}}
	f.Decls = append([]ast.Decl{decl}, f.Decls...)
}

// baseName returns the last path element — the natural package name of the
// injected imports ("unsafe", "commprof/probe" → "probe").
func baseName(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// cloneExpr deep-copies the pure lvalue chains the rewriter probes, with all
// positions cleared. Probes must not alias the original nodes: go/printer
// keys layout on positions, and a shared node would inherit the original's.
func cloneExpr(e ast.Expr) ast.Expr {
	switch v := e.(type) {
	case *ast.Ident:
		return ast.NewIdent(v.Name)
	case *ast.BasicLit:
		return &ast.BasicLit{Kind: v.Kind, Value: v.Value}
	case *ast.ParenExpr:
		return &ast.ParenExpr{X: cloneExpr(v.X)}
	case *ast.StarExpr:
		return &ast.StarExpr{X: cloneExpr(v.X)}
	case *ast.IndexExpr:
		return &ast.IndexExpr{X: cloneExpr(v.X), Index: cloneExpr(v.Index)}
	case *ast.SelectorExpr:
		return &ast.SelectorExpr{X: cloneExpr(v.X), Sel: ast.NewIdent(v.Sel.Name)}
	case *ast.BinaryExpr:
		return &ast.BinaryExpr{X: cloneExpr(v.X), Op: v.Op, Y: cloneExpr(v.Y)}
	}
	return e // unreachable: pure() admits only the shapes above
}

// intLit renders a non-negative integer literal.
func intLit(n int64) ast.Expr {
	return &ast.BasicLit{Kind: token.INT, Value: strconv.FormatInt(n, 10)}
}
