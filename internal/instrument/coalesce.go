package instrument

import (
	"go/ast"
	"go/token"
	"strings"

	"commprof/internal/cover"
)

// After the rewriter has interleaved _cp.R/_cp.W probe statements into a
// block, the coalescer walks each statement list once and drops probes whose
// detector effect is provably covered by an earlier probe of the same operand
// in the same block. Whether a probe is covered is decided by
// internal/cover's rule, the one the MiniPar IR pass runs too; a probe's key
// is its operand expression, size and region.
//
// What this file decides is where coverage dies. It is strictly block-local
// and dies at every statement that could synchronize, run foreign code, or
// change the value of an identifier a covered operand depends on:
//
//   - Any statement containing a call, function literal, channel operation,
//     or any statement form not explicitly whitelisted below, is a boundary
//     that clears all coverage. Calls subsume every Go synchronization
//     primitive (mutexes, channels, atomics, WaitGroups), so no probe is
//     ever coalesced across a happens-before edge.
//   - A plain assignment or inc/dec invalidates the keys whose operand
//     mentions an assigned identifier (the operand may now denote a
//     different address); := additionally kills an exact-match key, since
//     the fresh variable shadows the one the coverage was rooted in.
//
// Soundness matches the documented contract of the pass (DESIGN.md): between
// two probes of one goroutine with no intervening synchronization, a
// conflicting foreign write to the same location would be a data race, so
// for race-free programs the dropped probe is a detector no-op at address
// granularity; under coarse granularity false sharing carries the same
// statistical caveat as the -granularity option itself.

// coverState tracks block-local probe coverage during coalescing: the rule's
// Set, and what each key's operand mentions, to forget keys on assignment.
// A key's entries may outlive its coverage (a kept write clears only the
// Set); they are a function of the key, and forgetting an uncovered key is a
// no-op.
type coverState struct {
	cover    cover.Set
	exprOf   map[string]string          // key → operand expression string
	identsOf map[string]map[string]bool // key → identifiers the operand mentions
}

func newCoverState() *coverState {
	return &coverState{exprOf: map[string]string{}, identsOf: map[string]map[string]bool{}}
}

// clear forgets all coverage (boundary statement).
func (cv *coverState) clear() {
	cv.cover.Clear()
	clear(cv.exprOf)
	clear(cv.identsOf)
}

// invalidateIdent drops every key whose operand mentions name. A key whose
// operand IS exactly name survives unless exact is set: assigning to x
// changes the value at &x, not the address the probe records, but a := x
// creates a new variable and the old coverage is rooted in the old one.
func (cv *coverState) invalidateIdent(name string, exact bool) {
	for k, ids := range cv.identsOf {
		if !ids[name] {
			continue
		}
		if !exact && cv.exprOf[k] == name {
			continue
		}
		cv.drop(k)
	}
}

// invalidateContains drops every key whose operand contains the assigned
// lvalue's text as a subexpression: a store to A[i] changes the value any
// "...A[i]..." operand depends on. The exact-match key survives — its
// granule state was just handled by the statement's own write probe (an
// ineligible lvalue is never a key in the first place).
func (cv *coverState) invalidateContains(lhs string) {
	for k, ex := range cv.exprOf {
		if ex != lhs && strings.Contains(ex, lhs) {
			cv.drop(k)
		}
	}
}

func (cv *coverState) drop(k string) {
	cv.cover.Forget(k)
	delete(cv.exprOf, k)
	delete(cv.identsOf, k)
}

// coalesceList runs the block-local decision procedure over one rewritten
// statement list, returning the list with redundant probes removed.
func (b *bodyRewriter) coalesceList(list []ast.Stmt) []ast.Stmt {
	cv := newCoverState()
	out := make([]ast.Stmt, 0, len(list))
	for _, s := range list {
		if kind, key, operand, idents, ok := b.probeInfo(s); ok {
			covered := cv.cover.Write
			if kind == probeRead {
				covered = cv.cover.Read
			}
			if covered(key) {
				b.dropProbe()
				continue
			}
			cv.exprOf[key] = operand
			cv.identsOf[key] = idents
			out = append(out, s)
			continue
		}
		b.applyStmt(cv, s)
		out = append(out, s)
	}
	return out
}

// dropProbe un-counts one elided probe.
func (b *bodyRewriter) dropProbe() {
	b.probes--
	b.c.probes--
	b.c.coalesced++
}

// applyStmt updates coverage for one original (non-probe) statement.
func (b *bodyRewriter) applyStmt(cv *coverState, s ast.Stmt) {
	switch v := s.(type) {
	case *ast.EmptyStmt:
		// no effect
	case *ast.AssignStmt:
		for _, e := range v.Rhs {
			if !transparentExpr(e) {
				cv.clear()
				return
			}
		}
		for _, e := range v.Lhs {
			if !transparentExpr(e) {
				cv.clear()
				return
			}
		}
		for _, l := range v.Lhs {
			b.applyStore(cv, l, v.Tok == token.DEFINE)
		}
	case *ast.IncDecStmt:
		if !transparentExpr(v.X) {
			cv.clear()
			return
		}
		b.applyStore(cv, v.X, false)
	case *ast.DeclStmt:
		gd, ok := v.Decl.(*ast.GenDecl)
		if !ok {
			cv.clear()
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue // type or import spec: no runtime effect
			}
			for _, e := range vs.Values {
				if !transparentExpr(e) {
					cv.clear()
					return
				}
			}
			for _, n := range vs.Names {
				// Fresh declarations shadow like :=.
				cv.invalidateIdent(n.Name, true)
			}
		}
	default:
		// Control flow, calls, channel ops, go/defer, nested blocks, labels,
		// returns: coverage is block-local and dies here.
		cv.clear()
	}
}

// applyStore invalidates coverage for one assignment target.
func (b *bodyRewriter) applyStore(cv *coverState, l ast.Expr, define bool) {
	for {
		p, ok := l.(*ast.ParenExpr)
		if !ok {
			break
		}
		l = p.X
	}
	if id, ok := l.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		cv.invalidateIdent(id.Name, define)
		return
	}
	s, ok := exprString(l)
	if !ok {
		cv.clear()
		return
	}
	cv.invalidateContains(s)
}

// probeInfo recognizes an injected probe statement and extracts its kind and
// key. The handle name is collision-free by construction, so any
// `<handle>.R/W(...)` statement in a rewritten list is ours.
func (b *bodyRewriter) probeInfo(s ast.Stmt) (kind probeKind, key, operand string, idents map[string]bool, ok bool) {
	es, isExpr := s.(*ast.ExprStmt)
	if !isExpr {
		return 0, "", "", nil, false
	}
	call, isCall := es.X.(*ast.CallExpr)
	if !isCall || len(call.Args) != 3 {
		return 0, "", "", nil, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return 0, "", "", nil, false
	}
	recv, isIdent := sel.X.(*ast.Ident)
	if !isIdent || recv.Name != b.c.handleName {
		return 0, "", "", nil, false
	}
	switch sel.Sel.Name {
	case "R":
		kind = probeRead
	case "W":
		kind = probeWrite
	default:
		return 0, "", "", nil, false
	}
	// Args[0] is unsafe.Pointer(&expr); Args[1] and Args[2] are int literals.
	ptr, isCall := call.Args[0].(*ast.CallExpr)
	if !isCall || len(ptr.Args) != 1 {
		return 0, "", "", nil, false
	}
	addr, isAddr := ptr.Args[0].(*ast.UnaryExpr)
	if !isAddr || addr.Op != token.AND {
		return 0, "", "", nil, false
	}
	operand, strOK := exprString(addr.X)
	if !strOK {
		return 0, "", "", nil, false
	}
	size, sizeOK := call.Args[1].(*ast.BasicLit)
	region, regionOK := call.Args[2].(*ast.BasicLit)
	if !sizeOK || !regionOK {
		return 0, "", "", nil, false
	}
	key = operand + "\x00" + size.Value + "\x00" + region.Value
	idents = map[string]bool{}
	ast.Inspect(addr.X, func(n ast.Node) bool {
		if id, isID := n.(*ast.Ident); isID {
			idents[id.Name] = true
		}
		return true
	})
	return kind, key, operand, idents, true
}

// exprString renders the expression shapes cloneExpr produces (the probe
// operand grammar) plus the lvalue shapes assignments use. Unknown shapes
// report failure, which callers treat as a boundary.
func exprString(e ast.Expr) (string, bool) {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name, true
	case *ast.BasicLit:
		return v.Value, true
	case *ast.ParenExpr:
		s, ok := exprString(v.X)
		return "(" + s + ")", ok
	case *ast.StarExpr:
		s, ok := exprString(v.X)
		return "*" + s, ok
	case *ast.UnaryExpr:
		s, ok := exprString(v.X)
		return v.Op.String() + s, ok
	case *ast.IndexExpr:
		x, ok1 := exprString(v.X)
		i, ok2 := exprString(v.Index)
		return x + "[" + i + "]", ok1 && ok2
	case *ast.SelectorExpr:
		x, ok := exprString(v.X)
		return x + "." + v.Sel.Name, ok
	case *ast.BinaryExpr:
		x, ok1 := exprString(v.X)
		y, ok2 := exprString(v.Y)
		return x + v.Op.String() + y, ok1 && ok2
	}
	return "", false
}

// transparentExpr reports whether evaluating e cannot run foreign code,
// synchronize, or write memory: no calls (conversions included — telling
// them apart needs type info and a conversion is cheap to fence), no
// function literals, no channel receives. These are the only expression
// forms coverage may flow across.
func transparentExpr(e ast.Expr) bool {
	if e == nil {
		return true
	}
	transparent := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr, *ast.FuncLit:
			transparent = false
			return false
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				transparent = false
				return false
			}
		}
		return transparent
	})
	return transparent
}
