package passes

import (
	"commprof/internal/ir"
	"commprof/internal/minipar"
)

// FoldConstants rewrites constant subexpressions of the AST in place:
// binary and unary operations whose operands are integer literals become
// literals. Binary operators evaluate through ir.EvalBin, the interpreter's
// own arithmetic; an operation it refuses (division or modulo by a constant
// zero) is left unfolded so the error surfaces at runtime with its source
// position, as it does for dynamic zero divisors.
func FoldConstants(p *minipar.Program) {
	for i := range p.Funcs {
		foldStmts(p.Funcs[i].Body)
	}
}

func foldStmts(ss []minipar.Stmt) {
	for _, s := range ss {
		switch st := s.(type) {
		case *minipar.AssignStmt:
			st.Expr = foldExpr(st.Expr)
		case *minipar.StoreStmt:
			st.Index = foldExpr(st.Index)
			st.Expr = foldExpr(st.Expr)
		case *minipar.ForStmt:
			st.From = foldExpr(st.From)
			st.To = foldExpr(st.To)
			foldStmts(st.Body)
		case *minipar.WhileStmt:
			st.Cond = foldExpr(st.Cond)
			foldStmts(st.Body)
		case *minipar.IfStmt:
			st.Cond = foldExpr(st.Cond)
			foldStmts(st.Then)
			foldStmts(st.Else)
		case *minipar.WorkStmt:
			st.Units = foldExpr(st.Units)
		case *minipar.OutStmt:
			st.Expr = foldExpr(st.Expr)
		case *minipar.CallStmt:
			for i := range st.Args {
				st.Args[i] = foldExpr(st.Args[i])
			}
		case *minipar.LockStmt:
			st.ID = foldExpr(st.ID)
			foldStmts(st.Body)
		}
	}
}

func foldExpr(e minipar.Expr) minipar.Expr {
	switch ex := e.(type) {
	case *minipar.IndexExpr:
		ex.Index = foldExpr(ex.Index)
		return ex
	case *minipar.UnaryExpr:
		ex.X = foldExpr(ex.X)
		if lit, ok := ex.X.(*minipar.IntLit); ok {
			switch ex.Op {
			case "-":
				return &minipar.IntLit{Value: -lit.Value}
			case "!":
				if lit.Value == 0 {
					return &minipar.IntLit{Value: 1}
				}
				return &minipar.IntLit{Value: 0}
			}
		}
		return ex
	case *minipar.BinExpr:
		ex.L = foldExpr(ex.L)
		ex.R = foldExpr(ex.R)
		l, lok := ex.L.(*minipar.IntLit)
		r, rok := ex.R.(*minipar.IntLit)
		if !lok || !rok {
			return ex
		}
		code, err := ir.BinOpCode(ex.Op)
		if err != nil {
			return ex
		}
		v, err := ir.EvalBin(code, l.Value, r.Value)
		if err != nil {
			return ex // a zero divisor faults at run time, at its position
		}
		return &minipar.IntLit{Value: v}
	default:
		return e
	}
}
