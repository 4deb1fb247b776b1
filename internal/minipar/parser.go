package minipar

import (
	"fmt"
	"slices"
)

// Parse lexes and parses MiniPar source into an AST.
func Parse(src string) (prog *Program, err error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(syntaxError)
			if !ok {
				panic(r)
			}
			prog, err = nil, se.error
		}
	}()
	p := &parser{toks: toks}
	prog = p.program()
	if err := checkProgram(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// syntaxError carries a syntax error out of the descent: failf panics with
// it and Parse alone recovers it.
type syntaxError struct{ error }

// failf abandons the parse with an error at token at.
func failf(at Token, format string, args ...any) {
	panic(syntaxError{fmt.Errorf("minipar: %s: %s", at.Pos(), fmt.Sprintf(format, args...))})
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) accept(k TokKind) bool {
	if p.cur().Kind == k {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(k TokKind) Token {
	if p.cur().Kind != k {
		failf(p.cur(), "expected %s, found %s", k, p.cur())
	}
	return p.next()
}

// list parses "(" [ elem { "," elem } ] ")".
func (p *parser) list(elem func()) {
	p.expect(TokLParen)
	if p.cur().Kind != TokRParen {
		elem()
		for p.accept(TokComma) {
			elem()
		}
	}
	p.expect(TokRParen)
}

func (p *parser) program() *Program {
	prog := &Program{}
	for {
		switch p.cur().Kind {
		case TokEOF:
			return prog
		case TokArray:
			prog.Arrays = append(prog.Arrays, p.arrayDecl())
		case TokFunc:
			prog.Funcs = append(prog.Funcs, p.funcDecl())
		default:
			failf(p.cur(), "expected array or func declaration, found %s", p.cur())
		}
	}
}

func (p *parser) arrayDecl() ArrayDecl {
	kw := p.next() // array
	name := p.expect(TokIdent)
	p.expect(TokLBracket)
	size := p.expect(TokInt)
	p.expect(TokRBracket)
	p.expect(TokSemi)
	if size.Int <= 0 {
		failf(kw, "array %s has non-positive size %d", name.Text, size.Int)
	}
	return ArrayDecl{Name: name.Text, Size: size.Int, Line: kw.Line}
}

func (p *parser) funcDecl() FuncDecl {
	kw := p.next() // func
	name := p.expect(TokIdent)
	var params []string
	p.list(func() { params = append(params, p.expect(TokIdent).Text) })
	return FuncDecl{Name: name.Text, Params: params, Body: p.block(), Line: kw.Line, RegionID: -1}
}

func (p *parser) block() []Stmt {
	p.expect(TokLBrace)
	var out []Stmt
	for !p.accept(TokRBrace) {
		if p.cur().Kind == TokEOF {
			failf(p.cur(), "unterminated block")
		}
		out = append(out, p.stmt())
	}
	return out
}

// stmt parses one statement. A compound statement returns from its case;
// a simple one leaves the switch and ends at its ";".
func (p *parser) stmt() Stmt {
	t := p.next()
	var s Stmt
	switch t.Kind {
	case TokFor, TokParfor:
		v := p.expect(TokIdent)
		p.expect(TokAssign)
		from := p.expr()
		p.expect(TokDotDot)
		to := p.expr()
		return &ForStmt{
			Var: v.Text, From: from, To: to, Body: p.block(),
			Parallel: t.Kind == TokParfor, Line: t.Line, RegionID: -1,
		}
	case TokWhile:
		return &WhileStmt{Cond: p.expr(), Body: p.block(), Line: t.Line, RegionID: -1}
	case TokIf:
		is := &IfStmt{Cond: p.expr(), Then: p.block(), Line: t.Line}
		if p.accept(TokElse) {
			is.Else = p.block()
		}
		return is
	case TokLock:
		return &LockStmt{ID: p.expr(), Body: p.block(), Line: t.Line}
	case TokBarrier:
		s = &BarrierStmt{Line: t.Line}
	case TokWork:
		s = &WorkStmt{Units: p.expr(), Line: t.Line}
	case TokOut:
		s = &OutStmt{Expr: p.expr(), Line: t.Line}
	case TokCall:
		c := &CallStmt{Name: p.expect(TokIdent).Text, Line: t.Line}
		p.list(func() { c.Args = append(c.Args, p.expr()) })
		s = c
	case TokIdent:
		if p.accept(TokLBracket) {
			idx := p.expr()
			p.expect(TokRBracket)
			p.expect(TokAssign)
			s = &StoreStmt{Array: t.Text, Index: idx, Expr: p.expr(), Line: t.Line}
		} else {
			p.expect(TokAssign)
			s = &AssignStmt{Name: t.Text, Expr: p.expr(), Line: t.Line}
		}
	default:
		failf(t, "unexpected %s at statement start", t)
	}
	p.expect(TokSemi)
	return s
}

// levels is the precedence table of the binary operators, loosest first.
// Every level is left-associative except the comparisons, which do not
// chain: "1 < 2 < 3" stops after "1 < 2".
var levels = []struct {
	ops   []TokKind
	chain bool
}{
	{[]TokKind{TokOrOr}, true},
	{[]TokKind{TokAndAnd}, true},
	{[]TokKind{TokEq, TokNe, TokLt, TokLe, TokGt, TokGe}, false},
	{[]TokKind{TokPlus, TokMinus}, true},
	{[]TokKind{TokStar, TokSlash, TokPercent}, true},
}

func (p *parser) expr() Expr { return p.binary(0) }

// binary parses an expression whose loosest operator is at levels[level]
// or tighter.
func (p *parser) binary(level int) Expr {
	if level == len(levels) {
		return p.unary()
	}
	x := p.binary(level + 1)
	for slices.Contains(levels[level].ops, p.cur().Kind) {
		op := p.next().Kind.String()
		x = &BinExpr{Op: op, L: x, R: p.binary(level + 1)}
		if !levels[level].chain {
			break
		}
	}
	return x
}

func (p *parser) unary() Expr {
	if k := p.cur().Kind; k == TokMinus || k == TokNot {
		p.next()
		return &UnaryExpr{Op: k.String(), X: p.unary()}
	}
	return p.primary()
}

func (p *parser) primary() Expr {
	t := p.next()
	switch t.Kind {
	case TokInt:
		return &IntLit{Value: t.Int}
	case TokTid:
		return &TidRef{}
	case TokNThreads:
		return &NThreadsRef{}
	case TokIdent:
		if !p.accept(TokLBracket) {
			return &VarRef{Name: t.Text}
		}
		idx := p.expr()
		p.expect(TokRBracket)
		return &IndexExpr{Array: t.Text, Index: idx}
	case TokLParen:
		e := p.expr()
		p.expect(TokRParen)
		return e
	}
	failf(t, "unexpected %s in expression", t)
	return nil
}
