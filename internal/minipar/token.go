// Package minipar implements the front end of the MiniPar language: a small
// C-like SPMD parallel language used to demonstrate the full compiler-based
// instrumentation pipeline of the paper (static loop annotation, probe
// insertion, native-style execution) without LLVM. Programs declare shared
// arrays and functions; every thread executes main; `parfor` loops block-
// partition their iteration space across threads, `for` loops replicate, and
// `barrier` synchronises.
//
// Grammar (EBNF):
//
//	program   = { arrayDecl | funcDecl } .
//	arrayDecl = "array" IDENT "[" INT "]" ";" .
//	funcDecl  = "func" IDENT "(" [ IDENT { "," IDENT } ] ")" block .
//	block     = "{" { stmt } "}" .
//	stmt      = IDENT "=" expr ";"                    (scalar assign)
//	          | IDENT "[" expr "]" "=" expr ";"       (array store)
//	          | "for" IDENT "=" expr ".." expr block
//	          | "parfor" IDENT "=" expr ".." expr block
//	          | "if" expr block [ "else" block ]
//	          | "while" expr block
//	          | "barrier" ";"
//	          | "work" expr ";"
//	          | "out" expr ";"
//	          | "call" IDENT "(" [ expr { "," expr } ] ")" ";"
//	          | "lock" expr block                     (critical section)
//	expr      = orExpr .
//	orExpr    = andExpr { "||" andExpr } .
//	andExpr   = cmpExpr { "&&" cmpExpr } .
//	cmpExpr   = addExpr [ ("=="|"!="|"<"|"<="|">"|">=") addExpr ] .
//	addExpr   = mulExpr { ("+"|"-") mulExpr } .
//	mulExpr   = unary { ("*"|"/"|"%") unary } .
//	unary     = { "-" | "!" } primary .
//	primary   = INT | "tid" | "nthreads" | IDENT [ "[" expr "]" ] | "(" expr ")" .
package minipar

import "fmt"

// TokKind enumerates token kinds.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokInt
	TokIdent
	// Keywords.
	TokArray
	TokFunc
	TokFor
	TokParfor
	TokIf
	TokElse
	TokWhile
	TokBarrier
	TokWork
	TokOut
	TokCall
	TokLock
	TokTid
	TokNThreads
	// Punctuation and operators.
	TokLBrace
	TokRBrace
	TokLParen
	TokRParen
	TokLBracket
	TokRBracket
	TokSemi
	TokComma
	TokAssign
	TokDotDot
	TokPlus
	TokMinus
	TokStar
	TokSlash
	TokPercent
	TokEq
	TokNe
	TokLt
	TokLe
	TokGt
	TokGe
	TokAndAnd
	TokOrOr
	TokNot
)

// tokNames is the one spelling table: the lexer reads its keywords and
// punctuation from it (spellings), and diagnostics and BinExpr.Op spell a
// kind with it.
var tokNames = map[TokKind]string{
	TokEOF: "EOF", TokInt: "INT", TokIdent: "IDENT",
	TokArray: "array", TokFunc: "func", TokFor: "for", TokParfor: "parfor",
	TokIf: "if", TokElse: "else", TokWhile: "while", TokBarrier: "barrier",
	TokWork: "work", TokOut: "out", TokCall: "call", TokLock: "lock",
	TokTid: "tid", TokNThreads: "nthreads",
	TokLBrace: "{", TokRBrace: "}", TokLParen: "(", TokRParen: ")",
	TokLBracket: "[", TokRBracket: "]", TokSemi: ";", TokComma: ",",
	TokAssign: "=", TokDotDot: "..",
	TokPlus: "+", TokMinus: "-", TokStar: "*", TokSlash: "/", TokPercent: "%",
	TokEq: "==", TokNe: "!=", TokLt: "<", TokLe: "<=", TokGt: ">", TokGe: ">=",
	TokAndAnd: "&&", TokOrOr: "||", TokNot: "!",
}

// String returns the token kind's source form.
func (k TokKind) String() string {
	if s, ok := tokNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokKind(%d)", int(k))
}

// Token is one lexeme with its source position.
type Token struct {
	Kind TokKind
	Text string
	Int  int64
	Line int
	Col  int
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case TokInt:
		return fmt.Sprintf("%d", t.Int)
	case TokIdent:
		return t.Text
	default:
		return t.Kind.String()
	}
}

// Pos renders the token's position.
func (t Token) Pos() string { return fmt.Sprintf("%d:%d", t.Line, t.Col) }
