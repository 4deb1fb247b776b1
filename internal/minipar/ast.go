package minipar

// Program is a parsed MiniPar compilation unit.
type Program struct {
	Arrays []ArrayDecl
	Funcs  []FuncDecl
}

// FindArray returns the index of the named array declaration, or -1.
func (p *Program) FindArray(name string) int {
	for i := range p.Arrays {
		if p.Arrays[i].Name == name {
			return i
		}
	}
	return -1
}

// ArrayDecl is a shared-array declaration: `array A[1024];`.
type ArrayDecl struct {
	Name string
	Size int64
	Line int
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Name   string
	Params []string
	Body   []Stmt
	Line   int

	// RegionID is filled by the annotation pass (passes.Annotate).
	RegionID int32
}

// Stmt is a statement node.
type Stmt interface{ stmt() }

// AssignStmt is `x = expr;`.
type AssignStmt struct {
	Name string
	Expr Expr
	Line int
}

// StoreStmt is `A[idx] = expr;`.
type StoreStmt struct {
	Array string
	Index Expr
	Expr  Expr
	Line  int
}

// ForStmt is a sequential (replicated) or parallel (block-partitioned)
// counted loop over [From, To).
type ForStmt struct {
	Var      string
	From, To Expr
	Body     []Stmt
	Parallel bool
	Line     int

	// RegionID is the loop UID assigned by the annotation pass — the
	// MiniPar equivalent of the paper's Listing 1 metadata node.
	RegionID int32
}

// WhileStmt is `while cond { ... }`.
type WhileStmt struct {
	Cond Expr
	Body []Stmt
	Line int

	// RegionID is the loop UID assigned by the annotation pass.
	RegionID int32
}

// IfStmt is `if cond { ... } [else { ... }]`.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Line int
}

// BarrierStmt is `barrier;`.
type BarrierStmt struct{ Line int }

// WorkStmt is `work expr;` — simulated uninstrumented computation.
type WorkStmt struct {
	Units Expr
	Line  int
}

// OutStmt is `out expr;` — appends a value to the run's output.
type OutStmt struct {
	Expr Expr
	Line int
}

// CallStmt is `call f(args);`.
type CallStmt struct {
	Name string
	Args []Expr
	Line int
}

// LockStmt is `lock id { ... }` — a critical section guarded by mutex id.
type LockStmt struct {
	ID   Expr
	Body []Stmt
	Line int
}

func (*AssignStmt) stmt()  {}
func (*StoreStmt) stmt()   {}
func (*ForStmt) stmt()     {}
func (*WhileStmt) stmt()   {}
func (*IfStmt) stmt()      {}
func (*BarrierStmt) stmt() {}
func (*WorkStmt) stmt()    {}
func (*OutStmt) stmt()     {}
func (*CallStmt) stmt()    {}
func (*LockStmt) stmt()    {}

// Expr is an expression node.
type Expr interface{ expr() }

// IntLit is an integer literal.
type IntLit struct{ Value int64 }

// VarRef reads a scalar local (or parameter).
type VarRef struct{ Name string }

// TidRef is the builtin `tid`.
type TidRef struct{}

// NThreadsRef is the builtin `nthreads`.
type NThreadsRef struct{}

// IndexExpr reads shared array element `A[idx]` (an instrumented load).
type IndexExpr struct {
	Array string
	Index Expr
}

// BinExpr is a binary operation.
type BinExpr struct {
	Op   string // + - * / % == != < <= > >= && ||
	L, R Expr
}

// UnaryExpr is negation or logical not.
type UnaryExpr struct {
	Op string // - !
	X  Expr
}

func (*IntLit) expr()      {}
func (*VarRef) expr()      {}
func (*TidRef) expr()      {}
func (*NThreadsRef) expr() {}
func (*IndexExpr) expr()   {}
func (*BinExpr) expr()     {}
func (*UnaryExpr) expr()   {}
