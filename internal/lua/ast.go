package lua

// The AST for the Lua subset. Every node carries a source line for runtime
// error reporting.

type block struct {
	stmts []stmt
	// hasLocals / makesClosures are set once by annotateBlock at compile
	// time (never during execution, so shared chunks stay read-only). The
	// interpreter uses them to skip scope allocation for blocks that
	// declare nothing and to reuse loop scopes when no closure can capture
	// their variables.
	hasLocals     bool
	makesClosures bool
}

type stmt interface{ stmtLine() int }

type (
	// assignStmt is `lhs1, lhs2 = e1, e2`.
	assignStmt struct {
		line int
		lhs  []expr // nameExpr or indexExpr only (checked by the parser)
		rhs  []expr
	}
	// localStmt is `local a, b = e1, e2`.
	localStmt struct {
		line  int
		names []string
		rhs   []expr
	}
	// callStmt is an expression-statement function call.
	callStmt struct {
		line int
		call *callExpr
	}
	// ifStmt chains conditions and blocks; elseBlock may be nil.
	ifStmt struct {
		line      int
		conds     []expr
		blocks    []*block
		elseBlock *block
	}
	whileStmt struct {
		line int
		cond expr
		body *block
	}
	repeatStmt struct {
		line int
		body *block
		cond expr
	}
	// numForStmt is `for name = start, limit[, step] do body end`.
	numForStmt struct {
		line                int
		name                string
		start, limit, stepE expr // stepE may be nil (defaults to 1)
		body                *block
	}
	// genForStmt is `for n1[, n2] in explist do body end`.
	genForStmt struct {
		line  int
		names []string
		exprs []expr
		body  *block
	}
	doStmt struct {
		line int
		body *block
	}
	returnStmt struct {
		line  int
		exprs []expr
	}
	breakStmt struct {
		line int
	}
	// funcStmt is `function name(...)` or `local function name(...)`.
	funcStmt struct {
		line    int
		target  expr // nameExpr or indexExpr
		isLocal bool
		name    string // for local functions
		proto   *funcProto
	}
)

func (s *assignStmt) stmtLine() int { return s.line }
func (s *localStmt) stmtLine() int  { return s.line }
func (s *callStmt) stmtLine() int   { return s.line }
func (s *ifStmt) stmtLine() int     { return s.line }
func (s *whileStmt) stmtLine() int  { return s.line }
func (s *repeatStmt) stmtLine() int { return s.line }
func (s *numForStmt) stmtLine() int { return s.line }
func (s *genForStmt) stmtLine() int { return s.line }
func (s *doStmt) stmtLine() int     { return s.line }
func (s *returnStmt) stmtLine() int { return s.line }
func (s *breakStmt) stmtLine() int  { return s.line }
func (s *funcStmt) stmtLine() int   { return s.line }

type expr interface{ exprLine() int }

type (
	nilExpr    struct{ line int }
	trueExpr   struct{ line int }
	falseExpr  struct{ line int }
	numberExpr struct {
		line int
		val  float64
		// boxed is the literal pre-converted to a Value at parse time, so
		// evaluating the literal never re-boxes the float.
		boxed Value
	}
	stringExpr struct {
		line int
		val  string
		// boxed is val pre-converted to a Value, as numberExpr.boxed is:
		// a string converted on every evaluation costs a heap header.
		boxed Value
	}
	nameExpr struct {
		line int
		name string
		// key is name pre-converted to a Value, for storing a global.
		key Value
	}
	// indexExpr is obj[key] (obj.name is sugar for obj["name"]).
	indexExpr struct {
		line     int
		obj, key expr
	}
	// callExpr is f(args) or obj:method(args).
	callExpr struct {
		line   int
		fn     expr
		method string // non-empty for a:method(...) calls
		args   []expr
	}
	binExpr struct {
		line int
		op   tokenKind
		l, r expr
	}
	unExpr struct {
		line int
		op   tokenKind
		e    expr
	}
	funcExpr struct {
		line  int
		proto *funcProto
	}
	// tableExpr is a constructor: array items and key/value pairs in
	// source order.
	tableExpr struct {
		line  int
		akeys []expr // nil entry = positional; else the key expression
		avals []expr
	}
)

func newStringExpr(line int, s string) *stringExpr {
	return &stringExpr{line: line, val: s, boxed: s}
}

func newNameExpr(line int, name string) *nameExpr {
	return &nameExpr{line: line, name: name, key: name}
}

func (e *nilExpr) exprLine() int    { return e.line }
func (e *trueExpr) exprLine() int   { return e.line }
func (e *falseExpr) exprLine() int  { return e.line }
func (e *numberExpr) exprLine() int { return e.line }
func (e *stringExpr) exprLine() int { return e.line }
func (e *nameExpr) exprLine() int   { return e.line }
func (e *indexExpr) exprLine() int  { return e.line }
func (e *callExpr) exprLine() int   { return e.line }
func (e *binExpr) exprLine() int    { return e.line }
func (e *unExpr) exprLine() int     { return e.line }
func (e *funcExpr) exprLine() int   { return e.line }
func (e *tableExpr) exprLine() int  { return e.line }

// annotateBlock computes the interpreter's scope-elision flags for b and
// every nested block. hasLocals is per-block (direct `local` declarations
// only: nested loops and blocks manage their own scopes). makesClosures is
// transitive: true when any function literal appears anywhere inside b, in
// which case loop scopes under b must stay fresh per iteration so captures
// keep Lua semantics.
func annotateBlock(b *block) bool {
	b.hasLocals = false
	b.makesClosures = false
	for _, s := range b.stmts {
		if stmtMakesClosures(s) {
			b.makesClosures = true
		}
		switch st := s.(type) {
		case *localStmt:
			b.hasLocals = true
		case *funcStmt:
			if st.isLocal {
				b.hasLocals = true
			}
		}
	}
	return b.makesClosures
}

// stmtMakesClosures annotates nested blocks as a side effect.
func stmtMakesClosures(s stmt) bool {
	found := false
	switch st := s.(type) {
	case *assignStmt:
		found = exprsMakeClosures(st.rhs) || exprsMakeClosures(st.lhs)
	case *localStmt:
		found = exprsMakeClosures(st.rhs)
	case *callStmt:
		found = exprMakesClosures(st.call)
	case *ifStmt:
		found = exprsMakeClosures(st.conds)
		for _, b := range st.blocks {
			if annotateBlock(b) {
				found = true
			}
		}
		if st.elseBlock != nil && annotateBlock(st.elseBlock) {
			found = true
		}
	case *whileStmt:
		found = exprMakesClosures(st.cond)
		if annotateBlock(st.body) {
			found = true
		}
	case *repeatStmt:
		if annotateBlock(st.body) {
			found = true
		}
		if exprMakesClosures(st.cond) {
			found = true
		}
	case *numForStmt:
		found = exprMakesClosures(st.start) || exprMakesClosures(st.limit) ||
			(st.stepE != nil && exprMakesClosures(st.stepE))
		if annotateBlock(st.body) {
			found = true
		}
	case *genForStmt:
		found = exprsMakeClosures(st.exprs)
		if annotateBlock(st.body) {
			found = true
		}
	case *doStmt:
		found = annotateBlock(st.body)
	case *returnStmt:
		found = exprsMakeClosures(st.exprs)
	case *funcStmt:
		annotateBlock(st.proto.body)
		found = true
	}
	return found
}

func exprsMakeClosures(exprs []expr) bool {
	found := false
	for _, e := range exprs {
		if exprMakesClosures(e) {
			found = true
		}
	}
	return found
}

func exprMakesClosures(e expr) bool {
	switch ex := e.(type) {
	case *funcExpr:
		annotateBlock(ex.proto.body)
		return true
	case *indexExpr:
		a := exprMakesClosures(ex.obj)
		return exprMakesClosures(ex.key) || a
	case *callExpr:
		found := exprMakesClosures(ex.fn)
		if exprsMakeClosures(ex.args) {
			found = true
		}
		return found
	case *binExpr:
		a := exprMakesClosures(ex.l)
		return exprMakesClosures(ex.r) || a
	case *unExpr:
		return exprMakesClosures(ex.e)
	case *tableExpr:
		found := false
		for i := range ex.avals {
			if ex.akeys[i] != nil && exprMakesClosures(ex.akeys[i]) {
				found = true
			}
			if exprMakesClosures(ex.avals[i]) {
				found = true
			}
		}
		return found
	}
	return false
}

// funcProto is a compiled function body.
type funcProto struct {
	name   string
	params []string
	body   *block
	line   int
}

// Chunk is a compiled script ready to run.
type Chunk struct {
	Name string
	body *block
}
