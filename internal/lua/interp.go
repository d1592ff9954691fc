package lua

import (
	"fmt"
	"math"
)

// RuntimeError reports a failure while executing a chunk.
type RuntimeError struct {
	ChunkName string
	Line      int
	Msg       string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.ChunkName, e.Line, e.Msg)
}

// ErrBudget is the message used when a script exceeds its step budget.
const ErrBudget = "instruction budget exceeded"

// VM executes compiled chunks against a global environment. A VM is not
// safe for concurrent use; each MDS rank runs its own.
type VM struct {
	// Globals is the global variable table shared by all chunks run on
	// this VM.
	Globals *Table
	// MaxSteps bounds the work a single Run may do (0 = unlimited).
	// Mantle uses this to keep a bad policy (`while 1 do end`) from
	// wedging the MDS.
	MaxSteps int64
	// MaxDepth bounds call-stack depth.
	MaxDepth int

	steps    int64
	depth    int
	chunk    string
	rngState uint64
	// math is the math table NewVM installed, and mathWrites its write
	// count then: a kernel calls math.floor only while both still hold.
	math       *Table
	mathWrites uint64
	// intact are the builtins a kernel found unshadowed when the globals
	// had been written intactAt times.
	intact   builtinSet
	intactAt uint64

	// stack holds call arguments and return values. A call pushes its
	// arguments and hands the callee that window; the caller truncates the
	// stack back once the call returns. A call's results may still sit in
	// the truncated region (a Lua return pushes them above the arguments,
	// assert returns the window of its arguments), so every caller
	// consumes them before it pushes again.
	stack []Value
	// one is the result of max and min: the winning argument itself, handed
	// back without a fresh slice. It is consumed like any call result.
	one [1]Value
	// root is the top-level scope reused by every run of a chunk that
	// creates no closures (nothing can capture its boxes); rootBusy keeps a
	// run nested inside another from resetting it.
	root     scope
	rootBusy bool
}

// NewVM returns a VM with the standard library installed and a defensive
// default step budget.
func NewVM() *VM {
	vm := &VM{Globals: NewTable(), MaxSteps: 10_000_000, MaxDepth: 200}
	vm.installStdlib()
	return vm
}

// scope is one lexical environment level. Variables are boxed so closures
// share them. Blocks declare a handful of locals at most, so a linear scan
// over parallel slices beats a per-scope map by a wide margin — and the
// slices keep their capacity when a loop scope is reset between iterations.
type scope struct {
	names  []string
	boxes  []*Value
	parent *scope
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent}
}

func (s *scope) find(name string) (*Value, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		// Scan innermost-last so a redeclared local shadows the earlier one.
		for i := len(cur.names) - 1; i >= 0; i-- {
			if cur.names[i] == name {
				return cur.boxes[i], true
			}
		}
	}
	return nil, false
}

func (s *scope) define(name string, v Value) {
	n := len(s.names)
	if n < cap(s.names) && n < cap(s.boxes) {
		// Reuse the slot (and its box) left behind by reset: nothing can
		// hold a reference to it — reset only runs in closure-free loops.
		s.names = s.names[:n+1]
		s.boxes = s.boxes[:n+1]
		s.names[n] = name
		if s.boxes[n] == nil {
			s.boxes[n] = new(Value)
		}
		*s.boxes[n] = v
		return
	}
	box := new(Value)
	*box = v
	s.names = append(s.names, name)
	s.boxes = append(s.boxes, box)
}

// reset truncates the scope for the next loop iteration, keeping slot
// capacity (and the boxes themselves) for reuse. Only valid when no closure
// can have captured the scope's boxes.
func (s *scope) reset() {
	s.names = s.names[:0]
	s.boxes = s.boxes[:0]
}

// control is the statement execution result.
type control int

const (
	ctrlNone control = iota
	ctrlBreak
	ctrlReturn
)

func (vm *VM) errf(line int, format string, args ...any) {
	panic(&RuntimeError{ChunkName: vm.chunk, Line: line, Msg: fmt.Sprintf(format, args...)})
}

func (vm *VM) tick(line int) {
	vm.steps++
	if vm.MaxSteps > 0 && vm.steps > vm.MaxSteps {
		vm.errf(line, ErrBudget)
	}
}

// Run executes a compiled chunk and returns its return values in a slice
// the caller owns. The step counter resets per Run.
func (vm *VM) Run(chunk *Chunk) ([]Value, error) {
	base := len(vm.stack)
	rets, err := vm.exec(chunk)
	var out []Value
	if len(rets) > 0 {
		out = append(make([]Value, 0, len(rets)), rets...)
	}
	vm.unwind(base)
	return out, err
}

// RunFirst is Run for a caller that reads only the first return value: it
// reports that value and whether the chunk returned any value at all, and
// allocates no result slice.
func (vm *VM) RunFirst(chunk *Chunk) (first Value, ok bool, err error) {
	base := len(vm.stack)
	rets, err := vm.exec(chunk)
	if len(rets) > 0 {
		first, ok = rets[0], true
	}
	vm.unwind(base)
	return first, ok, err
}

// exec runs chunk. Its return values stay on the value stack until the
// caller unwinds it.
func (vm *VM) exec(chunk *Chunk) (rets []Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*RuntimeError); ok {
				rets, err = nil, re
				return
			}
			panic(r)
		}
	}()
	vm.steps = 0
	vm.depth = 0
	prevChunk := vm.chunk
	vm.chunk = chunk.Name
	defer func() { vm.chunk = prevChunk }()
	var env *scope
	if !chunk.body.makesClosures && !vm.rootBusy {
		vm.rootBusy = true
		defer func() { vm.rootBusy = false }()
		vm.root.reset()
		env = &vm.root
	} else {
		env = newScope(nil)
	}
	ctrl, out := vm.execBlock(chunk.body, env)
	if ctrl == ctrlBreak {
		return nil, &RuntimeError{ChunkName: chunk.Name, Line: 0, Msg: "break outside loop"}
	}
	return out, nil
}

// unwind truncates the value stack to base, dropping the references the
// run left above it.
func (vm *VM) unwind(base int) {
	clear(vm.stack[base:cap(vm.stack)])
	vm.stack = vm.stack[:base]
}

// Eval compiles and runs src in one step.
func (vm *VM) Eval(name, src string) ([]Value, error) {
	chunk, err := Compile(name, src)
	if err != nil {
		return nil, err
	}
	return vm.Run(chunk)
}

// Steps reports how many steps the last Run consumed.
func (vm *VM) Steps() int64 { return vm.steps }

// blockScope returns the scope a block executes in: env itself when the
// block declares no locals (so nothing new can be defined), else a child.
func (vm *VM) blockScope(b *block, env *scope) *scope {
	if !b.hasLocals {
		return env
	}
	return newScope(env)
}

func (vm *VM) execBlock(b *block, env *scope) (control, []Value) {
	for _, s := range b.stmts {
		ctrl, vals := vm.execStmt(s, env)
		if ctrl != ctrlNone {
			return ctrl, vals
		}
	}
	return ctrlNone, nil
}

func (vm *VM) execStmt(s stmt, env *scope) (control, []Value) {
	vm.tick(s.stmtLine())
	switch st := s.(type) {
	case *assignStmt:
		if len(st.lhs) == 1 && len(st.rhs) == 1 {
			// Single assignment (the hot shape): no value-list slice.
			vm.assign(st.lhs[0], vm.evalExpr(st.rhs[0], env), env)
			break
		}
		base := vm.pushList(st.rhs, len(st.lhs), env)
		for i, l := range st.lhs {
			// Index afresh: assigning may evaluate, and grow the stack.
			vm.assign(l, vm.stack[base+i], env)
		}
		vm.stack = vm.stack[:base]
	case *localStmt:
		if len(st.names) == 1 && len(st.rhs) == 1 {
			env.define(st.names[0], vm.evalExpr(st.rhs[0], env))
			break
		}
		base := vm.pushList(st.rhs, len(st.names), env)
		for i, n := range st.names {
			env.define(n, vm.stack[base+i])
		}
		vm.stack = vm.stack[:base]
	case *callStmt:
		vm.evalCall(st.call, env)
	case *ifStmt:
		for i, cond := range st.conds {
			if Truthy(vm.evalExpr(cond, env)) {
				return vm.execBlock(st.blocks[i], vm.blockScope(st.blocks[i], env))
			}
		}
		if st.elseBlock != nil {
			return vm.execBlock(st.elseBlock, vm.blockScope(st.elseBlock, env))
		}
	case *whileStmt:
		// Loop bodies without locals run straight in env; bodies with
		// locals but no closures reuse one reset scope across iterations.
		var reuse *scope
		if st.body.hasLocals && !st.body.makesClosures {
			reuse = newScope(env)
		}
		for Truthy(vm.evalExpr(st.cond, env)) {
			vm.tick(st.line)
			inner := env
			if reuse != nil {
				reuse.reset()
				inner = reuse
			} else if st.body.hasLocals {
				inner = newScope(env)
			}
			ctrl, vals := vm.execBlock(st.body, inner)
			if ctrl == ctrlBreak {
				break
			}
			if ctrl == ctrlReturn {
				return ctrl, vals
			}
		}
	case *repeatStmt:
		var reuse *scope
		if st.body.hasLocals && !st.body.makesClosures {
			reuse = newScope(env)
		}
		for {
			vm.tick(st.line)
			inner := env
			if reuse != nil {
				reuse.reset()
				inner = reuse
			} else if st.body.hasLocals {
				inner = newScope(env)
			}
			ctrl, vals := vm.execBlock(st.body, inner)
			if ctrl == ctrlBreak {
				break
			}
			if ctrl == ctrlReturn {
				return ctrl, vals
			}
			// Lua scoping: the until condition sees the body's locals.
			if Truthy(vm.evalExpr(st.cond, inner)) {
				break
			}
		}
	case *numForStmt:
		start := vm.toNumber(vm.evalExpr(st.start, env), st.line, "'for' initial value")
		limit := vm.toNumber(vm.evalExpr(st.limit, env), st.line, "'for' limit")
		step := 1.0
		if st.stepE != nil {
			step = vm.toNumber(vm.evalExpr(st.stepE, env), st.line, "'for' step")
		}
		if step == 0 {
			vm.errf(st.line, "'for' step is zero")
		}
		// The loop variable lives in a per-iteration scope. When the body
		// provably creates no closures, nothing can capture it, so one
		// scope (and its boxes) is reset and reused across iterations.
		var reuse *scope
		if !st.body.makesClosures {
			reuse = newScope(env)
		}
		for i := start; (step > 0 && i <= limit) || (step < 0 && i >= limit); i += step {
			vm.tick(st.line)
			inner := reuse
			if inner == nil {
				inner = newScope(env)
			} else {
				inner.reset()
			}
			inner.define(st.name, Box(i))
			ctrl, vals := vm.execBlock(st.body, inner)
			if ctrl == ctrlBreak {
				break
			}
			if ctrl == ctrlReturn {
				return ctrl, vals
			}
		}
	case *genForStmt:
		base := vm.pushList(st.exprs, 3, env)
		f, state, ctl := vm.stack[base], vm.stack[base+1], vm.stack[base+2]
		vm.stack = vm.stack[:base]
		var reuse *scope
		if !st.body.makesClosures {
			reuse = newScope(env)
		}
		for {
			vm.tick(st.line)
			vm.stack = append(vm.stack, state, ctl)
			rets := vm.call(f, vm.stack[base:base+2:base+2], st.line)
			vm.stack = vm.stack[:base]
			if len(rets) == 0 || rets[0] == nil {
				break
			}
			ctl = rets[0]
			inner := reuse
			if inner == nil {
				inner = newScope(env)
			} else {
				inner.reset()
			}
			for i, n := range st.names {
				if i < len(rets) {
					inner.define(n, rets[i])
				} else {
					inner.define(n, nil)
				}
			}
			ctrl, out := vm.execBlock(st.body, inner)
			if ctrl == ctrlBreak {
				break
			}
			if ctrl == ctrlReturn {
				return ctrl, out
			}
		}
	case *doStmt:
		return vm.execBlock(st.body, vm.blockScope(st.body, env))
	case *returnStmt:
		// The values stay on the stack: the caller that truncates past
		// them consumes them first.
		base := vm.pushList(st.exprs, -1, env)
		top := len(vm.stack)
		return ctrlReturn, vm.stack[base:top:top]
	case *breakStmt:
		return ctrlBreak, nil
	case *funcStmt:
		fn := &Function{proto: st.proto, env: env}
		if st.isLocal {
			env.define(st.name, fn)
		} else {
			vm.assign(st.target, fn, env)
		}
	default:
		vm.errf(s.stmtLine(), "internal: unknown statement %T", s)
	}
	return ctrlNone, nil
}

func (vm *VM) assign(l expr, v Value, env *scope) {
	switch t := l.(type) {
	case *nameExpr:
		if box, ok := env.find(t.name); ok {
			*box = v
			return
		}
		vm.Globals.Set(t.key, v)
	case *indexExpr:
		obj := vm.evalExpr(t.obj, env)
		tab, ok := obj.(*Table)
		if !ok {
			vm.opErr(t.line, "index", t.obj, env, obj)
		}
		key := vm.evalExpr(t.key, env)
		if key == nil {
			vm.errf(t.line, "table index is nil")
		}
		if n, ok := key.(float64); ok && math.IsNaN(n) {
			vm.errf(t.line, "table index is NaN")
		}
		tab.Set(key, v)
	default:
		vm.errf(l.exprLine(), "cannot assign to this expression")
	}
}

// pushList evaluates an expression list onto the value stack, expanding a
// trailing call's multiple returns, and returns where the values start.
// want < 0 keeps every value; otherwise the list is padded/truncated to
// exactly want values.
func (vm *VM) pushList(exprs []expr, want int, env *scope) int {
	base := len(vm.stack)
	for i, e := range exprs {
		if i == len(exprs)-1 {
			if c, ok := e.(*callExpr); ok {
				rets := vm.evalCall(c, env)
				vm.stack = append(vm.stack, rets...)
				break
			}
		}
		// Evaluate before appending: the evaluation may grow the stack.
		v := vm.evalExpr(e, env)
		vm.stack = append(vm.stack, v)
	}
	if want >= 0 {
		for len(vm.stack)-base < want {
			vm.stack = append(vm.stack, nil)
		}
		vm.stack = vm.stack[:base+want]
	}
	return base
}

func (vm *VM) evalExpr(e expr, env *scope) Value {
	vm.tick(e.exprLine())
	switch ex := e.(type) {
	case *nilExpr:
		return nil
	case *trueExpr:
		return true
	case *falseExpr:
		return false
	case *numberExpr:
		if ex.boxed != nil {
			return ex.boxed
		}
		return ex.val
	case *stringExpr:
		return ex.boxed
	case *nameExpr:
		if box, ok := env.find(ex.name); ok {
			return *box
		}
		return vm.Globals.Get(ex.name)
	case *indexExpr:
		obj := vm.evalExpr(ex.obj, env)
		tab, ok := obj.(*Table)
		if !ok {
			vm.opErr(ex.line, "index", ex.obj, env, obj)
		}
		return tab.Get(vm.evalExpr(ex.key, env))
	case *callExpr:
		rets := vm.evalCall(ex, env)
		if len(rets) == 0 {
			return nil
		}
		return rets[0]
	case *binExpr:
		return vm.evalBin(ex, env)
	case *unExpr:
		return vm.evalUn(ex, env)
	case *funcExpr:
		return &Function{proto: ex.proto, env: env}
	case *tableExpr:
		t := NewTable()
		for i := range ex.avals {
			if ex.akeys[i] == nil {
				if i == len(ex.avals)-1 {
					if c, ok := ex.avals[i].(*callExpr); ok {
						for _, v := range vm.evalCall(c, env) {
							t.Append(v)
						}
						continue
					}
				}
				t.Append(vm.evalExpr(ex.avals[i], env))
			} else {
				k := vm.evalExpr(ex.akeys[i], env)
				if k == nil {
					vm.errf(ex.line, "table index is nil")
				}
				t.Set(k, vm.evalExpr(ex.avals[i], env))
			}
		}
		return t
	default:
		vm.errf(e.exprLine(), "internal: unknown expression %T", e)
		return nil
	}
}

// opErr raises the error for indexing or calling (op) a value v that does
// not allow it, naming the expression e that produced v in Lua 5.1's words:
// "attempt to call global 'f' (a nil value)". An expression without a name,
// such as t[i] or f(), gives "attempt to index a nil value".
func (vm *VM) opErr(line int, op string, e expr, env *scope, v Value) {
	switch ex := e.(type) {
	case *nameExpr:
		kind := "global"
		if _, ok := env.find(ex.name); ok {
			kind = "local"
		}
		vm.errf(line, "attempt to %s %s '%s' (a %v value)", op, kind, ex.name, TypeOf(v))
	case *indexExpr:
		if s, ok := ex.key.(*stringExpr); ok {
			vm.errf(line, "attempt to %s field '%s' (a %v value)", op, s.val, TypeOf(v))
		}
	}
	vm.errf(line, "attempt to %s a %v value", op, TypeOf(v))
}

// evalCall pushes the arguments, calls fn on that window of the stack and
// truncates the stack back. The results are only valid until the caller's
// next push.
func (vm *VM) evalCall(c *callExpr, env *scope) []Value {
	fn := vm.evalExpr(c.fn, env)
	base := len(vm.stack)
	if c.method != "" {
		tab, ok := fn.(*Table)
		if !ok {
			vm.opErr(c.line, "index", c.fn, env, fn)
		}
		vm.stack = append(vm.stack, fn)
		fn = tab.Get(c.method)
	}
	vm.pushList(c.args, -1, env)
	if !callable(fn) {
		if c.method != "" {
			vm.errf(c.line, "attempt to call method '%s' (a %v value)", c.method, TypeOf(fn))
		}
		vm.opErr(c.line, "call", c.fn, env, fn)
	}
	// The window's capacity ends at its length, so a builtin that appends
	// to its arguments copies them instead of writing over the stack.
	top := len(vm.stack)
	rets := vm.call(fn, vm.stack[base:top:top], c.line)
	vm.stack = vm.stack[:base]
	return rets
}

func callable(fn Value) bool {
	switch fn.(type) {
	case GoFunc, *Function:
		return true
	}
	return false
}

func (vm *VM) call(fn Value, args []Value, line int) []Value {
	vm.depth++
	defer func() { vm.depth-- }()
	if vm.MaxDepth > 0 && vm.depth > vm.MaxDepth {
		vm.errf(line, "stack overflow (call depth > %d)", vm.MaxDepth)
	}
	switch f := fn.(type) {
	case GoFunc:
		rets, err := f(args)
		if err != nil {
			vm.errf(line, "%s", err.Error())
		}
		return rets
	case *Function:
		inner := newScope(f.env)
		for i, p := range f.proto.params {
			if i < len(args) {
				inner.define(p, args[i])
			} else {
				inner.define(p, nil)
			}
		}
		ctrl, vals := vm.execBlock(f.proto.body, inner)
		if ctrl == ctrlReturn {
			return vals
		}
		return nil
	default:
		vm.errf(line, "attempt to call a %v value", TypeOf(fn))
		return nil
	}
}

func (vm *VM) toNumber(v Value, line int, what string) float64 {
	n, ok := Number(v)
	if !ok {
		vm.errf(line, "%s must be a number (got %v)", what, TypeOf(v))
	}
	return n
}

func (vm *VM) evalBin(ex *binExpr, env *scope) Value {
	// Short-circuit logic first.
	switch ex.op {
	case tokAnd:
		l := vm.evalExpr(ex.l, env)
		if !Truthy(l) {
			return l
		}
		return vm.evalExpr(ex.r, env)
	case tokOr:
		l := vm.evalExpr(ex.l, env)
		if Truthy(l) {
			return l
		}
		return vm.evalExpr(ex.r, env)
	}
	l := vm.evalExpr(ex.l, env)
	r := vm.evalExpr(ex.r, env)
	switch ex.op {
	case tokPlus, tokMinus, tokStar, tokSlash, tokPercent, tokCaret:
		ln, lok := Number(l)
		rn, rok := Number(r)
		if !lok {
			vm.errf(ex.line, "attempt to perform arithmetic on a %v value", TypeOf(l))
		}
		if !rok {
			vm.errf(ex.line, "attempt to perform arithmetic on a %v value", TypeOf(r))
		}
		return Box(arith(ex.op, ln, rn))
	case tokConcat:
		ls, lok := concatString(l)
		rs, rok := concatString(r)
		if !lok {
			vm.errf(ex.line, "attempt to concatenate a %v value", TypeOf(l))
		}
		if !rok {
			vm.errf(ex.line, "attempt to concatenate a %v value", TypeOf(r))
		}
		if len(ls)+len(rs) > maxStringLen {
			vm.errf(ex.line, errStringTooLong)
		}
		return ls + rs
	case tokEq:
		return rawEqual(l, r)
	case tokNe:
		return !rawEqual(l, r)
	case tokLt, tokLe, tokGt, tokGe:
		return vm.compare(ex.op, l, r, ex.line)
	}
	vm.errf(ex.line, "internal: unknown binary operator %v", ex.op)
	return nil
}

func concatString(v Value) (string, bool) {
	switch x := v.(type) {
	case string:
		return x, true
	case float64:
		return formatNumber(x), true
	}
	return "", false
}

func (vm *VM) compare(op tokenKind, l, r Value, line int) bool {
	if ln, ok := l.(float64); ok {
		rn, ok2 := r.(float64)
		if !ok2 {
			vm.errf(line, "attempt to compare number with %v", TypeOf(r))
		}
		switch op {
		case tokLt:
			return ln < rn
		case tokLe:
			return ln <= rn
		case tokGt:
			return ln > rn
		case tokGe:
			return ln >= rn
		}
	}
	if ls, ok := l.(string); ok {
		rs, ok2 := r.(string)
		if !ok2 {
			vm.errf(line, "attempt to compare string with %v", TypeOf(r))
		}
		switch op {
		case tokLt:
			return ls < rs
		case tokLe:
			return ls <= rs
		case tokGt:
			return ls > rs
		case tokGe:
			return ls >= rs
		}
	}
	vm.errf(line, "attempt to compare two %v values", TypeOf(l))
	return false
}

func (vm *VM) evalUn(ex *unExpr, env *scope) Value {
	v := vm.evalExpr(ex.e, env)
	switch ex.op {
	case tokMinus:
		n, ok := Number(v)
		if !ok {
			vm.errf(ex.line, "attempt to perform arithmetic on a %v value", TypeOf(v))
		}
		return Box(negate(n))
	case tokNot:
		return !Truthy(v)
	case tokHash:
		switch x := v.(type) {
		case string:
			return Box(float64(len(x)))
		case *Table:
			return Box(float64(x.Len()))
		}
		vm.errf(ex.line, "attempt to get length of a %v value", TypeOf(v))
	}
	vm.errf(ex.line, "internal: unknown unary operator %v", ex.op)
	return nil
}
