package lua

import (
	"math"
	"math/bits"
	"reflect"
)

// A decision hook (when, where, howmuch) is a short program: a few locals,
// a numeric for over the ranks, ifs over comparisons, a store into the
// targets table, a constant selector list. CompileStmtKernel turns such a
// chunk into Go closures over numbers and booleans, typed at compile time,
// that read their host's values directly instead of a boxed environment.
//
// A run has one of two outcomes. It finishes, with the result RunFirst
// would return and the globals and stores the tree-walker would leave,
// after exactly as many steps; or it bails, before any effect, and the host
// runs the chunk on the tree-walker instead. It bails where the tree-walker
// might do something it does not model: an index outside the rows, a global
// it reads that is not a number, a builtin the VM no longer holds, a step
// count past the budget. Every helper that computes a value (arith, negate,
// beats, math.Floor) is the one the tree-walker calls, so the bits agree.

// KernelSpec is what a statement kernel may touch of its host.
type KernelSpec struct {
	// Scalars are number globals the host supplies in Frame.In, in order.
	// A chunk may read them but not assign them.
	Scalars []string
	// Rows is an array global of records whose fields Keys hold numbers.
	// A chunk may read #Rows and Rows[e]["key"] (Frame.N, Frame.Cols).
	Rows string
	Keys []string
	// Out, when set, is a table global a chunk may only store numbers
	// into, as Out[e] = e (Frame.Stores).
	Out string
	// MaxSteps is the tree-walker's budget for the chunk (0 = unlimited).
	MaxSteps int64
}

// Store is one Out[Key] = Val a run made.
type Store struct{ Key, Val float64 }

// ResultKind says what a run returned.
type ResultKind uint8

// The kinds of result.
const (
	NoResult      ResultKind = iota // `return` with no value, or none at all
	NumberResult                    // Result.Num
	BoolResult                      // Result.Bool
	StringsResult                   // a string, or a table of strings: Result.Strs
)

// Result is the first value a run returned. Strs is the kernel's own
// constant: the host copies it before handing it on.
type Result struct {
	Kind ResultKind
	Num  float64
	Bool bool
	Strs []string
}

// Truthy is Lua truthiness of the result.
func (r *Result) Truthy() bool {
	return r.Kind != NoResult && (r.Kind != BoolResult || r.Bool)
}

// Frame is one statement kernel's working memory: the host's values in,
// what the runs left out. A host keeps one frame per kernel and reuses it.
type Frame struct {
	// In holds KernelSpec.Scalars; N is #Rows; Cols[k] holds field
	// KernelSpec.Keys[k] of every row, row 1 first. The host fills only
	// the columns whose UsesKey is set.
	In   []float64
	N    int
	Cols [][]float64

	// Ret is the last finished run's result, and RunSet the globals it
	// assigned (bit j: StmtKernel.Globals[j]).
	Ret    Result
	RunSet uint64
	// Set holds the globals assigned by every run finished since the host
	// last cleared it, and Nums/Bools their latest values, by slot: what
	// the host owes the VM before it next walks a chunk.
	Set   uint64
	Nums  []float64
	Bools []bool
	// Stores are the Out stores of the last finished run, in order.
	Stores []Store

	// The run in progress: steps ticked and the budget, locals, globals
	// and stores not yet committed, and the globals read from the VM.
	steps, max int64
	locN       []float64
	locB       []bool
	gN         []float64
	gB         []bool
	runSet     uint64
	stores     []Store
	ext        []float64
}

// StmtKernel is a chunk compiled by CompileStmtKernel.
type StmtKernel struct {
	// Globals are the globals the chunk assigns, by slot.
	Globals []string
	// UsesKey[k] says whether the chunk reads field KernelSpec.Keys[k].
	UsesKey []bool
	// reads are the globals the chunk reads but never assigns, other than
	// the spec's; a run takes them from the VM.
	reads    []Value
	kinds    []kind
	calls    builtinSet
	body     stmtFn
	nN, nB   int
	maxSteps int64
}

// Slot returns the slot of the global name, or -1 when the chunk does not
// assign it.
func (k *StmtKernel) Slot(name string) int {
	for j, g := range k.Globals {
		if g == name {
			return j
		}
	}
	return -1
}

// Value is the Lua value of global slot j in f.Nums/f.Bools.
func (k *StmtKernel) Value(f *Frame, j int) Value {
	if k.kinds[j] == kBool {
		return f.Bools[j]
	}
	return Box(f.Nums[j])
}

// Truthy is Lua truthiness of global slot j in f.Nums/f.Bools.
func (k *StmtKernel) Truthy(f *Frame, j int) bool {
	return k.kinds[j] != kBool || f.Bools[j]
}

// ReadsGlobals reports whether a run reads globals from the VM beyond the
// spec's: the host must have stored every global it owes the VM first.
func (k *StmtKernel) ReadsGlobals() bool { return len(k.reads) > 0 }

// errBail unwinds a run that bails.
var errBail = new(int)

func bail() { panic(errBail) }

// Run evaluates the kernel against vm's globals and the host's values in
// f. It reports false, having changed nothing but f's scratch space, when
// the run bails; the host then runs the chunk on the tree-walker.
func (k *StmtKernel) Run(vm *VM, f *Frame) (ok bool) {
	if !vm.builtinsIntact(k.calls) {
		return false
	}
	f.ext = f.ext[:0]
	for _, name := range k.reads {
		v, isNum := vm.Globals.Get(name).(float64)
		if !isNum {
			return false
		}
		f.ext = append(f.ext, v)
	}
	f.locN, f.locB = grow(f.locN, k.nN), growB(f.locB, k.nB)
	f.gN, f.gB = grow(f.gN, len(k.Globals)), growB(f.gB, len(k.Globals))
	f.Nums, f.Bools = grow(f.Nums, len(k.Globals)), growB(f.Bools, len(k.Globals))
	f.steps, f.max, f.runSet, f.stores = 0, k.maxSteps, 0, f.stores[:0]
	defer func() {
		if r := recover(); r != nil {
			if r != errBail {
				panic(r)
			}
			ok = false
		}
	}()
	f.Ret = Result{}
	k.body(f)
	if f.max > 0 && f.steps > f.max {
		return false
	}
	for m := f.runSet; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		f.Nums[j], f.Bools[j] = f.gN[j], f.gB[j]
	}
	f.RunSet = f.runSet
	f.Set |= f.runSet
	f.Stores, f.stores = f.stores, f.Stores
	return true
}

func grow(s []float64, n int) []float64 {
	if len(s) < n {
		return make([]float64, n)
	}
	return s
}

func growB(s []bool, n int) []bool {
	if len(s) < n {
		return make([]bool, n)
	}
	return s
}

// Steps reports how many steps the last finished run ticked: as many as
// the tree-walker would.
func (f *Frame) Steps() int64 { return f.steps }

// tick counts one loop iteration, as the tree-walker does, and bails once
// the budget is spent: a loop is the only way a run can go on for long.
func (f *Frame) tick() {
	f.steps++
	if f.max > 0 && f.steps > f.max {
		bail()
	}
}

// builtinSet names the builtins a kernel calls.
type builtinSet uint8

const (
	callMax builtinSet = 1 << iota
	callMin
	callFloor
)

var (
	stdMaxCode = reflect.ValueOf(GoFunc((*VM)(nil).stdMax)).Pointer()
	stdMinCode = reflect.ValueOf(GoFunc((*VM)(nil).stdMin)).Pointer()
)

// builtinsIntact reports whether the globals a kernel calls still hold the
// builtins it compiled them to: max and min a stdMax and stdMin (of any
// VM: they differ only in the buffer their result passes through), and
// math.floor the entry of the math table NewVM installed, unwritten since.
func (vm *VM) builtinsIntact(calls builtinSet) bool {
	if vm.Globals.Writes() == vm.intactAt && calls&^vm.intact == 0 && vm.math.Writes() == vm.mathWrites {
		// Nothing stored a global since these were found intact.
		return true
	}
	if calls&callMax != 0 && goFuncCode(vm.Globals.Get("max")) != stdMaxCode {
		return false
	}
	if calls&callMin != 0 && goFuncCode(vm.Globals.Get("min")) != stdMinCode {
		return false
	}
	if calls&callFloor != 0 {
		m, ok := vm.Globals.Get("math").(*Table)
		if !ok || m != vm.math || m.Writes() != vm.mathWrites {
			return false
		}
	}
	if vm.Globals.Writes() != vm.intactAt {
		vm.intactAt, vm.intact = vm.Globals.Writes(), 0
	}
	vm.intact |= calls
	return true
}

func goFuncCode(v Value) uintptr {
	f, ok := v.(GoFunc)
	if !ok {
		return 0
	}
	return reflect.ValueOf(f).Pointer()
}

// kind is an expression's static type.
type kind uint8

const (
	kNum kind = iota + 1
	kBool
)

type (
	numFn  func(*Frame) float64
	boolFn func(*Frame) bool
	stmtFn func(*Frame) control
)

// cexpr is a compiled expression: its type, the closure for that type,
// and the steps its evaluation always ticks. Steps of a part evaluated only
// sometimes (the right side of and/or) are ticked by the closure itself.
type cexpr struct {
	k     kind
	n     numFn
	b     boolFn
	steps int64
	// loc is 1 + the slot of the number local the expression only reads,
	// or 0: MDSs[i]["k"] with i a local reads the slot itself.
	loc int
}

type localVar struct {
	name string
	k    kind
	slot int
}

// refusal unwinds a compilation the kernel grammar does not cover.
type refusal struct{}

func refuse() { panic(refusal{}) }

// CompileStmtKernel compiles a chunk into a statement kernel over spec, or
// returns nil when the chunk is outside the kernel grammar:
//
//   - statements: local (every name given a value), assignment to a local,
//     to a global the chunk assigns before every read of it, or (alone) to
//     Out[e]; numeric for; while; if/elseif/else; do; break in a loop;
//     return of at most one value;
//   - expressions: numbers, true and false, + - * / % ^ and unary minus
//     over numbers, comparisons, and/or/not, #Rows, Rows[e]["key"], and
//     calls of the unshadowed max, min and math.floor on numbers;
//   - a return of a string, or of a table of strings only (a selector list).
//
// Every value is a number or a boolean; a nil, a string elsewhere, a call
// of anything else, or an expression whose type depends on the run refuses
// the chunk.
func CompileStmtKernel(c *Chunk, spec KernelSpec) (k *StmtKernel) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(refusal); !ok {
				panic(r)
			}
			k = nil
		}
	}()
	sc := &stmtCompiler{spec: &spec, assigned: assignedGlobals(c.body, nil, nil), usesKey: make([]bool, len(spec.Keys))}
	body, _ := sc.block(c.body)
	k = &StmtKernel{
		Globals:  sc.globals,
		UsesKey:  sc.usesKey,
		kinds:    sc.gkinds,
		calls:    sc.calls,
		body:     body,
		nN:       sc.nN,
		nB:       sc.nB,
		maxSteps: spec.MaxSteps,
	}
	for _, name := range sc.reads {
		k.reads = append(k.reads, name)
	}
	return k
}

type stmtCompiler struct {
	spec *KernelSpec
	// assigned are the globals the chunk assigns anywhere.
	assigned []string
	locals   []localVar
	nN, nB   int
	loops    int
	// globals are the assigned globals compiled so far, by slot, and
	// gkinds their types.
	globals []string
	gkinds  []kind
	// defined holds the global slots assigned on every path to here.
	defined uint64
	// reads are the globals read and never assigned.
	reads   []string
	usesKey []bool
	calls   builtinSet
}

// assignedGlobals adds to names the globals b assigns, given the locals in
// scope, by Lua's scoping: a local is visible after its statement, a loop
// variable in its loop's body. Statements the grammar refuses are skipped.
func assignedGlobals(b *block, locals, names []string) []string {
	for _, s := range b.stmts {
		switch st := s.(type) {
		case *localStmt:
			locals = append(locals, st.names...)
		case *assignStmt:
			for _, l := range st.lhs {
				if n, ok := l.(*nameExpr); ok && indexOf(locals, n.name) < 0 && indexOf(names, n.name) < 0 {
					names = append(names, n.name)
				}
			}
		case *ifStmt:
			for _, blk := range st.blocks {
				names = assignedGlobals(blk, locals, names)
			}
			if st.elseBlock != nil {
				names = assignedGlobals(st.elseBlock, locals, names)
			}
		case *whileStmt:
			names = assignedGlobals(st.body, locals, names)
		case *doStmt:
			names = assignedGlobals(st.body, locals, names)
		case *numForStmt:
			names = assignedGlobals(st.body, append(locals, st.name), names)
		}
	}
	return names
}

func indexOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

func (c *stmtCompiler) lookup(name string) *localVar {
	for i := len(c.locals) - 1; i >= 0; i-- {
		if c.locals[i].name == name {
			return &c.locals[i]
		}
	}
	return nil
}

// reserved reports whether a global name is one the chunk may only use in
// the shapes the grammar gives it.
func (c *stmtCompiler) reserved(name string) bool {
	switch name {
	case "max", "min", "math", c.spec.Rows:
		return true
	}
	return (c.spec.Out != "" && name == c.spec.Out) || indexOf(c.spec.Scalars, name) >= 0
}

func (c *stmtCompiler) declare(name string, k kind) int {
	slot := c.nN
	if k == kBool {
		slot = c.nB
		c.nB++
	} else {
		c.nN++
	}
	c.locals = append(c.locals, localVar{name: name, k: k, slot: slot})
	return slot
}

// globalSlot returns the slot of a global the chunk assigns, creating it
// with type k at its first assignment.
func (c *stmtCompiler) globalSlot(name string, k kind) int {
	j := indexOf(c.globals, name)
	if j < 0 {
		if len(c.globals) == 64 {
			refuse()
		}
		j = len(c.globals)
		c.globals = append(c.globals, name)
		c.gkinds = append(c.gkinds, k)
	}
	if c.gkinds[j] != k {
		refuse()
	}
	return j
}

// block compiles a block in a scope of its own. ends reports whether
// control never leaves it at its end (it ends in return or break).
func (c *stmtCompiler) block(b *block) (fn stmtFn, ends bool) {
	mark := len(c.locals)
	stmts := make([]stmtFn, 0, len(b.stmts))
	for _, s := range b.stmts {
		stmts = append(stmts, c.stmt(s))
	}
	c.locals = c.locals[:mark]
	if n := len(b.stmts); n > 0 {
		switch b.stmts[n-1].(type) {
		case *returnStmt, *breakStmt:
			ends = true
		}
	}
	switch len(stmts) {
	case 0:
		return func(*Frame) control { return ctrlNone }, ends
	case 1:
		return stmts[0], ends
	}
	return func(f *Frame) control {
		for _, s := range stmts {
			if ctrl := s(f); ctrl != ctrlNone {
				return ctrl
			}
		}
		return ctrlNone
	}, ends
}

func (c *stmtCompiler) stmt(s stmt) stmtFn {
	switch st := s.(type) {
	case *localStmt:
		return c.local(st)
	case *assignStmt:
		return c.assign(st)
	case *ifStmt:
		return c.ifStmt(st)
	case *whileStmt:
		cond := c.truth(st.cond)
		in := c.defined
		c.loops++
		body, _ := c.block(st.body)
		c.loops--
		c.defined = in
		test, cs := cond.b, cond.steps
		return func(f *Frame) control {
			f.steps += 1 + cs
			for test(f) {
				f.tick()
				switch body(f) {
				case ctrlBreak:
					return ctrlNone
				case ctrlReturn:
					return ctrlReturn
				}
				f.steps += cs
			}
			return ctrlNone
		}
	case *numForStmt:
		return c.numFor(st)
	case *doStmt:
		body, _ := c.block(st.body)
		return func(f *Frame) control {
			f.steps++
			return body(f)
		}
	case *returnStmt:
		return c.ret(st)
	case *breakStmt:
		if c.loops == 0 {
			refuse()
		}
		return func(f *Frame) control {
			f.steps++
			return ctrlBreak
		}
	}
	refuse()
	return nil
}

func (c *stmtCompiler) local(st *localStmt) stmtFn {
	if len(st.rhs) != len(st.names) {
		refuse()
	}
	list := len(st.names) > 1
	vals := make([]cexpr, len(st.rhs))
	for i, e := range st.rhs {
		vals[i] = c.expr(e, list && i == len(st.rhs)-1)
	}
	steps := int64(1)
	sets := make([]func(*Frame), len(vals))
	for i, v := range vals {
		steps += v.steps
		sets[i] = setSlot(v, c.declare(st.names[i], v.k))
	}
	return seq(steps, sets)
}

// setSlot stores v's value in local slot j.
func setSlot(v cexpr, j int) func(*Frame) {
	if v.k == kBool {
		b := v.b
		return func(f *Frame) { f.locB[j] = b(f) }
	}
	n := v.n
	return func(f *Frame) { f.locN[j] = n(f) }
}

// seq is a statement that ticks steps and then runs sets in order.
func seq(steps int64, sets []func(*Frame)) stmtFn {
	if len(sets) == 1 {
		set := sets[0]
		return func(f *Frame) control {
			f.steps += steps
			set(f)
			return ctrlNone
		}
	}
	return func(f *Frame) control {
		f.steps += steps
		for _, set := range sets {
			set(f)
		}
		return ctrlNone
	}
}

func (c *stmtCompiler) assign(st *assignStmt) stmtFn {
	if len(st.lhs) != len(st.rhs) {
		refuse()
	}
	if ix, ok := st.lhs[0].(*indexExpr); ok && len(st.lhs) == 1 {
		return c.store(ix, st.rhs[0])
	}
	list := len(st.lhs) > 1
	vals := make([]cexpr, len(st.rhs))
	steps := int64(1)
	for i, e := range st.rhs {
		vals[i] = c.expr(e, list && i == len(st.rhs)-1)
		steps += vals[i].steps
	}
	// A list assignment evaluates every value before it assigns any: the
	// values wait in hidden locals.
	var sets []func(*Frame)
	if list {
		for i, v := range vals {
			j := c.declareHidden(v.k)
			sets = append(sets, setSlot(v, j))
			vals[i] = readSlot(v.k, j)
		}
	}
	for i, l := range st.lhs {
		name, ok := l.(*nameExpr)
		if !ok {
			refuse()
		}
		sets = append(sets, c.assignName(name.name, vals[i]))
	}
	return seq(steps, sets)
}

// declareHidden makes a local no name reaches.
func (c *stmtCompiler) declareHidden(k kind) int {
	mark := len(c.locals)
	j := c.declare("", k)
	c.locals = c.locals[:mark]
	return j
}

func readSlot(k kind, j int) cexpr {
	if k == kBool {
		return cexpr{k: kBool, b: func(f *Frame) bool { return f.locB[j] }}
	}
	return cexpr{k: kNum, n: func(f *Frame) float64 { return f.locN[j] }, loc: 1 + j}
}

// assignName stores v in the local or global name.
func (c *stmtCompiler) assignName(name string, v cexpr) func(*Frame) {
	if l := c.lookup(name); l != nil {
		if l.k != v.k {
			refuse()
		}
		return setSlot(v, l.slot)
	}
	if c.reserved(name) {
		refuse()
	}
	j := c.globalSlot(name, v.k)
	c.defined |= 1 << j
	bit := uint64(1) << j
	if v.k == kBool {
		b := v.b
		return func(f *Frame) {
			f.gB[j] = b(f)
			f.runSet |= bit
		}
	}
	n := v.n
	return func(f *Frame) {
		f.gN[j] = n(f)
		f.runSet |= bit
	}
}

// store compiles Out[key] = val. The tree-walker evaluates the value, then
// the table, then the key, and refuses a NaN key.
func (c *stmtCompiler) store(ix *indexExpr, val expr) stmtFn {
	out, ok := ix.obj.(*nameExpr)
	if !ok || c.spec.Out == "" || out.name != c.spec.Out || c.lookup(out.name) != nil {
		refuse()
	}
	v := c.num(val)
	key := c.num(ix.key)
	steps := 1 + v.steps + 1 + key.steps
	vn, kn := v.n, key.n
	return func(f *Frame) control {
		f.steps += steps
		val := vn(f)
		k := kn(f)
		if k != k {
			bail()
		}
		f.stores = append(f.stores, Store{Key: k, Val: val})
		return ctrlNone
	}
}

func (c *stmtCompiler) ifStmt(st *ifStmt) stmtFn {
	conds := make([]boolFn, len(st.conds))
	condSteps := make([]int64, len(st.conds))
	blocks := make([]stmtFn, len(st.blocks))
	in := c.defined
	out := ^uint64(0)
	for i, e := range st.conds {
		// Conditions assign nothing: each sees what the if saw.
		c.defined = in
		ce := c.truth(e)
		conds[i], condSteps[i] = ce.b, ce.steps
		var ends bool
		blocks[i], ends = c.block(st.blocks[i])
		if !ends {
			out &= c.defined
		}
	}
	var els stmtFn
	if st.elseBlock != nil {
		c.defined = in
		var ends bool
		els, ends = c.block(st.elseBlock)
		if !ends {
			out &= c.defined
		}
	} else {
		out &= in
	}
	c.defined = out
	return func(f *Frame) control {
		f.steps++
		for i, cond := range conds {
			f.steps += condSteps[i]
			if cond(f) {
				return blocks[i](f)
			}
		}
		if els != nil {
			return els(f)
		}
		return ctrlNone
	}
}

func (c *stmtCompiler) numFor(st *numForStmt) stmtFn {
	start, limit := c.num(st.start), c.num(st.limit)
	steps := 1 + start.steps + limit.steps
	var stepFn numFn
	if st.stepE != nil {
		s := c.num(st.stepE)
		steps += s.steps
		stepFn = s.n
	}
	in := c.defined
	mark := len(c.locals)
	slot := c.declare(st.name, kNum)
	c.loops++
	body, _ := c.block(st.body)
	c.loops--
	c.locals = c.locals[:mark]
	c.defined = in
	startFn, limitFn := start.n, limit.n
	return func(f *Frame) control {
		f.steps += steps
		i, lim, step := startFn(f), limitFn(f), 1.0
		if stepFn != nil {
			step = stepFn(f)
		}
		if step == 0 {
			bail()
		}
		for ; (step > 0 && i <= lim) || (step < 0 && i >= lim); i += step {
			f.tick()
			f.locN[slot] = i
			switch body(f) {
			case ctrlBreak:
				return ctrlNone
			case ctrlReturn:
				return ctrlReturn
			}
		}
		return ctrlNone
	}
}

func (c *stmtCompiler) ret(st *returnStmt) stmtFn {
	// A return leaves every global defined for what follows, which is
	// nothing the run reaches.
	defer func() { c.defined = ^uint64(0) }()
	switch len(st.exprs) {
	case 0:
		return func(f *Frame) control {
			f.steps++
			return ctrlReturn
		}
	case 1:
	default:
		refuse()
	}
	if strs, steps, ok := stringList(st.exprs[0]); ok {
		steps++
		return func(f *Frame) control {
			f.steps += steps
			f.Ret = Result{Kind: StringsResult, Strs: strs}
			return ctrlReturn
		}
	}
	v := c.expr(st.exprs[0], true)
	steps := 1 + v.steps
	if v.k == kBool {
		b := v.b
		return func(f *Frame) control {
			f.steps += steps
			f.Ret = Result{Kind: BoolResult, Bool: b(f)}
			return ctrlReturn
		}
	}
	n := v.n
	return func(f *Frame) control {
		f.steps += steps
		f.Ret = Result{Kind: NumberResult, Num: n(f)}
		return ctrlReturn
	}
}

// stringList recognises a string, or a table constructor holding only
// positional strings, and the steps its evaluation ticks.
func stringList(e expr) ([]string, int64, bool) {
	switch ex := e.(type) {
	case *stringExpr:
		return []string{ex.val}, 1, true
	case *tableExpr:
		strs := make([]string, 0, len(ex.avals))
		for i, v := range ex.avals {
			s, ok := v.(*stringExpr)
			if !ok || ex.akeys[i] != nil {
				return nil, 0, false
			}
			strs = append(strs, s.val)
		}
		return strs, 1 + int64(len(strs)), true
	}
	return nil, 0, false
}

// num compiles an expression that must be a number.
func (c *stmtCompiler) num(e expr) cexpr {
	v := c.expr(e, false)
	if v.k != kNum {
		refuse()
	}
	return v
}

// truth compiles an expression for its truthiness.
func (c *stmtCompiler) truth(e expr) cexpr {
	v := c.expr(e, false)
	return boolExpr(v.steps, truthOf(v))
}

func numExpr(steps int64, n numFn) cexpr { return cexpr{k: kNum, n: n, steps: steps} }

func boolExpr(steps int64, b boolFn) cexpr { return cexpr{k: kBool, b: b, steps: steps} }

// expr compiles one expression. tail says it is the last of an expression
// list, where the tree-walker calls a function without ticking the call.
func (c *stmtCompiler) expr(e expr, tail bool) cexpr {
	switch ex := e.(type) {
	case *numberExpr:
		v := ex.val
		return numExpr(1, func(*Frame) float64 { return v })
	case *trueExpr:
		return boolExpr(1, func(*Frame) bool { return true })
	case *falseExpr:
		return boolExpr(1, func(*Frame) bool { return false })
	case *nameExpr:
		return c.name(ex.name)
	case *indexExpr:
		return c.field(ex)
	case *unExpr:
		return c.unary(ex)
	case *binExpr:
		return c.binary(ex)
	case *callExpr:
		return c.call(ex, tail)
	}
	refuse()
	return cexpr{}
}

func (c *stmtCompiler) name(name string) cexpr {
	if l := c.lookup(name); l != nil {
		v := readSlot(l.k, l.slot)
		v.steps = 1
		return v
	}
	if j := indexOf(c.spec.Scalars, name); j >= 0 {
		return numExpr(1, func(f *Frame) float64 { return f.In[j] })
	}
	if c.reserved(name) {
		refuse()
	}
	if indexOf(c.assigned, name) >= 0 {
		// A global the chunk assigns is read only where every path has
		// assigned it, so its slot exists and holds this run's value.
		j := indexOf(c.globals, name)
		if j < 0 || c.defined&(1<<j) == 0 {
			refuse()
		}
		if c.gkinds[j] == kBool {
			return boolExpr(1, func(f *Frame) bool { return f.gB[j] })
		}
		return numExpr(1, func(f *Frame) float64 { return f.gN[j] })
	}
	j := indexOf(c.reads, name)
	if j < 0 {
		j = len(c.reads)
		c.reads = append(c.reads, name)
	}
	return numExpr(1, func(f *Frame) float64 { return f.ext[j] })
}

// field compiles Rows[e]["key"]: five nodes to the tree-walker, and an
// index outside the rows bails.
func (c *stmtCompiler) field(ex *indexExpr) cexpr {
	inner, ok1 := ex.obj.(*indexExpr)
	key, ok2 := ex.key.(*stringExpr)
	if !ok1 || !ok2 {
		refuse()
	}
	rows, ok := inner.obj.(*nameExpr)
	if !ok || rows.name != c.spec.Rows || c.lookup(rows.name) != nil {
		refuse()
	}
	kj := indexOf(c.spec.Keys, key.val)
	if kj < 0 {
		refuse()
	}
	c.usesKey[kj] = true
	ix := c.num(inner.key)
	if ix.loc != 0 {
		// The loop shape, MDSs[i]["load"] with i a local.
		slot := ix.loc - 1
		return numExpr(5, func(f *Frame) float64 { return row(f.Cols[kj], f.locN[slot]) })
	}
	idx := ix.n
	return numExpr(4+ix.steps, func(f *Frame) float64 { return row(f.Cols[kj], idx(f)) })
}

// row reads row v of a column as Table.Get finds an array slot: v must be
// an integer from 1 to the number of rows.
func row(col []float64, v float64) float64 {
	i := int(v)
	if float64(i) != v || uint(i-1) >= uint(len(col)) {
		bail()
	}
	return col[i-1]
}

func (c *stmtCompiler) unary(ex *unExpr) cexpr {
	switch ex.op {
	case tokHash:
		if rows, ok := ex.e.(*nameExpr); ok && rows.name == c.spec.Rows && c.lookup(rows.name) == nil {
			return numExpr(2, func(f *Frame) float64 { return float64(f.N) })
		}
	case tokMinus:
		x := c.num(ex.e)
		n := x.n
		return numExpr(1+x.steps, func(f *Frame) float64 { return negate(n(f)) })
	case tokNot:
		x := c.truth(ex.e)
		b := x.b
		return boolExpr(1+x.steps, func(f *Frame) bool { return !b(f) })
	}
	refuse()
	return cexpr{}
}

func (c *stmtCompiler) binary(ex *binExpr) cexpr {
	if ex.op == tokAnd || ex.op == tokOr {
		return c.logic(ex)
	}
	l, r := c.expr(ex.l, false), c.expr(ex.r, false)
	steps := 1 + l.steps + r.steps
	switch ex.op {
	case tokPlus, tokMinus, tokStar, tokSlash, tokPercent, tokCaret:
		if l.k != kNum || r.k != kNum {
			refuse()
		}
		op, ln, rn := ex.op, l.n, r.n
		return numExpr(steps, func(f *Frame) float64 { return arith(op, ln(f), rn(f)) })
	case tokLt, tokLe, tokGt, tokGe:
		if l.k != kNum || r.k != kNum {
			refuse()
		}
		return boolExpr(steps, compareFn(ex.op, l.n, r.n))
	case tokEq, tokNe:
		ne := ex.op == tokNe
		switch {
		case l.k == kNum && r.k == kNum:
			ln, rn := l.n, r.n
			return boolExpr(steps, func(f *Frame) bool { return (ln(f) == rn(f)) != ne })
		case l.k == kBool && r.k == kBool:
			lb, rb := l.b, r.b
			return boolExpr(steps, func(f *Frame) bool { return (lb(f) == rb(f)) != ne })
		}
		// A number never equals a boolean; both sides still run.
		lt, rt := truthOf(l), truthOf(r)
		return boolExpr(steps, func(f *Frame) bool {
			lt(f)
			rt(f)
			return ne
		})
	}
	refuse()
	return cexpr{}
}

// truthOf is the truthiness of a compiled expression: a number is true,
// but is still evaluated (it may bail, and it ticks).
func truthOf(v cexpr) boolFn {
	if v.k == kBool {
		return v.b
	}
	n := v.n
	return func(f *Frame) bool {
		n(f)
		return true
	}
}

func compareFn(op tokenKind, l, r numFn) boolFn {
	switch op {
	case tokLt:
		return func(f *Frame) bool { return l(f) < r(f) }
	case tokLe:
		return func(f *Frame) bool { return l(f) <= r(f) }
	case tokGt:
		return func(f *Frame) bool { return l(f) > r(f) }
	}
	return func(f *Frame) bool { return l(f) >= r(f) }
}

// logic compiles and/or. A number is always true, so `n and x` is x and
// `n or x` is n; over booleans both short-circuit. A mix whose type would
// depend on the run (`b and n`, `b or n`) refuses.
func (c *stmtCompiler) logic(ex *binExpr) cexpr {
	l, r := c.expr(ex.l, false), c.expr(ex.r, false)
	steps := 1 + l.steps
	rs := r.steps
	and := ex.op == tokAnd
	if l.k == kNum {
		ln := l.n
		if !and {
			return numExpr(steps, ln)
		}
		if r.k == kBool {
			rb := r.b
			return boolExpr(steps, func(f *Frame) bool {
				ln(f)
				f.steps += rs
				return rb(f)
			})
		}
		rn := r.n
		return numExpr(steps, func(f *Frame) float64 {
			ln(f)
			f.steps += rs
			return rn(f)
		})
	}
	if r.k != kBool {
		refuse()
	}
	lb, rb := l.b, r.b
	if and {
		return boolExpr(steps, func(f *Frame) bool {
			if !lb(f) {
				return false
			}
			f.steps += rs
			return rb(f)
		})
	}
	return boolExpr(steps, func(f *Frame) bool {
		if lb(f) {
			return true
		}
		f.steps += rs
		return rb(f)
	})
}

// call compiles max(...), min(...) and math.floor(x). The tree-walker
// ticks the call (unless it is the last of a list), the function
// expression and each argument, the last argument again a list's last.
func (c *stmtCompiler) call(ex *callExpr, tail bool) cexpr {
	if ex.method != "" || len(ex.args) == 0 {
		refuse()
	}
	var which builtinSet
	var fnSteps int64
	switch fn := ex.fn.(type) {
	case *nameExpr:
		if c.lookup(fn.name) != nil {
			refuse()
		}
		switch fn.name {
		case "max":
			which = callMax
		case "min":
			which = callMin
		default:
			refuse()
		}
		fnSteps = 1
	case *indexExpr:
		lib, ok1 := fn.obj.(*nameExpr)
		key, ok2 := fn.key.(*stringExpr)
		if !ok1 || !ok2 || lib.name != "math" || key.val != "floor" || c.lookup("math") != nil || len(ex.args) != 1 {
			refuse()
		}
		which, fnSteps = callFloor, 3
	default:
		refuse()
	}
	c.calls |= which
	args := make([]numFn, len(ex.args))
	steps := fnSteps
	if !tail {
		steps++
	}
	for i, a := range ex.args {
		v := c.expr(a, i == len(ex.args)-1)
		if v.k != kNum {
			refuse()
		}
		args[i] = v.n
		steps += v.steps
	}
	if which == callFloor {
		x := args[0]
		return numExpr(steps, func(f *Frame) float64 { return math.Floor(x(f)) })
	}
	lowest := which == callMin
	return numExpr(steps, func(f *Frame) float64 {
		best := args[0](f)
		for _, a := range args[1:] {
			if n := a(f); beats(lowest, n, best) {
				best = n
			}
		}
		return best
	})
}
