package lua

import "math"

// A hook that is one arithmetic expression over values its caller supplies
// (`IWR + IRD`, `MDSs[i]["all"]`) needs none of the tree-walker: no scope,
// no boxed globals, no value stack. CompileKernel turns such a chunk into a
// Go function over a float64 slice. The kernel and the tree-walker apply the
// same helpers, arith and negate, node by node in the same shape, so a
// kernel's result has the bits RunFirst would return.

// Input names one value a Kernel reads. Name alone is a global; with Index
// and Key it is the chain Name[Index][Key], where Index is a global too.
type Input struct {
	Name, Index, Key string
}

// Kernel evaluates a compiled expression. in[j] holds the value of the j-th
// Input given to CompileKernel.
type Kernel func(in []float64) float64

// CompileKernel compiles a chunk of the form `return <expr>` into a Kernel,
// or returns nil when the chunk is anything else. The expression may hold
// numeric literals, the operators + - * / % ^, unary minus, and reads of
// inputs; a call, a comparison, and/or, a string, an unnamed read, a second
// statement or a second return value refuses it. So does a chunk the
// tree-walker would stop at a step budget of maxSteps (0 = unlimited).
//
// The caller must hold up its side: a kernel is RunFirst of the chunk only
// while every input is the number the VM would read under that name.
func CompileKernel(c *Chunk, maxSteps int64, inputs []Input) Kernel {
	if len(c.body.stmts) != 1 {
		return nil
	}
	ret, ok := c.body.stmts[0].(*returnStmt)
	if !ok || len(ret.exprs) != 1 {
		return nil
	}
	kc := kernelCompiler{inputs: inputs}
	k := kc.expr(ret.exprs[0])
	// The tree-walker ticks once for the return statement and once per
	// expression node; it fails when the count passes the budget.
	if k == nil || (maxSteps > 0 && 1+kc.steps > maxSteps) {
		return nil
	}
	return k
}

type kernelCompiler struct {
	inputs []Input
	steps  int64
}

// expr compiles one node, or returns nil when the node (or one below it) is
// outside the kernel grammar.
func (kc *kernelCompiler) expr(e expr) Kernel {
	kc.steps++
	switch ex := e.(type) {
	case *numberExpr:
		v := ex.val
		return func([]float64) float64 { return v }
	case *nameExpr:
		return kc.read(Input{Name: ex.name})
	case *indexExpr:
		// Name[Index]["Key"]: five nodes to the tree-walker.
		inner, ok := ex.obj.(*indexExpr)
		if !ok {
			return nil
		}
		name, ok1 := inner.obj.(*nameExpr)
		index, ok2 := inner.key.(*nameExpr)
		key, ok3 := ex.key.(*stringExpr)
		if !ok1 || !ok2 || !ok3 {
			return nil
		}
		kc.steps += 4
		return kc.read(Input{Name: name.name, Index: index.name, Key: key.val})
	case *unExpr:
		if ex.op != tokMinus {
			return nil
		}
		x := kc.expr(ex.e)
		if x == nil {
			return nil
		}
		return func(in []float64) float64 { return negate(x(in)) }
	case *binExpr:
		switch ex.op {
		case tokPlus, tokMinus, tokStar, tokSlash, tokPercent, tokCaret:
		default:
			return nil
		}
		l := kc.expr(ex.l)
		if l == nil {
			return nil
		}
		r := kc.expr(ex.r)
		if r == nil {
			return nil
		}
		op := ex.op
		return func(in []float64) float64 { return arith(op, l(in), r(in)) }
	}
	return nil
}

func (kc *kernelCompiler) read(want Input) Kernel {
	for j, in := range kc.inputs {
		if in == want {
			return func(in []float64) float64 { return in[j] }
		}
	}
	return nil
}

// arith applies a binary arithmetic operator. Every result passes through an
// explicit float64 conversion, which the Go spec defines as a rounding: no
// platform may fuse a multiply into the add or subtract that consumes it,
// so the tree-walker and a kernel round alike everywhere. It is not inlined,
// so both evaluate one instruction sequence and even a NaN's payload agrees.
//
//go:noinline
func arith(op tokenKind, a, b float64) float64 {
	switch op {
	case tokPlus:
		return float64(a + b)
	case tokMinus:
		return float64(a - b)
	case tokStar:
		return float64(a * b)
	case tokSlash:
		return float64(a / b)
	case tokPercent:
		// Lua %: the result has the sign of the divisor.
		return float64(a - float64(math.Floor(float64(a/b))*b))
	case tokCaret:
		return math.Pow(a, b)
	}
	panic("lua: arith on a non-arithmetic operator")
}

// negate is unary minus.
func negate(a float64) float64 { return -a }
