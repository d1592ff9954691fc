package lua

import "fmt"

// parser is a recursive-descent parser with one token of lookahead.
type parser struct {
	lex  *lexer
	tok  token
	next *token // single pushback slot
}

// Compile parses src into a Chunk. The chunk name appears in error messages.
func Compile(name, src string) (chunk *Chunk, err error) {
	defer func() {
		if r := recover(); r != nil {
			if se, ok := r.(*SyntaxError); ok {
				err = se
				return
			}
			panic(r)
		}
	}()
	p := &parser{lex: newLexer(name, src)}
	p.advance()
	body := p.parseBlock()
	p.expect(tokEOF)
	annotateBlock(body)
	return &Chunk{Name: name, body: body}, nil
}

// CompileExprOrChunk compiles src either as a bare expression (the common
// shape of metaload policies: `IRD + 2*IWR`) or, failing that, as a full
// chunk. Bare expressions compile as `return (expr)`.
func CompileExprOrChunk(name, src string) (*Chunk, error) {
	if c, err := Compile(name, "return "+src); err == nil {
		return c, nil
	}
	return Compile(name, src)
}

func (p *parser) advance() {
	if p.next != nil {
		p.tok = *p.next
		p.next = nil
		return
	}
	p.tok = p.lex.next()
}

func (p *parser) errf(format string, args ...any) {
	panic(&SyntaxError{ChunkName: p.lex.chunk, Line: p.tok.line, Msg: fmt.Sprintf(format, args...)})
}

func (p *parser) expect(k tokenKind) token {
	if p.tok.kind != k {
		p.errf("expected %v, found %v", k, p.tok.kind)
	}
	t := p.tok
	p.advance()
	return t
}

func (p *parser) accept(k tokenKind) bool {
	if p.tok.kind == k {
		p.advance()
		return true
	}
	return false
}

func blockEnd(k tokenKind) bool {
	switch k {
	case tokEOF, tokEnd, tokElse, tokElseif, tokUntil:
		return true
	}
	return false
}

func (p *parser) parseBlock() *block {
	b := &block{}
	for !blockEnd(p.tok.kind) {
		if p.accept(tokSemi) {
			continue
		}
		if p.tok.kind == tokReturn {
			line := p.tok.line
			p.advance()
			var exprs []expr
			if !blockEnd(p.tok.kind) && p.tok.kind != tokSemi {
				exprs = p.parseExprList()
			}
			p.accept(tokSemi)
			b.stmts = append(b.stmts, &returnStmt{line: line, exprs: exprs})
			if !blockEnd(p.tok.kind) {
				p.errf("statements after 'return'")
			}
			return b
		}
		b.stmts = append(b.stmts, p.parseStatement())
	}
	return b
}

func (p *parser) parseStatement() stmt {
	line := p.tok.line
	switch p.tok.kind {
	case tokIf:
		return p.parseIf()
	case tokWhile:
		p.advance()
		cond := p.parseExpr()
		p.expect(tokDo)
		body := p.parseBlock()
		p.expect(tokEnd)
		return &whileStmt{line: line, cond: cond, body: body}
	case tokRepeat:
		p.advance()
		body := p.parseBlock()
		p.expect(tokUntil)
		cond := p.parseExpr()
		return &repeatStmt{line: line, body: body, cond: cond}
	case tokFor:
		return p.parseFor()
	case tokDo:
		p.advance()
		body := p.parseBlock()
		p.expect(tokEnd)
		return &doStmt{line: line, body: body}
	case tokBreak:
		p.advance()
		return &breakStmt{line: line}
	case tokLocal:
		p.advance()
		if p.tok.kind == tokFunction {
			p.advance()
			name := p.expect(tokName).text
			proto := p.parseFuncBody(name, line)
			return &funcStmt{line: line, isLocal: true, name: name, proto: proto}
		}
		names := []string{p.expect(tokName).text}
		for p.accept(tokComma) {
			names = append(names, p.expect(tokName).text)
		}
		var rhs []expr
		if p.accept(tokAssign) {
			rhs = p.parseExprList()
		}
		return &localStmt{line: line, names: names, rhs: rhs}
	case tokFunction:
		p.advance()
		nameLine := p.tok.line
		var target expr = newNameExpr(nameLine, p.expect(tokName).text)
		fname := target.(*nameExpr).name
		for p.accept(tokDot) {
			key := p.expect(tokName)
			fname = fname + "." + key.text
			target = &indexExpr{line: key.line, obj: target, key: newStringExpr(key.line, key.text)}
		}
		proto := p.parseFuncBody(fname, line)
		return &funcStmt{line: line, target: target, proto: proto}
	}
	// Expression statement: either a call or the start of an assignment.
	e := p.parseSuffixedExpr()
	if p.tok.kind == tokAssign || p.tok.kind == tokComma {
		lhs := []expr{e}
		for p.accept(tokComma) {
			lhs = append(lhs, p.parseSuffixedExpr())
		}
		p.expect(tokAssign)
		rhs := p.parseExprList()
		for _, l := range lhs {
			switch l.(type) {
			case *nameExpr, *indexExpr:
			default:
				p.errf("cannot assign to this expression")
			}
		}
		return &assignStmt{line: line, lhs: lhs, rhs: rhs}
	}
	call, ok := e.(*callExpr)
	if !ok {
		p.errf("syntax error: expression is not a statement")
	}
	return &callStmt{line: line, call: call}
}

func (p *parser) parseIf() stmt {
	line := p.tok.line
	p.expect(tokIf)
	s := &ifStmt{line: line}
	s.conds = append(s.conds, p.parseExpr())
	p.expect(tokThen)
	s.blocks = append(s.blocks, p.parseBlock())
	for p.tok.kind == tokElseif {
		p.advance()
		s.conds = append(s.conds, p.parseExpr())
		p.expect(tokThen)
		s.blocks = append(s.blocks, p.parseBlock())
	}
	if p.accept(tokElse) {
		s.elseBlock = p.parseBlock()
	}
	p.expect(tokEnd)
	return s
}

func (p *parser) parseFor() stmt {
	line := p.tok.line
	p.expect(tokFor)
	first := p.expect(tokName).text
	if p.accept(tokAssign) {
		start := p.parseExpr()
		p.expect(tokComma)
		limit := p.parseExpr()
		var step expr
		if p.accept(tokComma) {
			step = p.parseExpr()
		}
		p.expect(tokDo)
		body := p.parseBlock()
		p.expect(tokEnd)
		return &numForStmt{line: line, name: first, start: start, limit: limit, stepE: step, body: body}
	}
	names := []string{first}
	for p.accept(tokComma) {
		names = append(names, p.expect(tokName).text)
	}
	p.expect(tokIn)
	exprs := p.parseExprList()
	p.expect(tokDo)
	body := p.parseBlock()
	p.expect(tokEnd)
	return &genForStmt{line: line, names: names, exprs: exprs, body: body}
}

func (p *parser) parseFuncBody(name string, line int) *funcProto {
	p.expect(tokLParen)
	var params []string
	if p.tok.kind != tokRParen {
		params = append(params, p.expect(tokName).text)
		for p.accept(tokComma) {
			params = append(params, p.expect(tokName).text)
		}
	}
	p.expect(tokRParen)
	body := p.parseBlock()
	p.expect(tokEnd)
	return &funcProto{name: name, params: params, body: body, line: line}
}

func (p *parser) parseExprList() []expr {
	out := []expr{p.parseExpr()}
	for p.accept(tokComma) {
		out = append(out, p.parseExpr())
	}
	return out
}

// Operator precedence, mirroring Lua 5.1.
var binPrec = map[tokenKind][2]int{ // {left, right}
	tokOr:  {1, 1},
	tokAnd: {2, 2},
	tokLt:  {3, 3}, tokGt: {3, 3}, tokLe: {3, 3}, tokGe: {3, 3}, tokNe: {3, 3}, tokEq: {3, 3},
	tokConcat: {9, 8}, // right associative
	tokPlus:   {10, 10}, tokMinus: {10, 10},
	tokStar: {11, 11}, tokSlash: {11, 11}, tokPercent: {11, 11},
	tokCaret: {14, 13}, // right associative
}

const unaryPrec = 12

func (p *parser) parseExpr() expr { return p.parseBinExpr(0) }

func (p *parser) parseBinExpr(limit int) expr {
	var left expr
	line := p.tok.line
	switch p.tok.kind {
	case tokNot, tokMinus, tokHash:
		op := p.tok.kind
		p.advance()
		operand := p.parseBinExpr(unaryPrec)
		left = &unExpr{line: line, op: op, e: operand}
	default:
		left = p.parseSimpleExpr()
	}
	for {
		prec, ok := binPrec[p.tok.kind]
		if !ok || prec[0] <= limit {
			return left
		}
		op := p.tok.kind
		opLine := p.tok.line
		p.advance()
		right := p.parseBinExpr(prec[1])
		left = &binExpr{line: opLine, op: op, l: left, r: right}
	}
}

func (p *parser) parseSimpleExpr() expr {
	line := p.tok.line
	switch p.tok.kind {
	case tokNil:
		p.advance()
		return &nilExpr{line: line}
	case tokTrue:
		p.advance()
		return &trueExpr{line: line}
	case tokFalse:
		p.advance()
		return &falseExpr{line: line}
	case tokNumber:
		v := p.tok.num
		p.advance()
		return &numberExpr{line: line, val: v, boxed: Box(v)}
	case tokString:
		s := p.tok.text
		p.advance()
		return newStringExpr(line, s)
	case tokFunction:
		p.advance()
		proto := p.parseFuncBody("<anonymous>", line)
		return &funcExpr{line: line, proto: proto}
	case tokLBrace:
		return p.parseTable()
	}
	return p.parseSuffixedExpr()
}

// parseSuffixedExpr parses a primary expression followed by any chain of
// indexing, field access, method calls and calls.
func (p *parser) parseSuffixedExpr() expr {
	line := p.tok.line
	var e expr
	switch p.tok.kind {
	case tokName:
		e = newNameExpr(line, p.tok.text)
		p.advance()
	case tokLParen:
		p.advance()
		e = p.parseExpr()
		p.expect(tokRParen)
	default:
		p.errf("unexpected %v", p.tok.kind)
	}
	for {
		line = p.tok.line
		switch p.tok.kind {
		case tokDot:
			p.advance()
			name := p.expect(tokName)
			e = &indexExpr{line: line, obj: e, key: newStringExpr(name.line, name.text)}
		case tokLBracket:
			p.advance()
			key := p.parseExpr()
			p.expect(tokRBracket)
			e = &indexExpr{line: line, obj: e, key: key}
		case tokColon:
			p.advance()
			name := p.expect(tokName).text
			args := p.parseCallArgs()
			e = &callExpr{line: line, fn: e, method: name, args: args}
		case tokLParen, tokString, tokLBrace:
			args := p.parseCallArgs()
			e = &callExpr{line: line, fn: e, args: args}
		default:
			return e
		}
	}
}

// parseCallArgs handles f(a, b), f"str" and f{table} call forms.
func (p *parser) parseCallArgs() []expr {
	switch p.tok.kind {
	case tokString:
		s := newStringExpr(p.tok.line, p.tok.text)
		p.advance()
		return []expr{s}
	case tokLBrace:
		return []expr{p.parseTable()}
	}
	p.expect(tokLParen)
	var args []expr
	if p.tok.kind != tokRParen {
		args = p.parseExprList()
	}
	p.expect(tokRParen)
	return args
}

func (p *parser) parseTable() expr {
	line := p.tok.line
	p.expect(tokLBrace)
	t := &tableExpr{line: line}
	for p.tok.kind != tokRBrace {
		switch {
		case p.tok.kind == tokLBracket:
			p.advance()
			key := p.parseExpr()
			p.expect(tokRBracket)
			p.expect(tokAssign)
			t.akeys = append(t.akeys, key)
			t.avals = append(t.avals, p.parseExpr())
		case p.tok.kind == tokName && p.peekIsAssign():
			key := newStringExpr(p.tok.line, p.tok.text)
			p.advance() // name
			p.advance() // =
			t.akeys = append(t.akeys, key)
			t.avals = append(t.avals, p.parseExpr())
		default:
			t.akeys = append(t.akeys, nil)
			t.avals = append(t.avals, p.parseExpr())
		}
		if !p.accept(tokComma) && !p.accept(tokSemi) {
			break
		}
	}
	p.expect(tokRBrace)
	return t
}

// peekIsAssign reports whether the token after the current one is '='
// (distinguishing {name = v} from {name}).
func (p *parser) peekIsAssign() bool {
	if p.next == nil {
		t := p.lex.next()
		p.next = &t
	}
	return p.next.kind == tokAssign
}
