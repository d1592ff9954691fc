package lua

import (
	"fmt"
	"strconv"
	"strings"
)

// tokenKind enumerates lexical token kinds.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokName
	tokNumber
	tokString
	// Keywords.
	tokAnd
	tokBreak
	tokDo
	tokElse
	tokElseif
	tokEnd
	tokFalse
	tokFor
	tokFunction
	tokIf
	tokIn
	tokLocal
	tokNil
	tokNot
	tokOr
	tokRepeat
	tokReturn
	tokThen
	tokTrue
	tokUntil
	tokWhile
	// Symbols.
	tokPlus     // +
	tokMinus    // -
	tokStar     // *
	tokSlash    // /
	tokPercent  // %
	tokCaret    // ^
	tokHash     // #
	tokEq       // ==
	tokNe       // ~=
	tokLe       // <=
	tokGe       // >=
	tokLt       // <
	tokGt       // >
	tokAssign   // =
	tokLParen   // (
	tokRParen   // )
	tokLBrace   // {
	tokRBrace   // }
	tokLBracket // [
	tokRBracket // ]
	tokSemi     // ;
	tokColon    // :
	tokComma    // ,
	tokDot      // .
	tokConcat   // ..
)

var keywords = map[string]tokenKind{
	"and": tokAnd, "break": tokBreak, "do": tokDo, "else": tokElse,
	"elseif": tokElseif, "end": tokEnd, "false": tokFalse, "for": tokFor,
	"function": tokFunction, "if": tokIf, "in": tokIn, "local": tokLocal,
	"nil": tokNil, "not": tokNot, "or": tokOr, "repeat": tokRepeat,
	"return": tokReturn, "then": tokThen, "true": tokTrue,
	"until": tokUntil, "while": tokWhile,
}

var kindNames = map[tokenKind]string{
	tokEOF: "<eof>", tokName: "name", tokNumber: "number", tokString: "string",
	tokPlus: "'+'", tokMinus: "'-'", tokStar: "'*'", tokSlash: "'/'",
	tokPercent: "'%'", tokCaret: "'^'", tokHash: "'#'", tokEq: "'=='",
	tokNe: "'~='", tokLe: "'<='", tokGe: "'>='", tokLt: "'<'", tokGt: "'>'",
	tokAssign: "'='", tokLParen: "'('", tokRParen: "')'", tokLBrace: "'{'",
	tokRBrace: "'}'", tokLBracket: "'['", tokRBracket: "']'", tokSemi: "';'",
	tokColon: "':'", tokComma: "','", tokDot: "'.'", tokConcat: "'..'",
}

func (k tokenKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	for name, kw := range keywords {
		if kw == k {
			return "'" + name + "'"
		}
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// token is one lexical token.
type token struct {
	kind tokenKind
	text string  // names, strings (decoded)
	num  float64 // numbers
	line int
}

// SyntaxError reports a compile-time error with position.
type SyntaxError struct {
	ChunkName string
	Line      int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.ChunkName, e.Line, e.Msg)
}

type lexer struct {
	chunk string
	src   string
	pos   int
	line  int
}

func newLexer(chunkName, src string) *lexer {
	return &lexer{chunk: chunkName, src: src, line: 1}
}

func (l *lexer) errf(format string, args ...any) {
	panic(&SyntaxError{ChunkName: l.chunk, Line: l.line, Msg: fmt.Sprintf(format, args...)})
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekByte2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
	}
	return c
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
func isNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isNameChar(c byte) bool { return isNameStart(c) || isDigit(c) }

// skipSpaceAndComments consumes whitespace, line comments, and --[[ ]]
// block comments.
func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '-' && l.peekByte2() == '-':
			l.advance()
			l.advance()
			if l.peekByte() == '[' && l.peekByte2() == '[' {
				l.advance()
				l.advance()
				l.skipLongBracket()
			} else {
				for l.pos < len(l.src) && l.peekByte() != '\n' {
					l.advance()
				}
			}
		default:
			return
		}
	}
}

func (l *lexer) skipLongBracket() {
	for l.pos < len(l.src) {
		if l.peekByte() == ']' && l.peekByte2() == ']' {
			l.advance()
			l.advance()
			return
		}
		l.advance()
	}
	l.errf("unterminated long comment")
}

// next produces the next token.
func (l *lexer) next() token {
	l.skipSpaceAndComments()
	line := l.line
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: line}
	}
	c := l.peekByte()
	switch {
	case isNameStart(c):
		start := l.pos
		for l.pos < len(l.src) && isNameChar(l.peekByte()) {
			l.pos++
		}
		word := l.src[start:l.pos]
		if kw, ok := keywords[word]; ok {
			return token{kind: kw, text: word, line: line}
		}
		return token{kind: tokName, text: word, line: line}
	case isDigit(c), c == '.' && isDigit(l.peekByte2()):
		return l.lexNumber(line)
	case c == '"' || c == '\'':
		return l.lexString(line)
	}
	l.advance()
	switch c {
	case '+':
		return token{kind: tokPlus, line: line}
	case '-':
		return token{kind: tokMinus, line: line}
	case '*':
		return token{kind: tokStar, line: line}
	case '/':
		return token{kind: tokSlash, line: line}
	case '%':
		return token{kind: tokPercent, line: line}
	case '^':
		return token{kind: tokCaret, line: line}
	case '#':
		return token{kind: tokHash, line: line}
	case '(':
		return token{kind: tokLParen, line: line}
	case ')':
		return token{kind: tokRParen, line: line}
	case '{':
		return token{kind: tokLBrace, line: line}
	case '}':
		return token{kind: tokRBrace, line: line}
	case '[':
		return token{kind: tokLBracket, line: line}
	case ']':
		return token{kind: tokRBracket, line: line}
	case ';':
		return token{kind: tokSemi, line: line}
	case ':':
		return token{kind: tokColon, line: line}
	case ',':
		return token{kind: tokComma, line: line}
	case '=':
		if l.peekByte() == '=' {
			l.advance()
			return token{kind: tokEq, line: line}
		}
		return token{kind: tokAssign, line: line}
	case '~':
		if l.peekByte() == '=' {
			l.advance()
			return token{kind: tokNe, line: line}
		}
		l.errf("unexpected '~'")
	case '<':
		if l.peekByte() == '=' {
			l.advance()
			return token{kind: tokLe, line: line}
		}
		return token{kind: tokLt, line: line}
	case '>':
		if l.peekByte() == '=' {
			l.advance()
			return token{kind: tokGe, line: line}
		}
		return token{kind: tokGt, line: line}
	case '.':
		if l.peekByte() == '.' {
			l.advance()
			if l.peekByte() == '.' {
				l.errf("varargs ('...') are not supported")
			}
			return token{kind: tokConcat, line: line}
		}
		return token{kind: tokDot, line: line}
	}
	l.errf("unexpected character %q", string(c))
	panic("unreachable")
}

func (l *lexer) lexNumber(line int) token {
	start := l.pos
	if l.peekByte() == '0' && (l.peekByte2() == 'x' || l.peekByte2() == 'X') {
		l.pos += 2
		for l.pos < len(l.src) && isHexDigit(l.peekByte()) {
			l.pos++
		}
		text := l.src[start:l.pos]
		v, err := strconv.ParseUint(text[2:], 16, 64)
		if err != nil {
			l.errf("malformed number %q", text)
		}
		return token{kind: tokNumber, num: float64(v), line: line}
	}
	for l.pos < len(l.src) && (isDigit(l.peekByte()) || l.peekByte() == '.') {
		l.pos++
	}
	if l.pos < len(l.src) && (l.peekByte() == 'e' || l.peekByte() == 'E') {
		l.pos++
		if l.pos < len(l.src) && (l.peekByte() == '+' || l.peekByte() == '-') {
			l.pos++
		}
		for l.pos < len(l.src) && isDigit(l.peekByte()) {
			l.pos++
		}
	}
	text := l.src[start:l.pos]
	f, err := strconv.ParseFloat(text, 64)
	if err != nil || strings.Count(text, ".") > 1 {
		l.errf("malformed number %q", text)
	}
	return token{kind: tokNumber, num: f, line: line}
}

func (l *lexer) lexString(line int) token {
	quote := l.advance()
	var b strings.Builder
	for {
		if l.pos >= len(l.src) {
			l.errf("unterminated string")
		}
		c := l.advance()
		if c == quote {
			break
		}
		if c == '\n' {
			l.errf("unterminated string")
		}
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		if l.pos >= len(l.src) {
			l.errf("unterminated string escape")
		}
		esc := l.advance()
		switch esc {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case 'a':
			b.WriteByte(7)
		case 'b':
			b.WriteByte(8)
		case 'f':
			b.WriteByte(12)
		case 'v':
			b.WriteByte(11)
		case '\\', '"', '\'':
			b.WriteByte(esc)
		case '\n':
			b.WriteByte('\n')
		default:
			if isDigit(esc) {
				n := int(esc - '0')
				for i := 0; i < 2 && l.pos < len(l.src) && isDigit(l.peekByte()); i++ {
					n = n*10 + int(l.advance()-'0')
				}
				if n > 255 {
					l.errf("decimal escape too large")
				}
				b.WriteByte(byte(n))
			} else {
				l.errf("invalid escape sequence '\\%s'", string(esc))
			}
		}
	}
	return token{kind: tokString, text: b.String(), line: line}
}
