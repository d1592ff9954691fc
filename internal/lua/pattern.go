package lua

// Lua 5.1 pattern matching (the lstrlib.c algorithm ported to Go):
// character classes (%a %d %s ... and complements), sets with ranges,
// quantifiers (* + - ?), anchors (^ $), captures including position
// captures, back-references (%1-%9), and balanced matches (%b). Used by
// string.find / match / gmatch / gsub.

import (
	"errors"
	"fmt"
	"strings"
)

const (
	maxCaptures   = 32
	capUnfinished = -1
	capPosition   = -2
	maxMatchDepth = 200
)

type patCapture struct {
	start int
	len   int // capUnfinished / capPosition / byte length
}

type matchState struct {
	vm    *VM
	src   string
	pat   string
	caps  []patCapture
	depth int
}

type patternError struct{ msg string }

func (e *patternError) Error() string { return e.msg }

func patErrf(format string, args ...any) {
	panic(&patternError{msg: fmt.Sprintf(format, args...)})
}

// classMatch implements %a, %d and friends for one byte.
func classMatch(c byte, cl byte) bool {
	var res bool
	switch lower(cl) {
	case 'a':
		res = isAlpha(c)
	case 'c':
		res = c < 32 || c == 127
	case 'd':
		res = c >= '0' && c <= '9'
	case 'l':
		res = c >= 'a' && c <= 'z'
	case 'p':
		res = isPunct(c)
	case 's':
		res = c == ' ' || (c >= '\t' && c <= '\r')
	case 'u':
		res = c >= 'A' && c <= 'Z'
	case 'w':
		res = isAlpha(c) || (c >= '0' && c <= '9')
	case 'x':
		res = isHexDigit(c)
	case 'z':
		res = c == 0
	default:
		return cl == c
	}
	if isUpper(cl) {
		return !res
	}
	return res
}

func isAlpha(c byte) bool { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isUpper(c byte) bool { return c >= 'A' && c <= 'Z' }
func lower(c byte) byte {
	if isUpper(c) {
		return c + 32
	}
	return c
}
func isPunct(c byte) bool {
	return (c >= '!' && c <= '/') || (c >= ':' && c <= '@') ||
		(c >= '[' && c <= '`') || (c >= '{' && c <= '~')
}

// bracketEnd returns the index just past the ']' of a bracket class whose
// body starts at p (just after '['). The first position may hold a literal
// ']'.
func (ms *matchState) bracketEnd(p int) int {
	pat := ms.pat
	// p points just after '['.
	if p < len(pat) && pat[p] == '^' {
		p++
	}
	if p < len(pat) && pat[p] == ']' {
		p++ // literal ']' as the first item
	}
	for p < len(pat) && pat[p] != ']' {
		if pat[p] == '%' {
			p++
		}
		p++
	}
	if p >= len(pat) {
		patErrf("malformed pattern (missing ']')")
	}
	return p + 1
}

func (ms *matchState) matchBracket(c byte, p, ec int) bool {
	// pat[p] == '[', ec points at the closing ']'.
	pat := ms.pat
	p++
	neg := false
	if p < len(pat) && pat[p] == '^' {
		neg = true
		p++
	}
	for p < ec {
		if pat[p] == '%' {
			p++
			if classMatch(c, pat[p]) {
				return !neg
			}
			p++
		} else if p+2 < ec && pat[p+1] == '-' {
			if pat[p] <= c && c <= pat[p+2] {
				return !neg
			}
			p += 3
		} else {
			if pat[p] == c {
				return !neg
			}
			p++
		}
	}
	return neg
}

// singleMatch tests src[s] against the pattern item at p (whose end is ep).
func (ms *matchState) singleMatch(s, p, ep int) bool {
	if s >= len(ms.src) {
		return false
	}
	c := ms.src[s]
	switch ms.pat[p] {
	case '.':
		return true
	case '%':
		return classMatch(c, ms.pat[p+1])
	case '[':
		return ms.matchBracket(c, p, ep-1)
	default:
		return ms.pat[p] == c
	}
}

func (ms *matchState) captureToClose() int {
	for i := len(ms.caps) - 1; i >= 0; i-- {
		if ms.caps[i].len == capUnfinished {
			return i
		}
	}
	patErrf("invalid pattern capture")
	return -1
}

func (ms *matchState) startCapture(s, p, what int) int {
	if len(ms.caps) >= maxCaptures {
		patErrf("too many captures")
	}
	ms.caps = append(ms.caps, patCapture{start: s, len: what})
	r := ms.match(s, p)
	if r < 0 {
		ms.caps = ms.caps[:len(ms.caps)-1]
	}
	return r
}

func (ms *matchState) endCapture(s, p int) int {
	l := ms.captureToClose()
	ms.caps[l].len = s - ms.caps[l].start
	r := ms.match(s, p)
	if r < 0 {
		ms.caps[l].len = capUnfinished
	}
	return r
}

func (ms *matchState) matchCapture(s int, idx byte) int {
	i := int(idx - '1')
	if i < 0 || i >= len(ms.caps) || ms.caps[i].len == capUnfinished {
		patErrf("invalid capture index %%%c", idx)
	}
	cl := ms.caps[i].len
	if len(ms.src)-s >= cl && ms.src[ms.caps[i].start:ms.caps[i].start+cl] == ms.src[s:s+cl] {
		return s + cl
	}
	return -1
}

func (ms *matchState) matchBalance(s, p int) int {
	if p+1 >= len(ms.pat) {
		patErrf("malformed pattern (missing arguments to '%%b')")
	}
	if s >= len(ms.src) || ms.src[s] != ms.pat[p] {
		return -1
	}
	b, e := ms.pat[p], ms.pat[p+1]
	cont := 1
	for i := s + 1; i < len(ms.src); i++ {
		if ms.src[i] == e {
			cont--
			if cont == 0 {
				return i + 1
			}
		} else if ms.src[i] == b {
			cont++
		}
	}
	return -1
}

func (ms *matchState) maxExpand(s, p, ep int) int {
	i := 0
	for ms.singleMatch(s+i, p, ep) {
		i++
	}
	for i >= 0 {
		r := ms.match(s+i, ep+1)
		if r >= 0 {
			return r
		}
		i--
	}
	return -1
}

func (ms *matchState) minExpand(s, p, ep int) int {
	for {
		r := ms.match(s, ep+1)
		if r >= 0 {
			return r
		}
		if ms.singleMatch(s, p, ep) {
			s++
		} else {
			return -1
		}
	}
}

// match attempts to match pat[p:] against src[s:], returning the end index
// in src or -1.
func (ms *matchState) match(s, p int) int {
	// Each match attempt is a step of the VM's budget: backtracking is
	// work like any other, and a pattern must not outlast the budget.
	ms.vm.tick(0)
	ms.depth++
	if ms.depth > maxMatchDepth*100 {
		patErrf("pattern too complex")
	}
	defer func() { ms.depth-- }()
	for {
		if p >= len(ms.pat) {
			return s
		}
		switch ms.pat[p] {
		case '(':
			if p+1 < len(ms.pat) && ms.pat[p+1] == ')' {
				return ms.startCapture(s, p+2, capPosition)
			}
			return ms.startCapture(s, p+1, capUnfinished)
		case ')':
			return ms.endCapture(s, p+1)
		case '$':
			if p+1 == len(ms.pat) {
				if s == len(ms.src) {
					return s
				}
				return -1
			}
			// A '$' elsewhere is a literal; fall through.
		case '%':
			if p+1 < len(ms.pat) {
				switch ms.pat[p+1] {
				case 'b':
					r := ms.matchBalance(s, p+2)
					if r < 0 {
						return -1
					}
					s = r
					p += 4
					continue
				case 'f':
					p += 2
					if p >= len(ms.pat) || ms.pat[p] != '[' {
						patErrf("missing '[' after '%%f' in pattern")
					}
					ep := ms.bracketEnd(p + 1)
					var prev byte
					if s > 0 {
						prev = ms.src[s-1]
					}
					var cur byte
					if s < len(ms.src) {
						cur = ms.src[s]
					}
					if !ms.matchBracket(prev, p, ep-1) && ms.matchBracket(cur, p, ep-1) {
						p = ep
						continue
					}
					return -1
				case '1', '2', '3', '4', '5', '6', '7', '8', '9':
					r := ms.matchCapture(s, ms.pat[p+1])
					if r < 0 {
						return -1
					}
					s = r
					p += 2
					continue
				}
			}
		}
		// Default: a single pattern item possibly followed by a
		// quantifier.
		ep := ms.itemEnd(p)
		var quant byte
		if ep < len(ms.pat) {
			quant = ms.pat[ep]
		}
		switch quant {
		case '?':
			if ms.singleMatch(s, p, ep) {
				if r := ms.match(s+1, ep+1); r >= 0 {
					return r
				}
			}
			p = ep + 1
			continue
		case '+':
			if !ms.singleMatch(s, p, ep) {
				return -1
			}
			return ms.maxExpand(s+1, p, ep)
		case '*':
			return ms.maxExpand(s, p, ep)
		case '-':
			return ms.minExpand(s, p, ep)
		default:
			if !ms.singleMatch(s, p, ep) {
				return -1
			}
			s++
			p = ep
			continue
		}
	}
}

// itemEnd returns the index just past the single pattern item at p.
func (ms *matchState) itemEnd(p int) int {
	switch ms.pat[p] {
	case '%':
		if p+1 >= len(ms.pat) {
			patErrf("malformed pattern (ends with '%%')")
		}
		return p + 2
	case '[':
		return ms.bracketEnd(p + 1)
	default:
		return p + 1
	}
}

// explicitCaptures converts the capture list to Lua values (nil when the
// pattern had no captures — callers substitute the whole match).
func (ms *matchState) explicitCaptures() []Value {
	if len(ms.caps) == 0 {
		return nil
	}
	out := make([]Value, len(ms.caps))
	for i, c := range ms.caps {
		switch {
		case c.len == capUnfinished:
			patErrf("unfinished capture")
		case c.len == capPosition:
			out[i] = float64(c.start + 1)
		default:
			out[i] = ms.src[c.start : c.start+c.len]
		}
	}
	return out
}

// patternFind is the engine entry: returns (matchStart, matchEnd, explicit
// captures or nil) with matchStart = -1 for no match. init is a 0-based
// byte offset.
func patternFind(vm *VM, src, pat string, init int) (start, end int, caps []Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*patternError); ok {
				start, end, caps = -1, -1, nil
				err = errors.New(pe.msg)
				return
			}
			panic(r)
		}
	}()
	ms := matchState{vm: vm, src: src, pat: pat}
	anchored := strings.HasPrefix(pat, "^")
	p := 0
	if anchored {
		p = 1
	}
	if init < 0 {
		init = 0
	}
	s := init
	for {
		ms.caps = ms.caps[:0]
		e := ms.match(s, p)
		if e >= 0 {
			return s, e, ms.explicitCaptures(), nil
		}
		s++
		if anchored || s > len(src) {
			return -1, -1, nil, nil
		}
	}
}

// strGsub implements string.gsub(s, pat, repl [, n]) with string, table and
// function replacements.
func (vm *VM) strGsub(args []Value) ([]Value, error) {
	s, err := argString(args, 0, "gsub")
	if err != nil {
		return nil, err
	}
	pat, err := argString(args, 1, "gsub")
	if err != nil {
		return nil, err
	}
	if len(args) < 3 {
		return nil, argErr(3, "gsub", "string/function/table", nil)
	}
	repl := args[2]
	maxN := -1
	if len(args) > 3 && args[3] != nil {
		n, err := argNumber(args, 3, "gsub")
		if err != nil {
			return nil, err
		}
		maxN = int(n)
	}
	var b strings.Builder
	pos := 0
	count := 0
	for (maxN < 0 || count < maxN) && pos <= len(s) {
		start, end, caps, err := patternFind(vm, s, pat, pos)
		if err != nil {
			return nil, err
		}
		if start < 0 {
			break
		}
		b.WriteString(s[pos:start])
		whole := s[start:end]
		if caps == nil {
			caps = []Value{whole}
		}
		var rep Value
		switch r := repl.(type) {
		case string:
			rep = expandGsubString(r, whole, caps)
		case float64:
			rep = expandGsubString(formatNumber(r), whole, caps)
		case *Table:
			rep = r.Get(caps[0])
		case *Function, GoFunc:
			rets := vm.call(repl, caps, 0)
			if len(rets) > 0 {
				rep = rets[0]
			}
		default:
			return nil, argErr(3, "gsub", "string/function/table", repl)
		}
		switch rv := rep.(type) {
		case nil:
			b.WriteString(whole)
		case bool:
			if rv {
				return nil, errors.New("invalid replacement value (a boolean)")
			}
			b.WriteString(whole)
		case string:
			b.WriteString(rv)
		case float64:
			b.WriteString(formatNumber(rv))
		default:
			return nil, errors.New("invalid replacement value (a " + TypeOf(rep).String() + ")")
		}
		if b.Len() > maxStringLen {
			return nil, errors.New(errStringTooLong)
		}
		count++
		if end == start {
			if start < len(s) {
				b.WriteByte(s[start])
			}
			pos = start + 1
		} else {
			pos = end
		}
	}
	if pos <= len(s) {
		b.WriteString(s[pos:])
	}
	return []Value{b.String(), float64(count)}, nil
}

// expandGsubString substitutes %0-%9 and %% in a string replacement.
func expandGsubString(r, whole string, caps []Value) string {
	var b strings.Builder
	for i := 0; i < len(r); i++ {
		if r[i] != '%' || i+1 >= len(r) {
			b.WriteByte(r[i])
			continue
		}
		i++
		c := r[i]
		switch {
		case c == '%':
			b.WriteByte('%')
		case c == '0':
			b.WriteString(whole)
		case c >= '1' && c <= '9':
			idx := int(c - '1')
			if idx < len(caps) {
				b.WriteString(ToString(caps[idx]))
			}
		default:
			b.WriteByte('%')
			b.WriteByte(c)
		}
	}
	return b.String()
}
