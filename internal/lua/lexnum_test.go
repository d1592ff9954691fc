package lua

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// scanfNumber is how the lexer read a number's text before it called
// strconv: kept as the oracle for TestLexNumberMatchesScanf.
func scanfNumber(text string) (float64, bool) {
	if len(text) > 1 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X') {
		var v uint64
		if _, err := fmt.Sscanf(text, "0x%x", &v); err != nil {
			if _, err := fmt.Sscanf(text, "0X%x", &v); err != nil {
				return 0, false
			}
		}
		return float64(v), true
	}
	var f float64
	if _, err := fmt.Sscanf(text, "%g", &f); err != nil || strings.Count(text, ".") > 1 {
		return 0, false
	}
	return f, true
}

// lexedNumber lexes src, which must be one number, and reports its value, or
// false for a syntax error.
func lexedNumber(src string) (v float64, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, syntax := r.(*SyntaxError); !syntax {
				panic(r)
			}
			ok = false
		}
	}()
	l := newLexer("n", src)
	tok := l.next()
	if tok.kind != tokNumber || l.pos != len(src) {
		return 0, false
	}
	return tok.num, true
}

// TestLexNumberMatchesScanf: numbers lex to the same bits, and the same
// texts are malformed, as when the lexer parsed them with fmt.Sscanf.
func TestLexNumberMatchesScanf(t *testing.T) {
	texts := []string{"0", "1", "42", "1.5", ".5", "5.", "1e3", "1E-3", "2.5e+10", "1e400", "1e-400",
		"4.9e-324", "1.7976931348623157e308", "0x0", "0xff", "0XAB", "0xffffffffffffffff", "0x10000000000000000",
		"0x", "1.2.3", "1e", "1e+", "00012", "123456789012345678901234567890", "0.1", "3.14159265358979323846"}
	r := rand.New(rand.NewSource(1))
	const alphabet = "0123456789..eE+-"
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		b.WriteByte("0123456789."[r.Intn(11)])
		for n := r.Intn(12); n > 0; n-- {
			b.WriteByte(alphabet[r.Intn(len(alphabet))])
		}
		texts = append(texts, b.String())
	}
	for i := 0; i < 2000; i++ {
		var b strings.Builder
		b.WriteString([]string{"0x", "0X"}[r.Intn(2)])
		for n := r.Intn(20); n > 0; n-- {
			b.WriteByte("0123456789abcdefABCDEF"[r.Intn(22)])
		}
		texts = append(texts, b.String())
	}
	for _, text := range texts {
		// The lexer decides where a number ends; the oracle reads what
		// it took.
		l := newLexer("n", text)
		func() {
			defer func() { recover() }()
			l.next()
		}()
		took := text[:l.pos]
		if took == "" {
			continue
		}
		got, gotOK := lexedNumber(took)
		want, wantOK := scanfNumber(took)
		if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%q: lexed %v (ok %v), Sscanf read %v (ok %v)", took, got, gotOK, want, wantOK)
		}
	}
}
