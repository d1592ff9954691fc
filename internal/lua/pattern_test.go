package lua

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestFindPatterns(t *testing.T) {
	wantNumber(t, `return string.find("hello world", "wor")`, 7)
	wantNumber(t, `return string.find("hello", "l+")`, 3)
	wantNumber(t, `local s, e = string.find("hello", "l+") return e`, 4)
	wantBool(t, `return string.find("abc", "%d") == nil`, true)
	wantNumber(t, `return string.find("a1b22c", "%d+")`, 2)
	// Anchors.
	wantNumber(t, `return string.find("aaa", "^a")`, 1)
	wantBool(t, `return string.find("baa", "^a") == nil`, true)
	wantNumber(t, `return string.find("abc", "c$")`, 3)
	wantBool(t, `return string.find("abca", "c$") == nil`, true)
	// init offset and plain mode.
	wantNumber(t, `return string.find("abcabc", "abc", 2)`, 4)
	wantNumber(t, `return string.find("a.b", ".", 1, true)`, 2)
	wantNumber(t, `return string.find("a.b", ".")`, 1)
	// Negative init counts from the end.
	wantNumber(t, `return string.find("abcabc", "abc", -4)`, 4)
	// Captures come after the indices.
	wantString(t, `local s, e, c = string.find("key=val", "(%w+)=") return c`, "key")
}

func TestMatchPatterns(t *testing.T) {
	wantString(t, `return string.match("hello 42 world", "%d+")`, "42")
	wantString(t, `return string.match("key=value", "(%w+)=(%w+)")`, "key")
	wantString(t, `local k, v = string.match("key=value", "(%w+)=(%w+)") return v`, "value")
	wantBool(t, `return string.match("abc", "%d") == nil`, true)
	// Position captures.
	wantNumber(t, `return string.match("abc", "b()")`, 3)
	// Classes and sets.
	wantString(t, `return string.match("f00-bar", "[%a%-]+", 2)`, "-bar")
	wantString(t, `return string.match("hello", "[^aeiou]+")`, "h")
	wantString(t, `return string.match("x[10]", "%[(%d+)%]")`, "10")
	// Lazy quantifier.
	wantString(t, `return string.match("<a><b>", "<(.-)>")`, "a")
	wantString(t, `return string.match("<a><b>", "<(.*)>")`, "a><b")
	// Optional item.
	wantString(t, `return string.match("mds0", "mds%d?")`, "mds0")
	wantString(t, `return string.match("mds", "mds%d?")`, "mds")
	// Balanced match.
	wantString(t, `return string.match("f(a(b)c)d", "%b()")`, "(a(b)c)")
	// Back-reference.
	wantString(t, `return string.match("abcabc-x", "(abc)%1")`, "abc")
	// Frontier pattern.
	wantString(t, `return string.match("THE (quick) fox", "%f[%a]%a+%f[%A]")`, "THE")
}

func TestGmatch(t *testing.T) {
	wantNumber(t, `
		local sum = 0
		for n in string.gmatch("1 22 333", "%d+") do sum = sum + tonumber(n) end
		return sum`, 356)
	wantString(t, `
		local out = ""
		for k, v in string.gmatch("a=1,b=2", "(%w+)=(%w+)") do out = out .. k .. v end
		return out`, "a1b2")
	wantNumber(t, `
		local n = 0
		for _ in string.gmatch("xxx", "x") do n = n + 1 end
		return n`, 3)
	// Empty matches advance.
	wantNumber(t, `
		local n = 0
		for _ in string.gmatch("abc", "%d*") do n = n + 1 end
		return n`, 4)
}

func TestGsub(t *testing.T) {
	wantString(t, `return string.gsub("hello world", "o", "0")`, "hell0 w0rld")
	wantNumber(t, `local s, n = string.gsub("hello world", "o", "0") return n`, 2)
	wantString(t, `return string.gsub("hello world", "o", "0", 1)`, "hell0 world")
	// %1 and %0 in the replacement.
	wantString(t, `return string.gsub("key=val", "(%w+)=(%w+)", "%2=%1")`, "val=key")
	wantString(t, `return string.gsub("abc", "%w", "[%0]")`, "[a][b][c]")
	wantString(t, `return string.gsub("50%", "%%", " percent")`, "50 percent")
	// Table replacement.
	wantString(t, `return string.gsub("$a $b", "%$(%w+)", {a = "1", b = "2"})`, "1 2")
	// Function replacement; nil keeps the original.
	wantString(t, `return string.gsub("a1b2", "%d", function(d) return d .. d end)`, "a11b22")
	wantString(t, `return string.gsub("a1b2", "%d", function(d) if d == "1" then return "X" end end)`, "aXb2")
	// Empty pattern interleaves.
	wantString(t, `return string.gsub("ab", "", "-")`, "-a-b-")
	wantError(t, `string.gsub("x", "x", true)`, "string/function/table expected")
	wantError(t, `string.gsub("x", "x")`, "bad argument #3")
}

func TestPatternErrors(t *testing.T) {
	wantError(t, `string.match("x", "(")`, "unfinished capture")
	wantError(t, `string.match("x", "[a")`, "missing ']'")
	wantError(t, `string.match("x", "%")`, "malformed pattern")
	wantError(t, `string.match("x", "%1")`, "invalid capture index")
	wantError(t, `string.match("x", "%b")`, "missing arguments to '%b'")
}

func TestPatternClassCoverage(t *testing.T) {
	cases := []struct{ src, pat, want string }{
		{"a1 B!", "%a+", "a"},
		{"a1 B!", "%d+", "1"},
		{"a1 B!", "%s+", " "},
		{"a1 B!", "%u+", "B"},
		{"a1 B!", "%l+", "a"},
		{"a1 B!", "%p+", "!"},
		{"deadBEEF zz", "%x+", "deadBEEF"},
		{"a1 B!", "%A+", "1 "},
		{"a1 B!", "%D+", "a"},
		{"path/to/file", "[^/]+$", "file"},
		{"v1.2.3", "%d+%.%d+%.%d+", "1.2.3"},
	}
	for _, c := range cases {
		got := evalOne(t, `return string.match("`+c.src+`", "`+c.pat+`")`)
		if got != c.want {
			t.Errorf("match(%q, %q) = %v, want %q", c.src, c.pat, got, c.want)
		}
	}
}

func TestPatternPolicyUseCase(t *testing.T) {
	// A policy parsing a saved composite state string — the practical
	// reason the interpreter ships patterns.
	src := `
		local state = "streak=2;frac=0.25"
		local streak = tonumber(string.match(state, "streak=(%d+)"))
		local frac = tonumber(string.match(state, "frac=([%d%.]+)"))
		return streak + frac`
	wantNumber(t, src, 2.25)
}

// patternFind is exercised directly for edge positions.
func TestPatternFindDirect(t *testing.T) {
	start, end, caps, err := patternFind(NewVM(), "hello", "l+", 0)
	if err != nil || start != 2 || end != 4 || caps != nil {
		t.Fatalf("start=%d end=%d caps=%v err=%v", start, end, caps, err)
	}
	start, _, _, err = patternFind(NewVM(), "hello", "z", 0)
	if err != nil || start != -1 {
		t.Fatalf("no-match start=%d err=%v", start, err)
	}
	// init beyond the string.
	start, _, _, _ = patternFind(NewVM(), "abc", "a", 5)
	if start != -1 {
		t.Fatalf("out-of-range init matched at %d", start)
	}
	// Empty pattern matches at init.
	start, end, _, _ = patternFind(NewVM(), "abc", "", 1)
	if start != 1 || end != 1 {
		t.Fatalf("empty pattern: %d..%d", start, end)
	}
}

// Property: for patterns with no special characters, find agrees with Go's
// strings.Index.
func TestPatternLiteralProperty(t *testing.T) {
	sanitize := func(s string) string {
		out := make([]byte, 0, len(s))
		for _, c := range []byte(s) {
			if c >= 'a' && c <= 'z' {
				out = append(out, c)
			}
		}
		return string(out)
	}
	f := func(hay, needle string) bool {
		h, n := sanitize(hay), sanitize(needle)
		if len(n) == 0 || len(n) > len(h) {
			return true
		}
		start, end, _, err := patternFind(NewVM(), h, n, 0)
		if err != nil {
			return false
		}
		want := strings.Index(h, n)
		if want < 0 {
			return start == -1
		}
		return start == want && end == want+len(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: gsub with an empty-effect replacement preserves length
// accounting: replacing each match with itself reproduces the input.
func TestGsubIdentityProperty(t *testing.T) {
	f := func(raw string) bool {
		s := ""
		for _, c := range []byte(raw) {
			if c >= ' ' && c < 127 && c != '"' && c != '\\' && c != '%' {
				s += string(c)
			}
		}
		vm := NewVM()
		vm.Globals.SetString("s", s)
		vals, err := vm.Eval("t", `return string.gsub(s, "%w+", "%0")`)
		if err != nil {
			return false
		}
		return vals[0] == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
