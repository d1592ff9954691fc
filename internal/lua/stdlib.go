package lua

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// argErr builds the standard "bad argument" error.
func argErr(n int, fn, want string, got Value) error {
	return fmt.Errorf("bad argument #%d to '%s' (%s expected, got %v)", n, fn, want, TypeOf(got))
}

func argNumber(args []Value, i int, fn string) (float64, error) {
	if i >= len(args) {
		return 0, argErr(i+1, fn, "number", nil)
	}
	n, ok := Number(args[i])
	if !ok {
		return 0, argErr(i+1, fn, "number", args[i])
	}
	return n, nil
}

func argString(args []Value, i int, fn string) (string, error) {
	if i >= len(args) {
		return "", argErr(i+1, fn, "string", nil)
	}
	switch v := args[i].(type) {
	case string:
		return v, nil
	case float64:
		return formatNumber(v), nil
	}
	return "", argErr(i+1, fn, "string", args[i])
}

func argTable(args []Value, i int, fn string) (*Table, error) {
	if i >= len(args) {
		return nil, argErr(i+1, fn, "table", nil)
	}
	t, ok := args[i].(*Table)
	if !ok {
		return nil, argErr(i+1, fn, "table", args[i])
	}
	return t, nil
}

// maxStringLen bounds every string a script can build (concatenation,
// string.rep, string.format, table.concat, string.gsub), so the memory a run
// takes stays proportional to its step budget.
const maxStringLen = 1 << 20

// errStringTooLong is the error for a string past maxStringLen.
const errStringTooLong = "string length overflow"

// PrintWriter receives output from the `print` builtin. Defaults to
// discarding; the policy-lint tool wires it to stdout.
type PrintWriter func(line string)

// SetPrinter routes print() output.
func (vm *VM) SetPrinter(w PrintWriter) { vm.printer = w }

// printer lives on VM; declared here to keep stdlib concerns together.

func (vm *VM) installStdlib() {
	g := vm.Globals

	g.SetString("print", GoFunc(func(args []Value) ([]Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = ToString(a)
		}
		if vm.printer != nil {
			vm.printer(strings.Join(parts, "\t"))
		}
		return nil, nil
	}))

	g.SetString("type", GoFunc(func(args []Value) ([]Value, error) {
		if len(args) == 0 {
			return nil, errors.New("bad argument #1 to 'type' (value expected)")
		}
		return []Value{TypeOf(args[0]).String()}, nil
	}))

	g.SetString("tostring", GoFunc(func(args []Value) ([]Value, error) {
		if len(args) == 0 {
			return []Value{"nil"}, nil
		}
		return []Value{ToString(args[0])}, nil
	}))

	g.SetString("tonumber", GoFunc(func(args []Value) ([]Value, error) {
		if len(args) == 0 {
			return []Value{nil}, nil
		}
		if n, ok := Number(args[0]); ok {
			return []Value{n}, nil
		}
		return []Value{nil}, nil
	}))

	g.SetString("assert", GoFunc(func(args []Value) ([]Value, error) {
		if len(args) == 0 || !Truthy(args[0]) {
			msg := "assertion failed!"
			if len(args) > 1 {
				msg = ToString(args[1])
			}
			return nil, errors.New(msg)
		}
		return args, nil
	}))

	g.SetString("error", GoFunc(func(args []Value) ([]Value, error) {
		msg := "error"
		if len(args) > 0 {
			msg = ToString(args[0])
		}
		return nil, errors.New(msg)
	}))

	// pcall runs a function in protected mode: runtime errors become a
	// (false, message) return instead of aborting the chunk. The step
	// budget still applies and is NOT caught — a runaway policy cannot
	// hide behind pcall.
	g.SetString("pcall", GoFunc(func(args []Value) ([]Value, error) {
		if len(args) == 0 {
			return nil, errors.New("bad argument #1 to 'pcall' (value expected)")
		}
		fn := args[0]
		rets, err := vm.protectedCall(fn, args[1:])
		if err != nil {
			return []Value{false, err.Error()}, nil
		}
		return append([]Value{true}, rets...), nil
	}))

	// select returns its arguments after the n-th (counting from the end
	// when n < 0), or their number for select('#', ...).
	g.SetString("select", GoFunc(func(args []Value) ([]Value, error) {
		if len(args) > 0 && args[0] == "#" {
			return []Value{Box(float64(len(args) - 1))}, nil
		}
		n, err := argNumber(args, 0, "select")
		if err != nil {
			return nil, err
		}
		i := int(n)
		if i < 0 {
			i += len(args)
		} else if i > len(args) {
			i = len(args)
		}
		if i < 1 {
			return nil, errors.New("bad argument #1 to 'select' (index out of range)")
		}
		return args[i:], nil
	}))

	g.SetString("unpack", GoFunc(func(args []Value) ([]Value, error) {
		t, err := argTable(args, 0, "unpack")
		if err != nil {
			return nil, err
		}
		out := make([]Value, t.Len())
		for i := 1; i <= t.Len(); i++ {
			out[i-1] = t.GetInt(i)
		}
		return out, nil
	}))

	// pairs iterates array part then sorted hash keys — deterministic,
	// unlike real Lua, because the simulation must be reproducible.
	g.SetString("pairs", GoFunc(func(args []Value) ([]Value, error) {
		t, err := argTable(args, 0, "pairs")
		if err != nil {
			return nil, err
		}
		keys := t.Keys()
		i := 0
		iter := GoFunc(func([]Value) ([]Value, error) {
			for i < len(keys) {
				k := keys[i]
				i++
				v := t.Get(k)
				if v != nil {
					return []Value{k, v}, nil
				}
			}
			return []Value{nil}, nil
		})
		return []Value{iter, t, nil}, nil
	}))

	g.SetString("ipairs", GoFunc(func(args []Value) ([]Value, error) {
		t, err := argTable(args, 0, "ipairs")
		if err != nil {
			return nil, err
		}
		i := 0
		iter := GoFunc(func([]Value) ([]Value, error) {
			i++
			v := t.GetInt(i)
			if v == nil {
				return []Value{nil}, nil
			}
			return []Value{float64(i), v}, nil
		})
		return []Value{iter, t, nil}, nil
	}))

	// Top-level max/min: the Mantle environment exposes these directly
	// (Table 2 of the paper).
	g.SetString("max", GoFunc(vm.stdMax))
	g.SetString("min", GoFunc(vm.stdMin))

	mathT := NewTable()
	mathT.SetString("floor", GoFunc(math1("floor", math.Floor)))
	mathT.SetString("ceil", GoFunc(math1("ceil", math.Ceil)))
	mathT.SetString("abs", GoFunc(math1("abs", math.Abs)))
	mathT.SetString("sqrt", GoFunc(math1("sqrt", math.Sqrt)))
	mathT.SetString("exp", GoFunc(math1("exp", math.Exp)))
	mathT.SetString("log", GoFunc(math1("log", math.Log)))
	mathT.SetString("max", GoFunc(vm.stdMax))
	mathT.SetString("min", GoFunc(vm.stdMin))
	mathT.SetString("huge", math.Inf(1))
	mathT.SetString("pi", math.Pi)
	mathT.SetString("fmod", GoFunc(func(args []Value) ([]Value, error) {
		a, err := argNumber(args, 0, "fmod")
		if err != nil {
			return nil, err
		}
		b, err := argNumber(args, 1, "fmod")
		if err != nil {
			return nil, err
		}
		return []Value{math.Mod(a, b)}, nil
	}))
	mathT.SetString("modf", GoFunc(func(args []Value) ([]Value, error) {
		a, err := argNumber(args, 0, "modf")
		if err != nil {
			return nil, err
		}
		i, f := math.Modf(a)
		return []Value{i, f}, nil
	}))
	// math.random is deterministic per VM (a splitmix64 stream) so that
	// probabilistic balancer policies stay reproducible run-to-run.
	mathT.SetString("randomseed", GoFunc(func(args []Value) ([]Value, error) {
		n, err := argNumber(args, 0, "randomseed")
		if err != nil {
			return nil, err
		}
		vm.rngState = uint64(int64(n))
		return nil, nil
	}))
	mathT.SetString("random", GoFunc(func(args []Value) ([]Value, error) {
		vm.rngState += 0x9e3779b97f4a7c15
		z := vm.rngState
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		u := float64(z>>11) / float64(1<<53)
		switch len(args) {
		case 0:
			return []Value{u}, nil
		case 1:
			m, err := argNumber(args, 0, "random")
			if err != nil {
				return nil, err
			}
			if m < 1 {
				return nil, errors.New("bad argument #1 to 'random' (interval is empty)")
			}
			return []Value{math.Floor(u*m) + 1}, nil
		default:
			lo, err := argNumber(args, 0, "random")
			if err != nil {
				return nil, err
			}
			hi, err := argNumber(args, 1, "random")
			if err != nil {
				return nil, err
			}
			if hi < lo {
				return nil, errors.New("bad argument #2 to 'random' (interval is empty)")
			}
			return []Value{lo + math.Floor(u*(hi-lo+1))}, nil
		}
	}))
	mathT.SetString("pow", GoFunc(func(args []Value) ([]Value, error) {
		a, err := argNumber(args, 0, "pow")
		if err != nil {
			return nil, err
		}
		b, err := argNumber(args, 1, "pow")
		if err != nil {
			return nil, err
		}
		return []Value{math.Pow(a, b)}, nil
	}))
	g.SetString("math", mathT)

	strT := NewTable()
	strT.SetString("len", GoFunc(func(args []Value) ([]Value, error) {
		s, err := argString(args, 0, "len")
		if err != nil {
			return nil, err
		}
		return []Value{float64(len(s))}, nil
	}))
	strT.SetString("sub", GoFunc(func(args []Value) ([]Value, error) {
		s, err := argString(args, 0, "sub")
		if err != nil {
			return nil, err
		}
		i, err := argNumber(args, 1, "sub")
		if err != nil {
			return nil, err
		}
		j := float64(-1)
		if len(args) > 2 {
			if j, err = argNumber(args, 2, "sub"); err != nil {
				return nil, err
			}
		}
		lo, hi := strIndex(len(s), int(i)), strIndex(len(s), int(j))
		if lo < 1 {
			lo = 1
		}
		if hi > len(s) {
			hi = len(s)
		}
		if lo > hi {
			return []Value{""}, nil
		}
		return []Value{s[lo-1 : hi]}, nil
	}))
	strT.SetString("upper", GoFunc(func(args []Value) ([]Value, error) {
		s, err := argString(args, 0, "upper")
		if err != nil {
			return nil, err
		}
		return []Value{strings.ToUpper(s)}, nil
	}))
	strT.SetString("lower", GoFunc(func(args []Value) ([]Value, error) {
		s, err := argString(args, 0, "lower")
		if err != nil {
			return nil, err
		}
		return []Value{strings.ToLower(s)}, nil
	}))
	strT.SetString("rep", GoFunc(func(args []Value) ([]Value, error) {
		s, err := argString(args, 0, "rep")
		if err != nil {
			return nil, err
		}
		n, err := argNumber(args, 1, "rep")
		if err != nil {
			return nil, err
		}
		if n < 0 {
			n = 0
		}
		if float64(len(s))*n > maxStringLen {
			return nil, errors.New("string.rep result too large")
		}
		return []Value{strings.Repeat(s, int(n))}, nil
	}))
	strT.SetString("find", GoFunc(func(args []Value) ([]Value, error) {
		s, err := argString(args, 0, "find")
		if err != nil {
			return nil, err
		}
		pat, err := argString(args, 1, "find")
		if err != nil {
			return nil, err
		}
		init := 1
		if len(args) > 2 && args[2] != nil {
			n, err := argNumber(args, 2, "find")
			if err != nil {
				return nil, err
			}
			init = strIndex(len(s), int(n))
			if init < 1 {
				init = 1
			}
		}
		if len(args) > 3 && Truthy(args[3]) {
			// Plain find.
			if init-1 > len(s) {
				return []Value{nil}, nil
			}
			idx := strings.Index(s[init-1:], pat)
			if idx < 0 {
				return []Value{nil}, nil
			}
			start := init - 1 + idx
			return []Value{float64(start + 1), float64(start + len(pat))}, nil
		}
		start, end, caps, err := patternFind(vm, s, pat, init-1)
		if err != nil {
			return nil, err
		}
		if start < 0 {
			return []Value{nil}, nil
		}
		return append([]Value{float64(start + 1), float64(end)}, caps...), nil
	}))
	strT.SetString("match", GoFunc(func(args []Value) ([]Value, error) {
		s, err := argString(args, 0, "match")
		if err != nil {
			return nil, err
		}
		pat, err := argString(args, 1, "match")
		if err != nil {
			return nil, err
		}
		init := 0
		if len(args) > 2 && args[2] != nil {
			n, err := argNumber(args, 2, "match")
			if err != nil {
				return nil, err
			}
			init = strIndex(len(s), int(n)) - 1
			if init < 0 {
				init = 0
			}
		}
		start, end, caps, err := patternFind(vm, s, pat, init)
		if err != nil {
			return nil, err
		}
		if start < 0 {
			return []Value{nil}, nil
		}
		if caps == nil {
			caps = []Value{s[start:end]}
		}
		return caps, nil
	}))
	strT.SetString("gmatch", GoFunc(func(args []Value) ([]Value, error) {
		s, err := argString(args, 0, "gmatch")
		if err != nil {
			return nil, err
		}
		pat, err := argString(args, 1, "gmatch")
		if err != nil {
			return nil, err
		}
		pos := 0
		iter := GoFunc(func([]Value) ([]Value, error) {
			for pos <= len(s) {
				start, end, caps, err := patternFind(vm, s, pat, pos)
				if err != nil {
					return nil, err
				}
				if start < 0 {
					return []Value{nil}, nil
				}
				if end == start {
					pos = end + 1 // empty match: step forward
				} else {
					pos = end
				}
				if caps == nil {
					caps = []Value{s[start:end]}
				}
				return caps, nil
			}
			return []Value{nil}, nil
		})
		return []Value{iter}, nil
	}))
	strT.SetString("gsub", GoFunc(func(args []Value) ([]Value, error) {
		return vm.strGsub(args)
	}))
	strT.SetString("reverse", GoFunc(func(args []Value) ([]Value, error) {
		s, err := argString(args, 0, "reverse")
		if err != nil {
			return nil, err
		}
		b := []byte(s)
		for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
		return []Value{string(b)}, nil
	}))
	strT.SetString("byte", GoFunc(func(args []Value) ([]Value, error) {
		s, err := argString(args, 0, "byte")
		if err != nil {
			return nil, err
		}
		i := 1.0
		if len(args) > 1 {
			if i, err = argNumber(args, 1, "byte"); err != nil {
				return nil, err
			}
		}
		idx := strIndex(len(s), int(i))
		if idx < 1 || idx > len(s) {
			return []Value{nil}, nil
		}
		return []Value{float64(s[idx-1])}, nil
	}))
	strT.SetString("char", GoFunc(func(args []Value) ([]Value, error) {
		b := make([]byte, len(args))
		for i := range args {
			n, err := argNumber(args, i, "char")
			if err != nil {
				return nil, err
			}
			if n < 0 || n > 255 {
				return nil, errors.New("bad argument to 'char' (value out of range)")
			}
			b[i] = byte(n)
		}
		return []Value{string(b)}, nil
	}))
	strT.SetString("format", GoFunc(stdFormat))
	g.SetString("string", strT)

	tblT := NewTable()
	tblT.SetString("insert", GoFunc(func(args []Value) ([]Value, error) {
		t, err := argTable(args, 0, "insert")
		if err != nil {
			return nil, err
		}
		switch len(args) {
		case 2:
			t.Append(args[1])
		case 3:
			pos, err := argNumber(args, 1, "insert")
			if err != nil {
				return nil, err
			}
			p := int(pos)
			if p < 1 || p > t.Len()+1 {
				return nil, errors.New("bad argument #2 to 'insert' (position out of bounds)")
			}
			t.writes++
			t.arr = append(t.arr, nil)
			copy(t.arr[p:], t.arr[p-1:])
			t.arr[p-1] = args[2]
		default:
			return nil, errors.New("wrong number of arguments to 'insert'")
		}
		return nil, nil
	}))
	tblT.SetString("remove", GoFunc(func(args []Value) ([]Value, error) {
		t, err := argTable(args, 0, "remove")
		if err != nil {
			return nil, err
		}
		p := t.Len()
		if len(args) > 1 {
			pos, err := argNumber(args, 1, "remove")
			if err != nil {
				return nil, err
			}
			p = int(pos)
		}
		if t.Len() == 0 {
			return []Value{nil}, nil
		}
		if p < 1 || p > t.Len() {
			return nil, errors.New("bad argument #2 to 'remove' (position out of bounds)")
		}
		t.writes++
		v := t.arr[p-1]
		copy(t.arr[p-1:], t.arr[p:])
		t.arr = t.arr[:len(t.arr)-1]
		return []Value{v}, nil
	}))
	tblT.SetString("concat", GoFunc(func(args []Value) ([]Value, error) {
		t, err := argTable(args, 0, "concat")
		if err != nil {
			return nil, err
		}
		sep := ""
		if len(args) > 1 {
			if sep, err = argString(args, 1, "concat"); err != nil {
				return nil, err
			}
		}
		parts := make([]string, 0, t.Len())
		size := 0
		for i := 1; i <= t.Len(); i++ {
			s, ok := concatString(t.GetInt(i))
			if !ok {
				return nil, fmt.Errorf("invalid value (at index %d) in table for 'concat'", i)
			}
			if size += len(s) + len(sep); size > maxStringLen {
				return nil, errors.New(errStringTooLong)
			}
			parts = append(parts, s)
		}
		return []Value{strings.Join(parts, sep)}, nil
	}))
	tblT.SetString("sort", GoFunc(func(args []Value) ([]Value, error) {
		t, err := argTable(args, 0, "sort")
		if err != nil {
			return nil, err
		}
		var sortErr error
		less := func(a, b Value) bool {
			an, aok := a.(float64)
			bn, bok := b.(float64)
			if aok && bok {
				return an < bn
			}
			as, aok2 := a.(string)
			bs, bok2 := b.(string)
			if aok2 && bok2 {
				return as < bs
			}
			sortErr = errors.New("attempt to compare incompatible values in 'sort'")
			return false
		}
		if len(args) > 1 {
			cmp := args[1]
			// The comparator runs inside the VM; a runtime error in
			// it propagates as the interpreter's usual panic and is
			// caught by Run.
			less = func(a, b Value) bool {
				rets := vm.call(cmp, []Value{a, b}, 0)
				return len(rets) > 0 && Truthy(rets[0])
			}
		}
		t.writes++
		sort.SliceStable(t.arr, func(i, j int) bool {
			if sortErr != nil {
				return false
			}
			return less(t.arr[i], t.arr[j])
		})
		return nil, sortErr
	}))
	g.SetString("table", tblT)
}

func math1(name string, f func(float64) float64) func([]Value) ([]Value, error) {
	return func(args []Value) ([]Value, error) {
		n, err := argNumber(args, 0, name)
		if err != nil {
			return nil, err
		}
		return []Value{f(n)}, nil
	}
}

func (vm *VM) stdMax(args []Value) ([]Value, error) { return vm.extreme(args, "max", false) }

func (vm *VM) stdMin(args []Value) ([]Value, error) { return vm.extreme(args, "min", true) }

// extreme is max (or, with lowest, min). It returns the winning argument
// itself through vm.one, so a number comes back without a fresh box or
// slice; a numeric string comes back converted, as before.
func (vm *VM) extreme(args []Value, name string, lowest bool) ([]Value, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("bad argument #1 to '%s' (number expected)", name)
	}
	best, err := argNumber(args, 0, name)
	if err != nil {
		return nil, err
	}
	win := 0
	for i := 1; i < len(args); i++ {
		n, err := argNumber(args, i, name)
		if err != nil {
			return nil, err
		}
		if (lowest && n < best) || (!lowest && n > best) {
			best, win = n, i
		}
	}
	if _, ok := args[win].(float64); ok {
		vm.one[0] = args[win]
	} else {
		vm.one[0] = Box(best)
	}
	return vm.one[:], nil
}

func strIndex(length, i int) int {
	if i < 0 {
		return length + i + 1
	}
	return i
}

// longFormatNumber reports whether a format spec ("%", flags, width,
// "." precision, verb) has a width or precision of more than two digits,
// which Lua 5.1 refuses: it would let one call build an arbitrarily long
// string. As in Lua's scanformat, the flags come first and are skipped, so
// "%010d" is the flag 0 and a width of 10.
func longFormatNumber(spec string) bool {
	i := 1
	for i < len(spec) && strings.IndexByte("-+ #0", spec[i]) >= 0 {
		i++
	}
	twoDigits := func() {
		for n := 0; n < 2 && i < len(spec) && isDigit(spec[i]); n++ {
			i++
		}
	}
	twoDigits()
	if i < len(spec) && spec[i] == '.' {
		i++
		twoDigits()
	}
	return i < len(spec) && isDigit(spec[i])
}

// stdFormat implements string.format for the verbs policies use:
// %d %i %f %g %s %x %% with width/precision flags passed through to Go.
func stdFormat(args []Value) ([]Value, error) {
	f, err := argString(args, 0, "format")
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	argi := 1
	i := 0
	for i < len(f) {
		c := f[i]
		if c != '%' {
			b.WriteByte(c)
			i++
			continue
		}
		j := i + 1
		for j < len(f) && strings.ContainsRune("-+ #0123456789.", rune(f[j])) {
			j++
		}
		if j >= len(f) {
			return nil, errors.New("invalid format string to 'format'")
		}
		verb := f[j]
		spec := f[i : j+1]
		if longFormatNumber(spec) {
			return nil, errors.New("invalid format (width or precision too long)")
		}
		switch verb {
		case '%':
			b.WriteByte('%')
		case 'd', 'i':
			n, err := argNumber(args, argi, "format")
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&b, strings.Replace(spec, string(verb), "d", 1), int64(n))
			argi++
		case 'f', 'g', 'e':
			n, err := argNumber(args, argi, "format")
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&b, spec, n)
			argi++
		case 'x', 'X':
			n, err := argNumber(args, argi, "format")
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&b, spec, int64(n))
			argi++
		case 's':
			var s string
			if argi < len(args) {
				s = ToString(args[argi])
			}
			fmt.Fprintf(&b, spec, s)
			argi++
		default:
			return nil, fmt.Errorf("unsupported format verb %%%c", verb)
		}
		if b.Len() > maxStringLen {
			return nil, errors.New(errStringTooLong)
		}
		i = j + 1
	}
	return []Value{b.String()}, nil
}
