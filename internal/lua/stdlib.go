package lua

import (
	"errors"
	"fmt"
	"math"
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

// maxStringLen bounds the strings `..` can build, so the memory a run takes
// stays proportional to its step budget.
const maxStringLen = 1 << 20

// errStringTooLong is the error for a string past maxStringLen.
const errStringTooLong = "string length overflow"

func (vm *VM) installStdlib() {
	g := vm.Globals

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
	vm.math, vm.mathWrites = mathT, mathT.Writes()

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

// beats reports whether n replaces best as the max (or, with lowest, the
// min): only a strictly better number does, so a tie or a NaN keeps best.
func beats(lowest bool, n, best float64) bool {
	return (lowest && n < best) || (!lowest && n > best)
}

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
		if beats(lowest, n, best) {
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
