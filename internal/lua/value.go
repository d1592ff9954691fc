// Package lua implements a small, sandboxed interpreter for the subset of
// Lua that Mantle balancer policies use. The paper injects balancing logic
// as Lua scripts (Listings 1–4); this interpreter runs those scripts
// unmodified. Beyond the paper's needs it supports closures, multiple
// assignment and returns, generic for-loops, and a step budget that kills
// runaway policies (`while 1 do end`) — the safety mechanism §4.4 lists as
// future work.
//
// Supported: nil/boolean/number/string/table/function values; arithmetic,
// comparison, logical, concatenation and length operators; if/elseif/else,
// while, repeat, numeric and generic for, break, return; local variables and
// lexical closures; table constructors; method-call sugar (a:f(x)); a
// curated stdlib (math, string, table subsets, print, pairs, ipairs, type,
// tostring, tonumber).
//
// Not supported (not needed by policies, rejected at parse or runtime):
// metatables, coroutines, goto, varargs, the io/os libraries.
package lua

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Type enumerates Lua value types.
type Type int

// Value types.
const (
	TypeNil Type = iota
	TypeBool
	TypeNumber
	TypeString
	TypeTable
	TypeFunction
)

func (t Type) String() string {
	switch t {
	case TypeNil:
		return "nil"
	case TypeBool:
		return "boolean"
	case TypeNumber:
		return "number"
	case TypeString:
		return "string"
	case TypeTable:
		return "table"
	case TypeFunction:
		return "function"
	default:
		return "unknown"
	}
}

// Value is any Lua value. The concrete types are nil, bool, float64, string,
// *Table, *Function and GoFunc.
type Value any

// GoFunc is a builtin function implemented in Go.
type GoFunc func(args []Value) ([]Value, error)

// Function is a Lua closure.
type Function struct {
	proto *funcProto
	env   *scope
}

// smallNums interns the boxed form of small non-negative integral floats.
// Converting a float64 to the Value interface heap-allocates in Go; loop
// counters, ranks, table indexes and most balancer arithmetic land in this
// range, so handing out a shared immutable box removes the dominant
// allocation in the interpreter's eval loop.
var smallNums [1024]Value

func init() {
	for i := range smallNums {
		smallNums[i] = float64(i)
	}
}

// Box converts f to a Value, reusing an interned box for small non-negative
// integral values (negative zero is excluded so tostring(-0) keeps its
// sign). Callers that already hold a Value should pass it through instead of
// re-boxing.
func Box(f float64) Value {
	if f >= 0 && f < float64(len(smallNums)) && f == math.Trunc(f) && !math.Signbit(f) {
		return smallNums[int(f)]
	}
	return f
}

// TypeOf reports the Lua type of v.
func TypeOf(v Value) Type {
	switch v.(type) {
	case nil:
		return TypeNil
	case bool:
		return TypeBool
	case float64:
		return TypeNumber
	case string:
		return TypeString
	case *Table:
		return TypeTable
	case *Function, GoFunc:
		return TypeFunction
	default:
		panic(fmt.Sprintf("lua: illegal Go value %T in VM", v))
	}
}

// Truthy implements Lua truthiness: everything except nil and false.
func Truthy(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	default:
		return true
	}
}

// Number converts v to a number following Lua coercion (numbers pass
// through; numeric strings convert).
func Number(v Value) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case string:
		s := strings.TrimSpace(x)
		if n, err := strconv.ParseFloat(s, 64); err == nil {
			return n, true
		}
		if n, err := strconv.ParseInt(s, 0, 64); err == nil {
			return float64(n), true
		}
	}
	return 0, false
}

// ToString renders v the way Lua's tostring does.
func ToString(v Value) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case bool:
		if x {
			return "true"
		}
		return "false"
	case float64:
		return formatNumber(x)
	case string:
		return x
	case *Table:
		return fmt.Sprintf("table: %p", x)
	case *Function:
		return fmt.Sprintf("function: %p", x)
	case GoFunc:
		return "function: builtin"
	default:
		return fmt.Sprintf("%v", x)
	}
}

func formatNumber(f float64) string {
	if math.IsInf(f, 1) {
		return "inf"
	}
	if math.IsInf(f, -1) {
		return "-inf"
	}
	if math.IsNaN(f) {
		return "nan"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
	return strconv.FormatFloat(f, 'g', 14, 64)
}

// rawEqual implements Lua == (no metatables).
func rawEqual(a, b Value) bool {
	if TypeOf(a) != TypeOf(b) {
		return false
	}
	switch x := a.(type) {
	case nil:
		return true
	case bool:
		return x == b.(bool)
	case float64:
		return x == b.(float64)
	case string:
		return x == b.(string)
	case *Table:
		return x == b.(*Table)
	case *Function:
		return x == b.(*Function)
	case GoFunc:
		return false // builtin identity not comparable; Lua scripts never do this
	}
	return false
}

// Table is a Lua table with an array part and a hash part.
type Table struct {
	arr  []Value
	hash map[Value]Value
	// writes counts mutations (see Writes). Every path that stores into
	// arr or hash bumps it: Set, Reset, and the table library's direct
	// array edits.
	writes uint64
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

func normalizeKey(k Value) Value { return k }

// Get fetches t[k]; missing keys yield nil.
func (t *Table) Get(k Value) Value {
	if n, ok := k.(float64); ok {
		if i := int(n); float64(i) == n && i >= 1 && i <= len(t.arr) {
			return t.arr[i-1]
		}
	}
	if t.hash == nil {
		return nil
	}
	return t.hash[normalizeKey(k)]
}

// GetString fetches t[k] for a string key.
func (t *Table) GetString(k string) Value { return t.Get(k) }

// GetInt fetches t[i] for an integer key.
func (t *Table) GetInt(i int) Value { return t.Get(float64(i)) }

// Set stores t[k] = v. Setting nil removes the key. A nil or NaN key is an
// error surfaced by the interpreter; Set panics to keep the API small.
func (t *Table) Set(k, v Value) {
	if k == nil {
		panic("lua: table index is nil")
	}
	t.writes++
	if n, ok := k.(float64); ok {
		if math.IsNaN(n) {
			panic("lua: table index is NaN")
		}
		if i := int(n); float64(i) == n && i >= 1 {
			if i <= len(t.arr) {
				t.arr[i-1] = v
				if v == nil && i == len(t.arr) {
					// Shrink trailing nils.
					for len(t.arr) > 0 && t.arr[len(t.arr)-1] == nil {
						t.arr = t.arr[:len(t.arr)-1]
					}
				}
				return
			}
			if i == len(t.arr)+1 {
				if v == nil {
					return
				}
				t.arr = append(t.arr, v)
				// Migrate any subsequent ints from the hash part.
				if t.hash != nil {
					for {
						next := float64(len(t.arr) + 1)
						hv, ok := t.hash[next]
						if !ok {
							break
						}
						t.arr = append(t.arr, hv)
						delete(t.hash, next)
					}
				}
				return
			}
		}
	}
	k = normalizeKey(k)
	if v == nil {
		if t.hash != nil {
			delete(t.hash, k)
		}
		return
	}
	if t.hash == nil {
		t.hash = map[Value]Value{}
	}
	t.hash[k] = v
}

// SetString stores t[k] = v for a string key.
func (t *Table) SetString(k string, v Value) { t.Set(k, v) }

// SetInt stores t[i] = v for an integer key.
func (t *Table) SetInt(i int, v Value) { t.Set(float64(i), v) }

// Len implements the # operator: the array-part border.
func (t *Table) Len() int { return len(t.arr) }

// Append adds v at the end of the array part.
func (t *Table) Append(v Value) { t.SetInt(t.Len()+1, v) }

// Keys returns all keys in deterministic order: array indices first, then
// hash keys sorted by (type, value). Determinism matters because balancer
// decisions iterate tables and the simulation must be reproducible.
func (t *Table) Keys() []Value {
	keys := make([]Value, 0, len(t.arr)+len(t.hash))
	for i := range t.arr {
		keys = append(keys, float64(i+1))
	}
	rest := make([]Value, 0, len(t.hash))
	for k := range t.hash {
		rest = append(rest, k)
	}
	sort.Slice(rest, func(i, j int) bool { return keyLess(rest[i], rest[j]) })
	return append(keys, rest...)
}

func keyLess(a, b Value) bool {
	ta, tb := TypeOf(a), TypeOf(b)
	if ta != tb {
		return ta < tb
	}
	switch x := a.(type) {
	case float64:
		return x < b.(float64)
	case string:
		return x < b.(string)
	case bool:
		return !x && b.(bool)
	default:
		return fmt.Sprintf("%p", a) < fmt.Sprintf("%p", b)
	}
}

// Reset clears the table in place, keeping the allocated array and hash
// capacity. Mantle reuses long-lived tables (the `targets` table a where
// hook fills every heartbeat) instead of rebuilding them per invocation.
func (t *Table) Reset() {
	t.writes++
	for i := range t.arr {
		t.arr[i] = nil
	}
	t.arr = t.arr[:0]
	clear(t.hash)
}

// Writes reports how many times the table has been mutated, by Go or by a
// script. A host that mirrors Go state into a long-lived table remembers the
// count after its own stores; a later mismatch means something else wrote
// to the table and the mirror can no longer be trusted.
func (t *Table) Writes() uint64 { return t.writes }

// NumEntries reports the total number of entries (array + hash).
func (t *Table) NumEntries() int { return len(t.arr) + len(t.hash) }
