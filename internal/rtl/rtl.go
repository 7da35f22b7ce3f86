// Package rtl is the shared runtime library of all three execution
// backends: the tree interpreter (internal/interp), the closure compiler
// (internal/compile), and programs emitted by the Go synthesizer
// (internal/codegen). It implements typed arithmetic over 32-bit words,
// typed comparisons, string functors over the symbol table, and aggregate
// accumulation.
package rtl

import (
	"fmt"
	"math"
	"strconv"

	"sti/internal/ram"
	"sti/internal/symtab"
	"sti/internal/value"
)

// Error is a Datalog evaluation error (division by zero, malformed
// to_number input). Backends panic with *Error and convert it to an
// ordinary error at their run boundary.
type Error struct {
	Msg string
}

func (e *Error) Error() string { return "runtime error: " + e.Msg }

// Fail panics with a formatted *Error.
func Fail(format string, args ...any) {
	panic(&Error{Msg: fmt.Sprintf(format, args...)})
}

// Compare evaluates a typed comparison.
func Compare(op ram.CmpOp, typ value.Type, l, r value.Value) bool {
	switch op {
	case ram.CmpEQ:
		return l == r
	case ram.CmpNE:
		return l != r
	}
	c := value.Compare(typ, l, r)
	switch op {
	case ram.CmpLT:
		return c < 0
	case ram.CmpLE:
		return c <= 0
	case ram.CmpGT:
		return c > 0
	default:
		return c >= 0
	}
}

// Arith applies a binary arithmetic/bitwise/logical operator under a typed
// interpretation of the operand words.
func Arith(op ram.IntrinsicOp, typ value.Type, a, b value.Value) value.Value {
	switch typ {
	case value.Float:
		x, y := value.AsFloat(a), value.AsFloat(b)
		switch op {
		case ram.OpAdd:
			return value.FromFloat(x + y)
		case ram.OpSub:
			return value.FromFloat(x - y)
		case ram.OpMul:
			return value.FromFloat(x * y)
		case ram.OpDiv:
			if y == 0 {
				Fail("float division by zero")
			}
			return value.FromFloat(x / y)
		case ram.OpPow:
			return value.FromFloat(float32(math.Pow(float64(x), float64(y))))
		case ram.OpMin:
			if y < x {
				return b
			}
			return a
		case ram.OpMax:
			if y > x {
				return b
			}
			return a
		}
		Fail("operator %v undefined on float", op)
	case value.Unsigned:
		switch op {
		case ram.OpAdd:
			return a + b
		case ram.OpSub:
			return a - b
		case ram.OpMul:
			return a * b
		case ram.OpDiv:
			if b == 0 {
				Fail("division by zero")
			}
			return a / b
		case ram.OpMod:
			if b == 0 {
				Fail("modulo by zero")
			}
			return a % b
		case ram.OpPow:
			return upow(a, b)
		case ram.OpBAnd:
			return a & b
		case ram.OpBOr:
			return a | b
		case ram.OpBXor:
			return a ^ b
		case ram.OpBShl:
			return a << (b & 31)
		case ram.OpBShr:
			return a >> (b & 31)
		case ram.OpLAnd:
			return Bool(a != 0 && b != 0)
		case ram.OpLOr:
			return Bool(a != 0 || b != 0)
		case ram.OpMin:
			if b < a {
				return b
			}
			return a
		case ram.OpMax:
			if b > a {
				return b
			}
			return a
		}
	default: // Number
		x, y := value.AsInt(a), value.AsInt(b)
		switch op {
		case ram.OpAdd:
			return value.FromInt(x + y)
		case ram.OpSub:
			return value.FromInt(x - y)
		case ram.OpMul:
			return value.FromInt(x * y)
		case ram.OpDiv:
			if y == 0 {
				Fail("division by zero")
			}
			return value.FromInt(x / y)
		case ram.OpMod:
			if y == 0 {
				Fail("modulo by zero")
			}
			return value.FromInt(x % y)
		case ram.OpPow:
			return value.FromInt(ipow(x, y))
		case ram.OpBAnd:
			return value.FromInt(x & y)
		case ram.OpBOr:
			return value.FromInt(x | y)
		case ram.OpBXor:
			return value.FromInt(x ^ y)
		case ram.OpBShl:
			return value.FromInt(x << (uint32(y) & 31))
		case ram.OpBShr:
			return value.FromInt(x >> (uint32(y) & 31))
		case ram.OpLAnd:
			return Bool(x != 0 && y != 0)
		case ram.OpLOr:
			return Bool(x != 0 || y != 0)
		case ram.OpMin:
			if y < x {
				return b
			}
			return a
		case ram.OpMax:
			if y > x {
				return b
			}
			return a
		}
	}
	Fail("operator %v undefined on %v", op, typ)
	return 0
}

// Apply applies a functor to its evaluated arguments: the one evaluator of
// every functor the backends do not specialize, and of ramopt's constant
// folding.
func Apply(st *symtab.Table, op ram.IntrinsicOp, typ value.Type, args []value.Value) value.Value {
	switch op {
	case ram.OpNeg:
		return Neg(typ, args[0])
	case ram.OpBNot:
		return BNot(typ, args[0])
	case ram.OpLNot:
		return LNot(args[0])
	case ram.OpCat:
		return Cat(st, args...)
	case ram.OpStrlen:
		return Strlen(st, args[0])
	case ram.OpSubstr:
		return Substr(st, args[0], args[1], args[2])
	case ram.OpOrd:
		return args[0]
	case ram.OpToNumber:
		return ToNumber(st, args[0])
	case ram.OpToString:
		return ToString(st, args[0])
	case ram.OpMin, ram.OpMax:
		acc := args[0]
		for _, v := range args[1:] {
			acc = Arith(op, typ, acc, v)
		}
		return acc
	}
	return Arith(op, typ, args[0], args[1])
}

// Neg applies typed unary minus.
func Neg(typ value.Type, v value.Value) value.Value {
	if typ == value.Float {
		return value.FromFloat(-value.AsFloat(v))
	}
	return value.FromInt(-value.AsInt(v))
}

// BNot applies typed bitwise complement.
func BNot(typ value.Type, v value.Value) value.Value {
	if typ == value.Unsigned {
		return ^v
	}
	return value.FromInt(^value.AsInt(v))
}

// LNot applies logical negation.
func LNot(v value.Value) value.Value { return Bool(v == 0) }

// Bool encodes a boolean as a word.
func Bool(b bool) value.Value {
	if b {
		return 1
	}
	return 0
}

func ipow(base, exp int32) int32 {
	if exp < 0 {
		return 0
	}
	var result int32 = 1
	for exp > 0 {
		if exp&1 == 1 {
			result *= base
		}
		base *= base
		exp >>= 1
	}
	return result
}

func upow(base, exp value.Value) value.Value {
	var result value.Value = 1
	for exp > 0 {
		if exp&1 == 1 {
			result *= base
		}
		base *= base
		exp >>= 1
	}
	return result
}

// --- string functors ---

// Cat concatenates symbols.
func Cat(st *symtab.Table, args ...value.Value) value.Value {
	s := ""
	for _, a := range args {
		s += st.Resolve(a)
	}
	return st.Intern(s)
}

// Strlen returns a symbol's byte length.
func Strlen(st *symtab.Table, v value.Value) value.Value {
	return value.FromInt(int32(len(st.Resolve(v))))
}

// Substr takes the [start, start+length) slice of a symbol, clamped.
func Substr(st *symtab.Table, v, start, length value.Value) value.Value {
	s := st.Resolve(v)
	b, n := int(value.AsInt(start)), int(value.AsInt(length))
	if b < 0 || n < 0 || b > len(s) {
		return st.Intern("")
	}
	end := b + n
	if end > len(s) {
		end = len(s)
	}
	return st.Intern(s[b:end])
}

// ToNumber parses a symbol as a signed number.
func ToNumber(st *symtab.Table, v value.Value) value.Value {
	s := st.Resolve(v)
	n, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		Fail("to_number: %q is not a number", s)
	}
	return value.FromInt(int32(n))
}

// ToString renders a number as a symbol.
func ToString(st *symtab.Table, v value.Value) value.Value {
	return st.Intern(strconv.FormatInt(int64(value.AsInt(v)), 10))
}

// --- aggregates ---

// AggAcc folds aggregate values (count/sum/min/max with the language's
// empty-set semantics).
type AggAcc struct {
	Kind  ram.AggKind
	Typ   value.Type
	Count uint64
	Acc   value.Value
}

// Init prepares the accumulator.
func (a *AggAcc) Init(kind ram.AggKind, typ value.Type) {
	*a = AggAcc{Kind: kind, Typ: typ}
}

// Step folds one value.
func (a *AggAcc) Step(v value.Value) {
	a.Count++
	switch a.Kind {
	case ram.AggCount:
	case ram.AggSum:
		a.Acc = Arith(ram.OpAdd, a.Typ, a.Acc, v)
	case ram.AggMin:
		if a.Count == 1 || value.Compare(a.Typ, v, a.Acc) < 0 {
			a.Acc = v
		}
	case ram.AggMax:
		if a.Count == 1 || value.Compare(a.Typ, v, a.Acc) > 0 {
			a.Acc = v
		}
	}
}

// Finish returns the result and whether a result exists (min/max fail on
// the empty set; count/sum yield 0).
func (a *AggAcc) Finish() (value.Value, bool) {
	switch a.Kind {
	case ram.AggCount:
		return value.FromInt(int32(a.Count)), true
	case ram.AggSum:
		return a.Acc, true
	default:
		return a.Acc, a.Count > 0
	}
}
