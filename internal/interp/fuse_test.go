package interp

import (
	"fmt"
	"testing"

	"sti/internal/ram"
	"sti/internal/ramopt"
	"sti/internal/rtl"
	"sti/internal/symtab"
	"sti/internal/tuple"
	"sti/internal/value"
)

// fuseGen is a generator with just enough engine behind it to build fused
// closures: a symbol table and the coordinates of the bound tuples.
func fuseGen(coords map[int32]tuple.Order) *generator {
	return &generator{eng: &Engine{st: symtab.New()}, cfg: DefaultConfig(), coords: coords}
}

// outcome runs fn and returns its value, or the message of the Datalog
// runtime error it raised.
func outcome(fn func() value.Value) (v value.Value, fail string) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(*rtl.Error)
			if !ok {
				panic(r)
			}
			fail = e.Msg
		}
	}()
	return fn(), ""
}

func elem(tid, e int) ram.Expr     { return &ram.TupleElement{TupleID: tid, Elem: e} }
func konst(v value.Value) ram.Expr { return &ram.Constant{Val: v} }
func fn(op ram.IntrinsicOp, typ value.Type, args ...ram.Expr) ram.Expr {
	return &ram.Intrinsic{Op: op, Type: typ, Args: args}
}

// words are operand bit patterns chosen to separate the signed, unsigned and
// float readings: zero (division), small values, -1 / 2^32-1, the int32
// extremes, and float32 bits of both signs.
var words = []value.Value{
	0, 1, 2, 7, 31, 0xFFFFFFFF, 0x80000000, 0x7FFFFFFF,
	value.FromFloat(1.5), value.FromFloat(-2.25), value.FromFloat(3),
}

var types = []value.Type{value.Number, value.Unsigned, value.Float, value.Symbol}

// shapes are the operand forms a binary node can see: both leaves read in
// place, a constant right operand (the known-divisor path), and nested
// intrinsics (ord is the identity, so the expected value is unchanged).
var shapes = []struct {
	name string
	l, r func(a, b value.Value) ram.Expr
}{
	{"elem,elem", func(_, _ value.Value) ram.Expr { return elem(0, 0) }, func(_, _ value.Value) ram.Expr { return elem(1, 1) }},
	{"elem,const", func(_, _ value.Value) ram.Expr { return elem(0, 0) }, func(_, b value.Value) ram.Expr { return konst(b) }},
	{"const,elem", func(a, _ value.Value) ram.Expr { return konst(a) }, func(_, _ value.Value) ram.Expr { return elem(1, 1) }},
	{"fn,fn",
		func(_, _ value.Value) ram.Expr { return fn(ram.OpAdd, value.Number, elem(0, 0), konst(0)) },
		func(_, _ value.Value) ram.Expr { return fn(ram.OpOrd, value.Number, elem(1, 1)) }},
}

func TestFuseCompare(t *testing.T) {
	g := fuseGen(nil)
	ops := []ram.CmpOp{ram.CmpEQ, ram.CmpNE, ram.CmpLT, ram.CmpLE, ram.CmpGT, ram.CmpGE}
	for _, op := range ops {
		for _, typ := range types {
			for _, sh := range shapes {
				for _, a := range words {
					for _, b := range words {
						ts := []tuple.Tuple{{a}, {0, b}}
						cond := &ram.Constraint{Op: op, Type: typ, L: sh.l(a, b), R: sh.r(a, b)}
						if got, want := g.fuse(cond)(ts), rtl.Compare(op, typ, a, b); got != want {
							t.Fatalf("%s over %s: %#x %v:%v %#x = %v, want %v", ram.CondString(cond), sh.name, a, op, typ, b, got, want)
						}
					}
				}
			}
		}
	}
}

func TestFuseBinaryIntrinsics(t *testing.T) {
	g := fuseGen(nil)
	for op := ram.OpAdd; op <= ram.OpLOr; op++ {
		for _, typ := range types[:3] {
			for _, sh := range shapes {
				for _, a := range words {
					for _, b := range words {
						ts := []tuple.Tuple{{a}, {0, b}}
						arg := g.fuseArg(fn(op, typ, sh.l(a, b), sh.r(a, b)))
						got, gotFail := outcome(func() value.Value { return arg.get(ts) })
						want, wantFail := outcome(func() value.Value { return rtl.Arith(op, typ, a, b) })
						if got != want || gotFail != wantFail {
							t.Fatalf("%v:%v(%#x, %#x) over %s = %#x %q, want %#x %q", op, typ, a, b, sh.name, got, gotFail, want, wantFail)
						}
					}
				}
			}
		}
	}
}

func TestFuseUnaryAndVariadicIntrinsics(t *testing.T) {
	g := fuseGen(nil)
	for _, typ := range types[:3] {
		for _, a := range words {
			ts := []tuple.Tuple{{a}}
			for op, want := range map[ram.IntrinsicOp]value.Value{
				ram.OpNeg:  rtl.Neg(typ, a),
				ram.OpBNot: rtl.BNot(typ, a),
				ram.OpLNot: rtl.LNot(a),
				ram.OpOrd:  a,
			} {
				if got := g.fuseArg(fn(op, typ, elem(0, 0))).get(ts); got != want {
					t.Errorf("%v:%v(%#x) = %#x, want %#x", op, typ, a, got, want)
				}
			}
			// min/max fold left over every argument, not just the first two.
			for _, b := range words {
				for _, c := range words {
					ts := []tuple.Tuple{{a, b}}
					for _, op := range []ram.IntrinsicOp{ram.OpMin, ram.OpMax} {
						want := rtl.Arith(op, typ, rtl.Arith(op, typ, a, b), c)
						if got := g.fuseArg(fn(op, typ, elem(0, 0), elem(0, 1), konst(c))).get(ts); got != want {
							t.Errorf("%v:%v(%#x, %#x, %#x) = %#x, want %#x", op, typ, a, b, c, got, want)
						}
					}
				}
			}
		}
	}
}

func TestFuseStringIntrinsics(t *testing.T) {
	g := fuseGen(nil)
	st := g.eng.st
	sym := func(s string) value.Value { return st.Intern(s) }
	n := value.FromInt
	ts := []tuple.Tuple{{sym("inter"), sym("preter"), sym("42"), sym("x42"), n(-17)}}
	str := value.Symbol
	tests := []struct {
		e    ram.Expr
		want func() value.Value
	}{
		{fn(ram.OpCat, str, elem(0, 0), elem(0, 1), konst(sym("!"))), func() value.Value { return sym("interpreter!") }},
		{fn(ram.OpStrlen, str, elem(0, 0)), func() value.Value { return rtl.Strlen(st, ts[0][0]) }},
		{fn(ram.OpSubstr, str, elem(0, 1), konst(n(3)), konst(n(2))), func() value.Value { return sym("te") }},
		{fn(ram.OpSubstr, str, elem(0, 1), konst(n(4)), konst(n(99))), func() value.Value { return sym("er") }},
		{fn(ram.OpSubstr, str, elem(0, 1), konst(n(-1)), konst(n(2))), func() value.Value { return sym("") }},
		{fn(ram.OpOrd, str, elem(0, 0)), func() value.Value { return ts[0][0] }},
		{fn(ram.OpToNumber, str, elem(0, 2)), func() value.Value { return n(42) }},
		{fn(ram.OpToNumber, str, elem(0, 3)), func() value.Value { return rtl.ToNumber(st, ts[0][3]) }}, // fails
		{fn(ram.OpToString, str, elem(0, 4)), func() value.Value { return sym("-17") }},
	}
	for _, tc := range tests {
		arg := g.fuseArg(tc.e)
		got, gotFail := outcome(func() value.Value { return arg.get(ts) })
		want, wantFail := outcome(tc.want)
		if got != want || gotFail != wantFail {
			t.Errorf("%s = %d %q, want %d %q", ram.ExprString(tc.e), got, gotFail, want, wantFail)
		}
	}
}

// TestFuseConnectives: And short-circuits left to right (a failing right
// conjunct is never evaluated once the left is false), Not negates, and a
// conjunction nested under a negation keeps both properties.
func TestFuseConnectives(t *testing.T) {
	g := fuseGen(nil)
	num := value.Number
	nonZero := &ram.Constraint{Op: ram.CmpNE, Type: num, L: elem(0, 0), R: konst(0)}
	divides := &ram.Constraint{Op: ram.CmpEQ, Type: num, L: fn(ram.OpMod, num, konst(12), elem(0, 0)), R: konst(0)}
	both := g.fuse(&ram.And{L: nonZero, R: divides})
	neither := g.fuse(&ram.Not{C: &ram.And{L: nonZero, R: divides}})
	unguarded := g.fuse(divides)
	for x, want := range map[value.Value]bool{0: false, 3: true, 5: false, 12: true} {
		ts := []tuple.Tuple{{x}}
		if got := both(ts); got != want {
			t.Errorf("x=%d: guarded divides = %v, want %v", x, got, want)
		}
		if got := neither(ts); got != !want {
			t.Errorf("x=%d: negated = %v, want %v", x, got, !want)
		}
	}
	if _, fail := outcome(func() value.Value { return boolVal(unguarded([]tuple.Tuple{{0}})) }); fail == "" {
		t.Error("12 % 0 evaluated without a runtime error")
	}
}

// TestFuseCoords: under static reordering a bound tuple stays in its index's
// coordinates, and the closure must read the encoded position (§4.2).
func TestFuseCoords(t *testing.T) {
	order := tuple.Order{2, 0, 1}
	g := fuseGen(map[int32]tuple.Order{1: order})
	src := tuple.Tuple{10, 20, 30}
	ts := []tuple.Tuple{{10, 20, 30}, order.Encoded(src)} // t0 identity, t1 encoded
	for e := 0; e < 3; e++ {
		same := g.fuse(&ram.Constraint{Op: ram.CmpEQ, Type: value.Number, L: elem(0, e), R: elem(1, e)})
		if !same(ts) {
			t.Errorf("source element %d of the encoded tuple read from the wrong slot", e)
		}
	}
}

func TestPure(t *testing.T) {
	rel := &ram.Relation{Name: "r", Arity: 1}
	lt := &ram.Constraint{Op: ram.CmpLT, Type: value.Number, L: elem(0, 0), R: konst(5)}
	cases := []struct {
		cond ram.Condition
		want bool
	}{
		{lt, true},
		{&ram.And{L: lt, R: &ram.Not{C: lt}}, true},
		{&ram.EmptinessCheck{Rel: rel}, false},
		{&ram.ExistenceCheck{Rel: rel, Pattern: []ram.Expr{konst(1)}}, false},
		{&ram.And{L: lt, R: &ram.EmptinessCheck{Rel: rel}}, false},
		{&ram.Not{C: &ram.And{L: lt, R: &ram.EmptinessCheck{Rel: rel}}}, false},
	}
	for i, tc := range cases {
		if got := pure(tc.cond); got != tc.want {
			t.Errorf("case %d: pure(%s) = %v, want %v", i, ram.CondString(tc.cond), got, tc.want)
		}
	}
}

// TestFusedEvaluationAllocatesNothing: the DDisasm filter of §5.2, fused,
// runs without touching the heap — the closures hold no scratch state, which
// is also what lets worker contexts share them.
func TestFusedEvaluationAllocatesNothing(t *testing.T) {
	num := value.Number
	a, b := elem(0, 0), elem(1, 0)
	c := func(op ram.CmpOp, l, r ram.Expr) ram.Condition {
		return &ram.Constraint{Op: op, Type: num, L: l, R: r}
	}
	k := func(i int32) ram.Expr { return konst(value.FromInt(i)) }
	diff := fn(ram.OpSub, num, b, a)
	var cond ram.Condition = c(ram.CmpGT, b, a)
	for _, next := range []ram.Condition{
		c(ram.CmpEQ, fn(ram.OpMod, num, diff, k(8)), k(0)),
		c(ram.CmpLT, fn(ram.OpDiv, num, diff, k(8)), k(48)),
		c(ram.CmpEQ, fn(ram.OpBAnd, num, a, k(15)), fn(ram.OpBAnd, num, b, k(15))),
		c(ram.CmpNE, fn(ram.OpMod, num, fn(ram.OpAdd, num, a, b), k(3)), k(1)),
		c(ram.CmpLE, fn(ram.OpMin, num, a, b, k(7)), fn(ram.OpMax, num, a, b)),
	} {
		cond = &ram.And{L: cond, R: next}
	}
	fused := fuseGen(nil).fuse(cond)
	ts := []tuple.Tuple{{16}, {32}}
	if !fused(ts) {
		t.Fatal("(16, 32) should pass the moved_label filter")
	}
	if allocs := testing.AllocsPerRun(200, func() { fused(ts) }); allocs != 0 {
		t.Fatalf("fused evaluation allocates %v objects per run", allocs)
	}
}

// dispatchesPerIteration runs the ramopt-optimized src under cfg with the
// profiler on and returns
// dispatches/iteration of the rule whose label starts with head.
func dispatchesPerIteration(t *testing.T, src string, facts map[string][]tuple.Tuple, cfg Config, head string) (float64, *Engine) {
	t.Helper()
	rp, st := compileSrc(t, src)
	ramopt.Optimize(rp, st, ramopt.Queryable())
	cfg.Profile = true
	eng := New(rp, st, cfg)
	io := NewMemIO()
	for name, ts := range facts {
		for _, tp := range ts {
			io.Add(name, tp)
		}
	}
	if err := eng.Run(io); err != nil {
		t.Fatal(err)
	}
	for _, r := range eng.Profile().Rules {
		if len(r.Label) >= len(head) && r.Label[:len(head)] == head && r.Iterations > 0 {
			return float64(r.Dispatches) / float64(r.Iterations), eng
		}
	}
	t.Fatalf("no profiled rule for %q", head)
	return 0, nil
}

// TestFusionGeneralizesPastFilters: the constraint half of a mixed
// constraints ∧ exists condition (ramopt merges the filter chain into one
// conjunction), the condition of a choice, and the condition of an aggregate
// all fuse, with results unchanged.
func TestFusionGeneralizesPastFilters(t *testing.T) {
	src := `
.decl a(x:number)
.decl b(x:number)
.decl mixed(x:number)
.decl hasBig()
.decl bigSum(s:number)
.input a
.input b
mixed(x) :- a(x), x > 3, x < 900, x % 7 != 1, b(x), (x band 1) = 0.
hasBig() :- a(x), x > 500, x % 2 = 0.
bigSum(s) :- s = sum x : { a(x), x > 100, x % 3 = 0 }.
`
	facts := map[string][]tuple.Tuple{}
	for i := 0; i < 1000; i++ {
		facts["a"] = append(facts["a"], tuple.Tuple{value.Value(i)})
		if i%2 == 0 {
			facts["b"] = append(facts["b"], tuple.Tuple{value.Value(i)})
		}
	}
	unfused := DefaultConfig()
	unfused.FusedFilters = false
	for _, head := range []string{"mixed(", "hasBig(", "bigSum("} {
		on, engOn := dispatchesPerIteration(t, src, facts, DefaultConfig(), head)
		off, engOff := dispatchesPerIteration(t, src, facts, unfused, head)
		// mixed: filter, and, fused, exists, insert per scanned tuple at most;
		// unfused it pays one dispatch per constraint, operator and leaf.
		// Choice and aggregate evaluate one fused node per candidate.
		if limit := map[string]float64{"mixed(": 5, "hasBig(": 2, "bigSum(": 2}[head]; on > limit || off <= limit {
			t.Errorf("%s dispatches/iteration: fused %.2f, unfused %.2f; want fused <= %v < unfused", head, on, off, limit)
		}
		for _, rel := range []string{"mixed", "hasBig", "bigSum"} {
			if a, b := fmt.Sprint(tuplesOf(t, engOn, rel)), fmt.Sprint(tuplesOf(t, engOff, rel)); a != b {
				t.Errorf("%s differs: fused %s, unfused %s", rel, a, b)
			}
		}
	}
}
