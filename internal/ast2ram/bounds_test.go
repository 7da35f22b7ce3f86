package ast2ram

import (
	"math"
	"math/rand"
	"testing"

	"sti/internal/ram"
	"sti/internal/rtl"
	"sti/internal/value"
)

// evalBoundExpr evaluates an expression over tuple 0 (the outer side, e) and
// tuple 1 (the scanned column, x), as every engine does through rtl.
func evalBoundExpr(t *testing.T, e ram.Expr, outer, x int32) int32 {
	switch e := e.(type) {
	case *ram.Constant:
		return value.AsInt(e.Val)
	case *ram.TupleElement:
		if e.TupleID == 0 {
			return outer
		}
		return x
	case *ram.Intrinsic:
		return value.AsInt(rtl.Arith(e.Op, e.Type, value.FromInt(evalBoundExpr(t, e.Args[0], outer, x)), value.FromInt(evalBoundExpr(t, e.Args[1], outer, x))))
	}
	t.Fatalf("unexpected expression %s", ram.ExprString(e))
	return 0
}

// TestIsolateOnlyWidens: for `(x - e) / k op c`, `(e - x) / k op c` and the
// undivided differences, each comparison and either operand order, the limit
// isolate derives holds for every column value the int32 filter accepts,
// including the values whose difference wraps; and on the sign of e where the
// difference cannot wrap it is exact, admitting no value the filter rejects.
func TestIsolateOnlyWidens(t *testing.T) {
	edges := []int32{math.MinInt32, math.MinInt32 + 1, math.MinInt32 + 383, -385, -384, -383, -9, -8, -7, -1, 0, 1, 7, 8, 9, 383, 384, 385, math.MaxInt32 - 383, math.MaxInt32 - 1, math.MaxInt32}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		edges = append(edges, int32(rng.Uint32()), int32(rng.Intn(1000)-500))
	}
	num := func(v int32) ram.Expr { return &ram.Constant{Val: value.FromInt(v)} }
	x, e := &ram.TupleElement{TupleID: 1}, &ram.TupleElement{TupleID: 0}
	outer := map[int]bool{0: true}
	isolated := 0
	for _, k := range []int32{1, 2, 8, 1000} {
		for _, c := range []int32{math.MinInt32, -48, -1, 0, 1, 48, math.MaxInt32} {
			for _, xFirst := range []bool{true, false} {
				d := ram.Expr(&ram.Intrinsic{Op: ram.OpSub, Type: value.Number, Args: []ram.Expr{x, e}})
				if !xFirst {
					d = &ram.Intrinsic{Op: ram.OpSub, Type: value.Number, Args: []ram.Expr{e, x}}
				}
				if k != 1 {
					d = &ram.Intrinsic{Op: ram.OpDiv, Type: value.Number, Args: []ram.Expr{d, num(k)}}
				}
				for op := range mirror {
					_, lim, limOp, ok := isolate(d, num(c), op, 1, outer)
					if !ok {
						continue
					}
					isolated++
					for _, ev := range edges {
						l := evalBoundExpr(t, lim, ev, 0)
						exact := limOp == ram.CmpLE && ev >= 0 || limOp == ram.CmpGE && ev < 0
						for _, xv := range edges {
							filter := rtl.Compare(op, value.Number, value.FromInt(evalBoundExpr(t, d, ev, xv)), value.FromInt(c))
							bound := rtl.Compare(limOp, value.Number, value.FromInt(xv), value.FromInt(l))
							if filter && !bound || exact && bound && !filter && !wraps(xFirst, xv, ev) {
								t.Fatalf("%s %s %d with e=%d, x=%d: filter %v, limit x %s %s = %d gives %v",
									ram.ExprString(d), op, c, ev, xv, filter, limOp, ram.ExprString(lim), l, bound)
							}
						}
					}
				}
			}
		}
	}
	if isolated < 150 {
		t.Fatalf("only %d constraints isolated", isolated)
	}
}

// wraps reports whether the int32 difference x - e (or e - x) overflows.
func wraps(xFirst bool, x, e int32) bool {
	d := int64(x) - int64(e)
	if !xFirst {
		d = -d
	}
	return d < math.MinInt32 || d > math.MaxInt32
}
