package codegen

import (
	"fmt"
	"strings"

	"sti/internal/ram"
	"sti/internal/tuple"
	"sti/internal/value"
)

// tupleVar tracks the Go variable holding each bound tuple. The emitter
// maintains it alongside coords (the storage order of that binding, for
// static reordering of element accesses).
var _ = fmt.Sprintf

func (e *emitter) tupVar(tid int) string { return fmt.Sprintf("t%d", tid) }

// --- statements ---

func (e *emitter) stmt(s ram.Statement) {
	switch s := s.(type) {
	case *ram.Sequence:
		for _, st := range s.Stmts {
			e.stmt(st)
		}
	case *ram.Loop:
		e.loopID++
		id := e.loopID
		e.pf("loop%d:", id)
		e.pf("for {")
		e.depth++
		prev := e.curLoop
		e.curLoop = id
		e.stmt(s.Body)
		e.curLoop = prev
		e.depth--
		e.pf("}")
	case *ram.Exit:
		e.pf("if %s {", e.cond(s.Cond))
		e.pf("\tbreak loop%d", e.curLoop)
		e.pf("}")
	case *ram.Query:
		e.coords = map[int]tuple.Order{}
		e.vars = map[int]string{}
		e.pf("{ // %s", strings.ReplaceAll(s.Label, "\n", " "))
		e.depth++
		e.op(s.Root)
		e.depth--
		e.pf("}")
	case *ram.Clear:
		e.pf("%s.Clear()", wrapName(s.Rel))
	case *ram.Swap:
		e.pf("%s.SwapContents(%s)", wrapName(s.A), wrapName(s.B))
	case *ram.Merge:
		e.tmpID++
		it := fmt.Sprintf("mit%d", e.tmpID)
		e.pf("for %s := %s.Scan(); ; {", it, wrapName(s.Src))
		e.pf("\tt, ok := %s.Next()", it)
		e.pf("\tif !ok {")
		e.pf("\t\tbreak")
		e.pf("\t}")
		e.pf("\t%s.Insert(t)", wrapName(s.Dst))
		e.pf("}")
	case *ram.IO:
		switch s.Kind {
		case ram.IOLoad:
			e.pf("if err := io.Load(%s, func(t tuple.Tuple) error { %s.Insert(t); return nil }); err != nil {",
				declName(s.Rel), wrapName(s.Rel))
			e.pf("\trtl.Fail(\"loading %s: %%v\", err)", s.Rel.Name)
			e.pf("}")
		case ram.IOStore:
			e.pf("if err := io.Store(%s, %s.Scan()); err != nil {", declName(s.Rel), wrapName(s.Rel))
			e.pf("\trtl.Fail(\"storing %s: %%v\", err)", s.Rel.Name)
			e.pf("}")
		default:
			e.pf("if err := io.PrintSize(%s, %s.Size()); err != nil {", declName(s.Rel), wrapName(s.Rel))
			e.pf("\trtl.Fail(\"printsize %s: %%v\", err)", s.Rel.Name)
			e.pf("}")
		}
	default:
		panic(fmt.Sprintf("codegen: unknown RAM statement %T", s))
	}
}

// --- operations ---

func (e *emitter) op(o ram.Operation) {
	switch o := o.(type) {
	case *ram.Scan:
		e.scan(o.Rel, o.IndexID, o.Pattern, o.Bound, o.TupleID, o.Nested, false, nil)
	case *ram.Choice:
		e.scan(o.Rel, o.IndexID, o.Pattern, o.Bound, o.TupleID, o.Nested, true, o.Cond)
	case *ram.Filter:
		e.pf("if %s {", e.cond(o.Cond))
		e.depth++
		e.op(o.Nested)
		e.depth--
		e.pf("}")
	case *ram.Project:
		e.project(o)
	case *ram.Aggregate:
		e.aggregate(o)
	default:
		panic(fmt.Sprintf("codegen: unknown RAM operation %T", o))
	}
}

// scan emits a (possibly index-restricted, possibly choice) scan loop.
// indexID -1, an unkeyed search, reads the primary index. A range bound narrows
// B-tree scans only; brie and eqrel ignore it (its filter stays).
func (e *emitter) scan(r *ram.Relation, indexID int, pattern []ram.Expr, bound *ram.Bound, tid int, nested ram.Operation, choice bool, choiceCond ram.Condition) {
	orders := r.Orders
	if len(orders) == 0 {
		orders = []tuple.Order{tuple.Identity(r.Arity)}
	}
	idx := 0
	if indexID >= 0 {
		idx = indexID
	}
	order := orders[idx]
	tv := e.tupVar(tid)
	e.tmpID++
	it := fmt.Sprintf("it%d", e.tmpID)

	// Pattern expressions at encoded positions.
	var pats []string
	if pattern != nil {
		for i := 0; i < len(order); i++ {
			src := pattern[order[i]]
			if src == nil {
				break
			}
			pats = append(pats, e.expr(src))
		}
	}

	if r.Arity == 0 {
		// Nullary: run the body once if the relation holds its tuple.
		e.pf("if %s.Size() > 0 {", wrapName(r))
		e.depth++
		e.op(nested)
		e.depth--
		e.pf("}")
		return
	}

	switch r.Rep {
	case ram.RepEqRel:
		switch len(pats) {
		case 2:
			e.pf("if %s.Contains(%s, %s) {", storeName(r, 0), pats[0], pats[1])
			e.depth++
			e.pf("%s := [2]value.Value{%s, %s}", tv, pats[0], pats[1])
			// At most one match exists, so the choice short-circuit (and
			// its loop break) is unnecessary; keep only the condition.
			e.vars[tid] = tv
			if choiceCond != nil {
				e.pf("if %s {", e.cond(choiceCond))
				e.depth++
				e.op(nested)
				e.depth--
				e.pf("}")
			} else {
				e.op(nested)
			}
			delete(e.vars, tid)
			e.depth--
			e.pf("}")
			return
		case 1:
			e.pf("%s := %s.PrefixFirst(%s)", it, storeName(r, 0), pats[0])
		default:
			e.pf("%s := %s.Iter()", it, storeName(r, 0))
		}
		e.sliceLoop(it, tv, tid, tuple.Identity(2), nested, choice, choiceCond)
	case ram.RepBrie:
		if len(pats) > 0 {
			e.pf("%s := %s.Prefix([]value.Value{%s})", it, storeName(r, idx), strings.Join(pats, ", "))
		} else {
			e.pf("%s := %s.Iter()", it, storeName(r, idx))
		}
		e.sliceLoop(it, tv, tid, order, nested, choice, choiceCond)
	default: // btree
		if len(pats) > 0 || bound != nil {
			loParts := make([]string, r.Arity)
			hiParts := make([]string, r.Arity)
			for i := range loParts {
				if i < len(pats) {
					e.tmpID++
					pv := fmt.Sprintf("p%d", e.tmpID)
					e.pf("%s := %s", pv, pats[i])
					loParts[i] = pv
					hiParts[i] = pv
				} else {
					loParts[i] = "0"
					hiParts[i] = "0xffffffff"
				}
			}
			if bound != nil {
				// The bound's storage interval, once per scan start; an
				// empty one skips the scan.
				e.tmpID++
				bl, bh, ok := fmt.Sprintf("bl%d", e.tmpID), fmt.Sprintf("bh%d", e.tmpID), fmt.Sprintf("bok%d", e.tmpID)
				e.pf("%s, %s, %s := %s.Keys()", bl, bh, ok, e.boundLiteral(bound))
				e.pf("if %s {", ok)
				e.depth++
				defer func() {
					e.depth--
					e.pf("}")
				}()
				loParts[len(pats)], hiParts[len(pats)] = bl, bh
			}
			e.pf("%s := %s.Range(relation.Tup%d{%s}, relation.Tup%d{%s})",
				it, storeName(r, idx), r.Arity, strings.Join(loParts, ", "), r.Arity, strings.Join(hiParts, ", "))
		} else {
			e.pf("%s := %s.Iter()", it, storeName(r, idx))
		}
		e.pf("for {")
		e.depth++
		e.pf("%s, ok := %s.Next()", tv, it)
		e.pf("if !ok {")
		e.pf("\tbreak")
		e.pf("}")
		e.pf("_ = %s", tv)
		e.bindAndNest(tid, tv, order, nested, choice, choiceCond)
		e.depth--
		e.pf("}")
	}
}

// boundLiteral renders a range bound as a relation.Bound literal over the
// limits' expressions.
func (e *emitter) boundLiteral(b *ram.Bound) string {
	parts := []string{"Type: " + typeNames[b.Type]}
	if b.Lo != nil {
		parts = append(parts, "Lo: "+e.expr(b.Lo), "HasLo: true")
		if b.LoStrict {
			parts = append(parts, "LoStrict: true")
		}
	}
	if b.Hi != nil {
		parts = append(parts, "Hi: "+e.expr(b.Hi), "HasHi: true")
		if b.HiStrict {
			parts = append(parts, "HiStrict: true")
		}
	}
	return "relation.Bound{" + strings.Join(parts, ", ") + "}"
}

// sliceLoop iterates a slice-yielding iterator (eqrel/brie).
func (e *emitter) sliceLoop(it, tv string, tid int, order tuple.Order, nested ram.Operation, choice bool, choiceCond ram.Condition) {
	e.pf("for {")
	e.depth++
	e.pf("%s, ok := %s.Next()", tv, it)
	e.pf("if !ok {")
	e.pf("\tbreak")
	e.pf("}")
	e.pf("_ = %s", tv)
	e.bindAndNest(tid, tv, order, nested, choice, choiceCond)
	e.depth--
	e.pf("}")
}

// bindAndNest binds the tuple variable for tid, emits the nested operation
// (with choice short-circuit if requested), and unbinds.
func (e *emitter) bindAndNest(tid int, tv string, order tuple.Order, nested ram.Operation, choice bool, choiceCond ram.Condition) {
	e.vars[tid] = tv
	if !order.IsIdentity() {
		e.coords[tid] = order
	}
	switch {
	case choice && choiceCond == nil:
		e.op(nested)
		e.pf("break")
	case choiceCond != nil:
		e.pf("if %s {", e.cond(choiceCond))
		e.depth++
		e.op(nested)
		e.pf("break")
		e.depth--
		e.pf("}")
	default:
		e.op(nested)
	}
	delete(e.vars, tid)
	delete(e.coords, tid)
}

// project emits the tuple build plus one fully-unrolled encoded insert per
// index (the synthesizer never reorders at runtime).
func (e *emitter) project(o *ram.Project) {
	r := o.Rel
	if r.Arity == 0 {
		e.pf("%s.Insert(tuple.Tuple{})", wrapName(r))
		return
	}
	vals := make([]string, len(o.Exprs))
	e.pf("{")
	e.depth++
	for i, expr := range o.Exprs {
		e.tmpID++
		v := fmt.Sprintf("v%d", e.tmpID)
		e.pf("%s := %s", v, e.expr(expr))
		vals[i] = v
	}
	orders := r.Orders
	if len(orders) == 0 {
		orders = []tuple.Order{tuple.Identity(r.Arity)}
	}
	if r.Rep == ram.RepEqRel {
		e.pf("%s.Insert(%s, %s)", storeName(r, 0), vals[0], vals[1])
		e.depth--
		e.pf("}")
		return
	}
	// Every index holds the same tuples: a duplicate in the first is one in
	// all of them, so the others are inserted into only when it was new.
	for j, ord := range orders {
		enc := make([]string, len(ord))
		for i, p := range ord {
			enc[i] = vals[p]
		}
		key := fmt.Sprintf("relation.Tup%d{%s}", r.Arity, strings.Join(enc, ", "))
		if r.Rep == ram.RepBrie {
			key = fmt.Sprintf("[]value.Value{%s}", strings.Join(enc, ", "))
		}
		if j == 0 && len(orders) > 1 {
			e.pf("if %s.Insert(%s) {", storeName(r, j), key)
			e.depth++
			continue
		}
		e.pf("%s.Insert(%s)", storeName(r, j), key)
	}
	if len(orders) > 1 {
		e.depth--
		e.pf("}")
	}
	e.depth--
	e.pf("}")
}

func (e *emitter) aggregate(o *ram.Aggregate) {
	r := o.Rel
	orders := r.Orders
	if len(orders) == 0 {
		orders = []tuple.Order{tuple.Identity(r.Arity)}
	}
	idx := 0
	if o.IndexID >= 0 {
		idx = o.IndexID
	}
	order := orders[idx]
	tv := e.tupVar(o.TupleID)
	e.tmpID++
	it := fmt.Sprintf("it%d", e.tmpID)
	e.tmpID++
	acc := fmt.Sprintf("acc%d", e.tmpID)

	var pats []string
	if o.Pattern != nil {
		for i := 0; i < len(order); i++ {
			src := o.Pattern[order[i]]
			if src == nil {
				break
			}
			pats = append(pats, e.expr(src))
		}
	}

	e.pf("{")
	e.depth++
	e.pf("var %s rtl.AggAcc", acc)
	e.pf("%s.Init(ram.AggKind(%d), value.Type(%d))", acc, o.Kind, o.Type)

	sliceIter := false
	switch r.Rep {
	case ram.RepEqRel:
		sliceIter = true
		if len(pats) == 1 {
			e.pf("%s := %s.PrefixFirst(%s)", it, storeName(r, 0), pats[0])
		} else {
			e.pf("%s := %s.Iter()", it, storeName(r, 0))
		}
	case ram.RepBrie:
		sliceIter = true
		if len(pats) > 0 {
			e.pf("%s := %s.Prefix([]value.Value{%s})", it, storeName(r, idx), strings.Join(pats, ", "))
		} else {
			e.pf("%s := %s.Iter()", it, storeName(r, idx))
		}
	default:
		if len(pats) > 0 {
			lo := make([]string, r.Arity)
			hi := make([]string, r.Arity)
			for i := range lo {
				if i < len(pats) {
					e.tmpID++
					pv := fmt.Sprintf("p%d", e.tmpID)
					e.pf("%s := %s", pv, pats[i])
					lo[i] = pv
					hi[i] = pv
				} else {
					lo[i] = "0"
					hi[i] = "0xffffffff"
				}
			}
			e.pf("%s := %s.Range(relation.Tup%d{%s}, relation.Tup%d{%s})",
				it, storeName(r, idx), r.Arity, strings.Join(lo, ", "), r.Arity, strings.Join(hi, ", "))
		} else {
			e.pf("%s := %s.Iter()", it, storeName(r, idx))
		}
	}
	_ = sliceIter

	e.pf("for {")
	e.depth++
	e.pf("%s, ok := %s.Next()", tv, it)
	e.pf("if !ok {")
	e.pf("\tbreak")
	e.pf("}")
	e.pf("_ = %s", tv)
	e.vars[o.TupleID] = tv
	if !order.IsIdentity() {
		e.coords[o.TupleID] = order
	}
	if o.Cond != nil {
		e.pf("if !(%s) {", e.cond(o.Cond))
		e.pf("\tcontinue")
		e.pf("}")
	}
	if o.Target != nil {
		e.pf("%s.Step(%s)", acc, e.expr(o.Target))
	} else {
		e.pf("%s.Step(0)", acc)
	}
	delete(e.vars, o.TupleID)
	delete(e.coords, o.TupleID)
	e.depth--
	e.pf("}")

	resVar := tv + "r"
	e.pf("if res, ok := %s.Finish(); ok {", acc)
	e.depth++
	e.pf("%s := [1]value.Value{res}", resVar)
	e.vars[o.TupleID] = resVar
	e.op(o.Nested)
	delete(e.vars, o.TupleID)
	e.depth--
	e.pf("}")
	e.depth--
	e.pf("}")
}

// --- conditions ---

func (e *emitter) cond(c ram.Condition) string {
	switch c := c.(type) {
	case *ram.And:
		return "(" + e.cond(c.L) + ") && (" + e.cond(c.R) + ")"
	case *ram.Not:
		return "!(" + e.cond(c.C) + ")"
	case *ram.EmptinessCheck:
		return fmt.Sprintf("%s.Size() == 0", wrapName(c.Rel))
	case *ram.ExistenceCheck:
		return e.existence(c)
	case *ram.Constraint:
		return e.constraint(c)
	default:
		panic(fmt.Sprintf("codegen: unknown RAM condition %T", c))
	}
}

func (e *emitter) existence(c *ram.ExistenceCheck) string {
	r := c.Rel
	orders := r.Orders
	if len(orders) == 0 {
		orders = []tuple.Order{tuple.Identity(r.Arity)}
	}
	idx := c.IndexID
	if idx < 0 {
		idx = 0
	}
	order := orders[idx]
	var pats []string
	for i := 0; i < len(order); i++ {
		src := c.Pattern[order[i]]
		if src == nil {
			break
		}
		pats = append(pats, e.expr(src))
	}
	if r.Arity == 0 {
		return fmt.Sprintf("%s.Size() > 0", wrapName(r))
	}
	switch r.Rep {
	case ram.RepEqRel:
		switch len(pats) {
		case 0:
			return fmt.Sprintf("%s.Size() > 0", storeName(r, 0))
		case 1:
			return fmt.Sprintf("%s.Class(%s) != nil", storeName(r, 0), pats[0])
		default:
			return fmt.Sprintf("%s.Contains(%s, %s)", storeName(r, 0), pats[0], pats[1])
		}
	case ram.RepBrie:
		if len(pats) == r.Arity {
			return fmt.Sprintf("%s.Contains([]value.Value{%s})", storeName(r, idx), strings.Join(pats, ", "))
		}
		return fmt.Sprintf("%s.HasPrefix([]value.Value{%s})", storeName(r, idx), strings.Join(pats, ", "))
	default:
		switch {
		case len(pats) == r.Arity:
			return fmt.Sprintf("%s.Contains(relation.Tup%d{%s})", storeName(r, idx), r.Arity, strings.Join(pats, ", "))
		case len(pats) == 0:
			return fmt.Sprintf("%s.Size() > 0", storeName(r, idx))
		default:
			lo := make([]string, r.Arity)
			hi := make([]string, r.Arity)
			for i := range lo {
				if i < len(pats) {
					lo[i] = pats[i]
					hi[i] = pats[i]
				} else {
					lo[i] = "0"
					hi[i] = "0xffffffff"
				}
			}
			return fmt.Sprintf("func() bool { it := %s.Range(relation.Tup%d{%s}, relation.Tup%d{%s}); _, ok := it.Next(); return ok }()",
				storeName(r, idx), r.Arity, strings.Join(lo, ", "), r.Arity, strings.Join(hi, ", "))
		}
	}
}

func (e *emitter) constraint(c *ram.Constraint) string {
	l, r := e.expr(c.L), e.expr(c.R)
	switch c.Op {
	case ram.CmpEQ:
		return fmt.Sprintf("(%s) == (%s)", l, r)
	case ram.CmpNE:
		return fmt.Sprintf("(%s) != (%s)", l, r)
	}
	op := map[ram.CmpOp]string{ram.CmpLT: "<", ram.CmpLE: "<=", ram.CmpGT: ">", ram.CmpGE: ">="}[c.Op]
	switch c.Type {
	case value.Number:
		return fmt.Sprintf("value.AsInt(%s) %s value.AsInt(%s)", l, op, r)
	case value.Float:
		return fmt.Sprintf("value.AsFloat(%s) %s value.AsFloat(%s)", l, op, r)
	default:
		return fmt.Sprintf("(%s) %s (%s)", l, op, r)
	}
}

// --- expressions ---

var opNames = map[ram.IntrinsicOp]string{
	ram.OpAdd: "ram.OpAdd", ram.OpSub: "ram.OpSub", ram.OpMul: "ram.OpMul",
	ram.OpDiv: "ram.OpDiv", ram.OpMod: "ram.OpMod", ram.OpPow: "ram.OpPow",
	ram.OpBAnd: "ram.OpBAnd", ram.OpBOr: "ram.OpBOr", ram.OpBXor: "ram.OpBXor",
	ram.OpBShl: "ram.OpBShl", ram.OpBShr: "ram.OpBShr",
	ram.OpLAnd: "ram.OpLAnd", ram.OpLOr: "ram.OpLOr",
	ram.OpMin: "ram.OpMin", ram.OpMax: "ram.OpMax",
}

var typeNames = map[value.Type]string{
	value.Number: "value.Number", value.Unsigned: "value.Unsigned",
	value.Float: "value.Float", value.Symbol: "value.Symbol",
}

func (e *emitter) expr(x ram.Expr) string {
	switch x := x.(type) {
	case *ram.Constant:
		return fmt.Sprintf("value.Value(0x%x)", x.Val)
	case *ram.TupleElement:
		elem := x.Elem
		if order := e.coords[x.TupleID]; order != nil {
			elem = order.Inverse()[elem]
		}
		v, ok := e.vars[x.TupleID]
		if !ok {
			panic(fmt.Sprintf("codegen: tuple %d referenced but not bound", x.TupleID))
		}
		return fmt.Sprintf("%s[%d]", v, elem)
	case *ram.Intrinsic:
		return e.intrinsic(x)
	default:
		panic(fmt.Sprintf("codegen: unknown RAM expression %T", x))
	}
}

func (e *emitter) intrinsic(x *ram.Intrinsic) string {
	args := make([]string, len(x.Args))
	for i, a := range x.Args {
		args[i] = e.expr(a)
	}
	// Fully inlined signed arithmetic for the safe operators; the shared
	// runtime handles everything with failure cases or string semantics.
	if x.Type == value.Number {
		bin := map[ram.IntrinsicOp]string{
			ram.OpAdd: "+", ram.OpSub: "-", ram.OpMul: "*",
			ram.OpBAnd: "&", ram.OpBOr: "|", ram.OpBXor: "^",
		}
		if op, ok := bin[x.Op]; ok {
			return fmt.Sprintf("value.FromInt(value.AsInt(%s) %s value.AsInt(%s))", args[0], op, args[1])
		}
	}
	if x.Type == value.Unsigned {
		bin := map[ram.IntrinsicOp]string{
			ram.OpAdd: "+", ram.OpSub: "-", ram.OpMul: "*",
			ram.OpBAnd: "&", ram.OpBOr: "|", ram.OpBXor: "^",
		}
		if op, ok := bin[x.Op]; ok {
			return fmt.Sprintf("(%s) %s (%s)", args[0], op, args[1])
		}
	}
	switch x.Op {
	case ram.OpNeg:
		return fmt.Sprintf("rtl.Neg(%s, %s)", typeNames[x.Type], args[0])
	case ram.OpBNot:
		return fmt.Sprintf("rtl.BNot(%s, %s)", typeNames[x.Type], args[0])
	case ram.OpLNot:
		return fmt.Sprintf("rtl.LNot(%s)", args[0])
	case ram.OpCat:
		return fmt.Sprintf("rtl.Cat(st, %s)", strings.Join(args, ", "))
	case ram.OpStrlen:
		return fmt.Sprintf("rtl.Strlen(st, %s)", args[0])
	case ram.OpSubstr:
		return fmt.Sprintf("rtl.Substr(st, %s, %s, %s)", args[0], args[1], args[2])
	case ram.OpOrd:
		return args[0]
	case ram.OpToNumber:
		return fmt.Sprintf("rtl.ToNumber(st, %s)", args[0])
	case ram.OpToString:
		return fmt.Sprintf("rtl.ToString(st, %s)", args[0])
	case ram.OpMin, ram.OpMax:
		out := args[0]
		for _, a := range args[1:] {
			out = fmt.Sprintf("rtl.Arith(%s, %s, %s, %s)", opNames[x.Op], typeNames[x.Type], out, a)
		}
		return out
	default:
		return fmt.Sprintf("rtl.Arith(%s, %s, %s, %s)", opNames[x.Op], typeNames[x.Type], args[0], args[1])
	}
}
