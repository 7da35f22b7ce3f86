package interp

import (
	"fmt"

	"sti/internal/metrics"
	"sti/internal/ram"
	"sti/internal/relation"
	"sti/internal/tuple"
)

// generator builds the interpreter tree (INodes) from a RAM program,
// applying the configuration's static optimizations: specialized opcode
// assignment (§4.1), static tuple reordering (§4.2), and super-instruction
// construction (§4.4). This is the "extra code generation of the
// Interpreter Tree" whose cost the paper includes in interpreter runtimes.
type generator struct {
	eng *Engine
	cfg Config

	// coords maps a bound tupleID to the index order its tuples are stored
	// in when static reordering leaves them encoded; nil means source
	// coordinates.
	coords     map[int32]tuple.Order
	widths     map[int32]int32
	prems      map[int32]int32 // tid -> base relation ID (provenance)
	premExists []*inode        // positive full-bound existence checks (provenance)
	negDepth   int
	// pendingParallel marks that the current query's outermost loop is still
	// to be generated; when it is an unkeyed scan, workers partition it.
	pendingParallel bool
	// inParallel is true while generating the subtree nested under a
	// partitioned scan: inserts there run on worker goroutines and must
	// stage into worker-local buffers instead of mutating relations.
	inParallel bool
	// sawParallel records that the current query generated a partitioned
	// scan, so the query node must allocate and merge staging buffers.
	sawParallel bool
	// inQuery is set while a query is generated; fingers collects the arity
	// of each of its finger slots (bindFinger).
	inQuery bool
	fingers []int32
	// err is the first refusal: a statement needing a capability its target
	// relation lacks. Engine.execTree reports it instead of running anything.
	err error
}

func (g *generator) relation(r *ram.Relation) *relation.Relation {
	return g.eng.rels[r.ID]
}

func (g *generator) genStatement(s ram.Statement) *inode {
	switch s := s.(type) {
	case *ram.Sequence:
		n := &inode{op: opSequence, shadow: s}
		for _, st := range s.Stmts {
			n.children = append(n.children, g.genStatement(st))
		}
		return n
	case *ram.Loop:
		return &inode{op: opLoop, label: s.Label, nested: g.genStatement(s.Body), shadow: s}
	case *ram.Exit:
		n := &inode{op: opExit, cond: g.genCond(s.Cond), shadow: s}
		g.collectSamples(n, n.cond)
		return n
	case *ram.Query:
		g.coords = map[int32]tuple.Order{}
		g.widths = map[int32]int32{}
		g.prems = map[int32]int32{}
		g.premExists = nil
		g.pendingParallel = g.cfg.Workers > 1 && s.Parallel
		g.sawParallel = false
		g.inQuery, g.fingers = true, nil
		root := g.genOperation(s.Root)
		g.inQuery = false
		g.pendingParallel = false
		widths := make([]int32, s.NumTuples)
		for tid, w := range g.widths {
			widths[tid] = w
		}
		premRels := make([]int32, s.NumTuples)
		for i := range premRels {
			premRels[i] = -1
		}
		for tid, rel := range g.prems {
			premRels[tid] = rel
		}
		return &inode{
			op: opQuery, nested: root, widths: widths, fingers: g.fingers, premRels: premRels,
			premExists: g.premExists, staged: g.sawParallel,
			ruleID: int32(s.RuleID), label: s.Label, shadow: s,
		}
	case *ram.Clear:
		return &inode{op: opClear, rel: g.relation(s.Rel), shadow: s}
	case *ram.Swap:
		return &inode{op: opSwap, rel: g.relation(s.A), rel2: g.relation(s.B), shadow: s}
	case *ram.Merge:
		return &inode{op: opMerge, rel: g.relation(s.Dst), rel2: g.relation(s.Src), shadow: s}
	case *ram.Subtract:
		dst := g.relation(s.Dst)
		if !dst.Deletable() && g.err == nil {
			g.err = fmt.Errorf("interp: SUBTRACT %s FROM %s: %v relations cannot delete tuples", s.Src.Name, dst.Name, dst.Rep())
		}
		return &inode{op: opSubtract, rel: dst, rel2: g.relation(s.Src), shadow: s}
	case *ram.IO:
		return &inode{op: opIO, rel: g.relation(s.Rel), a: int32(s.Kind), shadow: s}
	default:
		panic(fmt.Sprintf("interp: unknown RAM statement %T", s))
	}
}

// scanOpcode picks the (possibly specialized) opcode for an instruction over
// rel. Sharding does not enter: a specialized body works over the store slice
// bindSearch (or the Project case) hands it, one store or many.
func (g *generator) scanOpcode(generic opcode, rel *relation.Relation) opcode {
	if !g.cfg.StaticDispatch {
		return generic
	}
	switch rel.Rep() {
	case relation.BTree:
		if sp, ok := specializedOp(generic, rel.Arity()); ok {
			return sp
		}
	case relation.EqRel:
		switch generic {
		case opInsert:
			return opInsertEq
		case opScan:
			return opScanEq
		case opExists:
			return opExistsEq
		}
	case relation.Brie:
		switch generic {
		case opInsert:
			return opInsertBrie
		case opScan:
			return opScanBrie
		case opExists:
			return opExistsBrie
		}
	}
	return generic
}

// orderedOpcode is scanOpcode for the order-sensitive instructions (choice
// picks the first match, aggregates fold floats in enumeration order). It
// holds the one sharding exception of instruction selection: shard-by-shard
// enumeration is not sorted, so under sharding these stay on the dynamic
// adapter, whose k-way merge is.
func (g *generator) orderedOpcode(generic opcode, rel *relation.Relation) opcode {
	if rel.Sharded() {
		return generic
	}
	return g.scanOpcode(generic, rel)
}

// bindSearch binds the concrete stores a search node (n.prefix already set)
// visits, and makes it route by partition hash exactly when more than one
// shard exists and the bound prefix covers the partition key.
func (g *generator) bindSearch(n *inode, idx relation.Index) {
	var keyEnc int
	n.impls, keyEnc = relation.Impls(idx)
	n.shards = 1
	if len(n.impls) > 1 && keyEnc < int(n.prefix) {
		n.shards, n.shardKey = int32(len(n.impls)), int32(keyEnc)
	}
}

// bindFinger gives a full-key existence check n on a B-tree relation its
// finger slot in the query context: the specialized form always, the
// dynamic form when its index can start from one (relation.HintedContains;
// not under telemetry's counting wrapper, nor on a sharded index). A check
// outside a query (an Exit condition) has no context of its own and starts
// from the root.
func (g *generator) bindFinger(n *inode, rel *relation.Relation, idx relation.Index) {
	n.hint = -1
	if !g.inQuery || n.prefix != n.arity || rel.Rep() != relation.BTree {
		return
	}
	if n.op == opExists {
		if n.hinted = relation.HintedContains(idx); n.hinted == nil {
			return
		}
	}
	n.hint = int32(len(g.fingers))
	g.fingers = append(g.fingers, n.arity)
}

func (g *generator) genOperation(o ram.Operation) *inode {
	switch o := o.(type) {
	case *ram.Scan:
		rel := g.relation(o.Rel)
		idx := rel.SearchIndex(o.IndexID)
		n := &inode{
			op:      g.scanOpcode(opScan, rel),
			rel:     rel,
			idx:     idx,
			order:   idx.Order(),
			arity:   int32(rel.Arity()),
			tupleID: int32(o.TupleID),
			shadow:  o,
		}
		n.children, n.prefix = g.genPattern(o.Pattern, idx.Order())
		n.bound = g.genBound(o.Bound, idx.Order(), n.prefix)
		g.bindSearch(n, idx)
		g.applySuper(n)
		g.widths[n.tupleID] = n.arity
		g.prems[n.tupleID] = int32(o.Rel.BaseID)
		g.bindCoords(n.tupleID, idx.Order(), n)
		// The query's outermost scan, when unkeyed, is partitioned across
		// workers; it runs through the dynamic adapter (whose iterators
		// partition), while everything nested stays specialized. Any other
		// loop kind ends the search.
		par := g.pendingParallel && o.IndexID < 0 && rel.Arity() > 0
		g.pendingParallel = false
		if par {
			n.op, n.par = opScan, true
			n.part = relation.PartitionerOf(idx)
			// Everything nested runs on worker goroutines: inserts must
			// stage into worker-local buffers (merged at the scan barrier).
			g.sawParallel = true
			g.inParallel = true
			n.nested = g.genOperation(o.Nested)
			g.inParallel = false
		} else {
			n.nested = g.genOperation(o.Nested)
		}
		g.foldFilter(n)
		return n

	case *ram.Choice:
		g.pendingParallel = false
		rel := g.relation(o.Rel)
		idx := rel.SearchIndex(o.IndexID)
		n := &inode{
			op: g.orderedOpcode(opChoice, rel), rel: rel, idx: idx, order: idx.Order(),
			arity: int32(rel.Arity()), tupleID: int32(o.TupleID), shadow: o,
		}
		n.impls, _ = relation.Impls(idx)
		n.children, n.prefix = g.genPattern(o.Pattern, idx.Order())
		n.bound = g.genBound(o.Bound, idx.Order(), n.prefix)
		g.applySuper(n)
		g.widths[n.tupleID] = n.arity
		g.prems[n.tupleID] = int32(o.Rel.BaseID)
		g.bindCoords(n.tupleID, idx.Order(), n)
		if o.Cond != nil {
			n.cond = g.genCond(o.Cond)
		}
		n.nested = g.genOperation(o.Nested)
		return n

	case *ram.Filter:
		if g.cfg.FusedFilters && pure(o.Cond) {
			// Collapse a cascade of nested pure filters into one condition, so
			// a rule's whole filter chain costs a single dispatch (§5.2).
			conds, inner := []ram.Condition{o.Cond}, o.Nested
			for f, ok := inner.(*ram.Filter); ok && pure(f.Cond); f, ok = inner.(*ram.Filter) {
				conds, inner = append(conds, f.Cond), f.Nested
			}
			return &inode{op: opFusedFilter, fused: g.fuse(conds...), nested: g.genOperation(inner), shadow: o}
		}
		return &inode{op: opFilter, cond: g.genCond(o.Cond), nested: g.genOperation(o.Nested), shadow: o}

	case *ram.Project:
		rel := g.relation(o.Rel)
		n := &inode{
			op:     g.scanOpcode(opInsert, rel),
			rel:    rel,
			relID:  int32(o.Rel.ID),
			staged: g.inParallel,
			arity:  int32(rel.Arity()),
			baseID: int32(o.Rel.BaseID),
			rstats: rel.Stats(),
			shadow: o,
		}
		n.shardKey = int32(rel.ShardKeyCol())
		for i := 0; i < rel.NumIndexes(); i++ {
			stores, _ := relation.Impls(rel.Index(i))
			n.impls = append(n.impls, stores...)
			n.shards = int32(len(stores))
			n.orders = append(n.orders, rel.Index(i).Order())
		}
		for _, e := range o.Exprs {
			n.children = append(n.children, g.genExpr(e))
		}
		g.applySuper(n)
		return n

	case *ram.Aggregate:
		g.pendingParallel = false
		rel := g.relation(o.Rel)
		idx := rel.SearchIndex(o.IndexID)
		n := &inode{
			op: g.orderedOpcode(opAggregate, rel), rel: rel, idx: idx, order: idx.Order(),
			arity: int32(rel.Arity()), tupleID: int32(o.TupleID),
			a: int32(o.Kind), b: int32(o.Type), shadow: o,
		}
		n.impls, _ = relation.Impls(idx)
		n.children, n.prefix = g.genPattern(o.Pattern, idx.Order())
		g.applySuper(n)
		w := n.arity
		if w < 1 {
			w = 1
		}
		g.widths[n.tupleID] = w
		// Candidate tuples are visible to the target and condition in the
		// index's coordinates; the 1-tuple result afterwards is not.
		g.bindCoords(n.tupleID, idx.Order(), n)
		if o.Target != nil {
			n.target = g.genExpr(o.Target)
		}
		if o.Cond != nil {
			n.cond = g.genCond(o.Cond)
		}
		delete(g.coords, n.tupleID)
		n.nested = g.genOperation(o.Nested)
		return n

	default:
		panic(fmt.Sprintf("interp: unknown RAM operation %T", o))
	}
}

// foldFilter folds a fused-filter child into the specialized B-tree scan n,
// whose tuple loop (scanBT) then evaluates the closure itself: the §4.4
// fold-child-into-parent idea applied to the filter, saving the last
// per-tuple dispatch of a scan-filter nest.
func (g *generator) foldFilter(n *inode) {
	if f := n.nested; n.op >= opSpecializedBase && f.op == opFusedFilter {
		n.fused, n.nested = f.fused, f.nested
	}
}

// collectSamples walks an Exit condition gathering the new_X relations its
// emptiness checks test, giving the Exit node its delta-sampling payload:
// the relations to size at exit-evaluation time, each labeled with the base
// relation it shadows. The payload is built unconditionally (it is a
// handful of pointers); the runtime only consults it under telemetry.
func (g *generator) collectSamples(exit, cond *inode) {
	switch cond.op {
	case opAnd:
		g.collectSamples(exit, cond.children[0])
		g.collectSamples(exit, cond.children[1])
	case opEmptiness:
		check, ok := cond.shadow.(*ram.EmptinessCheck)
		if !ok {
			return
		}
		name := check.Rel.Name
		var baseStats *metrics.RelationStats
		if base := check.Rel.BaseID; base >= 0 && base < len(g.eng.rels) {
			name = g.eng.prog.Relations[base].Name
			baseStats = g.eng.rels[base].Stats()
		}
		exit.sampleRels = append(exit.sampleRels, cond.rel)
		exit.sampleNames = append(exit.sampleNames, name)
		exit.sampleStats = append(exit.sampleStats, baseStats)
	}
}

// bindCoords records which coordinate system the tuple bound at tid uses
// inside the nested subtree, and whether the scan must decode at runtime.
func (g *generator) bindCoords(tid int32, order tuple.Order, n *inode) {
	if order.IsIdentity() {
		return
	}
	if g.cfg.StaticReordering {
		g.coords[tid] = order
	} else {
		n.decode = true
	}
}

// genPattern lowers a source-coordinate RAM pattern into encoded pattern
// children: child i is the expression for encoded position i, for the k
// bound positions. Index selection guarantees the bound set is a prefix of
// the order.
func (g *generator) genPattern(pattern []ram.Expr, order tuple.Order) ([]*inode, int32) {
	var children []*inode
	k := int32(0)
	for i := 0; i < len(order); i++ {
		src := pattern[order[i]]
		if src == nil {
			break
		}
		children = append(children, g.genExpr(src))
		k++
	}
	// Verify nothing bound was left behind the prefix (engine invariant).
	bound := int32(0)
	for _, e := range pattern {
		if e != nil {
			bound++
		}
	}
	if bound != k {
		panic(fmt.Sprintf("interp: pattern with %d bound positions is not a prefix of order %v", bound, order))
	}
	return children, k
}

// genBound lowers a search's range bound (nil: none). Index selection
// guarantees the bound column follows the prefix in the order.
func (g *generator) genBound(b *ram.Bound, order tuple.Order, prefix int32) *scanBound {
	if b == nil {
		return nil
	}
	if int(prefix) >= len(order) || order[prefix] != b.Col {
		panic(fmt.Sprintf("interp: range bound on column %d does not follow the %d-position prefix of order %v", b.Col, prefix, order))
	}
	sb := &scanBound{typed: relation.Bound{Type: b.Type, LoStrict: b.LoStrict, HiStrict: b.HiStrict}}
	if b.Lo != nil {
		sb.lo, sb.typed.HasLo = g.genExpr(b.Lo), true
	}
	if b.Hi != nil {
		sb.hi, sb.typed.HasHi = g.genExpr(b.Hi), true
	}
	return sb
}

// applySuper splits a node's children into constant, tuple-element, and
// generic fields (paper Fig 13), eliminating dispatches for the first two
// classes.
func (g *generator) applySuper(n *inode) {
	if !g.cfg.SuperInstructions || len(n.children) == 0 {
		return
	}
	n.super = true
	for i, ch := range n.children {
		switch ch.op {
		case opConstant:
			n.constants = append(n.constants, constEntry{pos: int32(i), val: ch.val})
		case opTupleElement:
			n.tupleElems = append(n.tupleElems, tupleEntry{pos: int32(i), tid: ch.a, elem: ch.b})
		default:
			n.generics = append(n.generics, genEntry{pos: int32(i), expr: ch})
		}
	}
}

// genCond generates a condition. With fusion on, every maximal run of
// constraint-only conjuncts becomes one fused node (fuse.go); relation probes
// stay ordinary nodes and the evaluation order is kept.
func (g *generator) genCond(c ram.Condition) *inode {
	if !g.cfg.FusedFilters {
		return g.genCond1(c)
	}
	var out *inode
	leaves := conjuncts(c, nil)
	for i := 0; i < len(leaves); {
		j := i
		for j < len(leaves) && pure(leaves[j]) {
			j++
		}
		var n *inode
		if j > i {
			n = &inode{op: opFusedCond, fused: g.fuse(leaves[i:j]...)}
			i = j
		} else {
			n = g.genCond1(leaves[i])
			i++
		}
		if out == nil {
			out = n
		} else {
			out = &inode{op: opAnd, children: []*inode{out, n}}
		}
	}
	return out
}

func (g *generator) genCond1(c ram.Condition) *inode {
	switch c := c.(type) {
	case *ram.And:
		return &inode{op: opAnd, children: []*inode{g.genCond1(c.L), g.genCond1(c.R)}, shadow: c}
	case *ram.Not:
		g.negDepth++
		inner := g.genCond(c.C)
		g.negDepth--
		return &inode{op: opNot, cond: inner, shadow: c}
	case *ram.EmptinessCheck:
		return &inode{op: opEmptiness, rel: g.relation(c.Rel), shadow: c}
	case *ram.ExistenceCheck:
		rel := g.relation(c.Rel)
		idx := rel.Index(c.IndexID)
		n := &inode{
			op: g.scanOpcode(opExists, rel), rel: rel, idx: idx,
			order: idx.Order(), arity: int32(rel.Arity()),
			baseID: int32(c.Rel.BaseID), shadow: c,
		}
		n.children, n.prefix = g.genPattern(c.Pattern, idx.Order())
		g.bindSearch(n, idx)
		g.bindFinger(n, rel, idx)
		g.applySuper(n)
		if g.negDepth == 0 && n.prefix == n.arity && n.arity > 0 {
			g.premExists = append(g.premExists, n)
		}
		return n
	case *ram.Constraint:
		return &inode{
			op: opConstraint, a: int32(c.Op), b: int32(c.Type),
			children: []*inode{g.genExpr(c.L), g.genExpr(c.R)}, shadow: c,
		}
	default:
		panic(fmt.Sprintf("interp: unknown RAM condition %T", c))
	}
}

func (g *generator) genExpr(e ram.Expr) *inode {
	switch e := e.(type) {
	case *ram.Constant:
		return &inode{op: opConstant, val: e.Val, shadow: e}
	case *ram.TupleElement:
		elem := e.Elem
		// Static reordering (§4.2): if the referenced tuple is stored in
		// index coordinates, rewrite the access to the encoded position.
		if order := g.coords[int32(e.TupleID)]; order != nil {
			elem = order.Inverse()[elem]
		}
		return &inode{op: opTupleElement, a: int32(e.TupleID), b: int32(elem), shadow: e}
	case *ram.Intrinsic:
		n := &inode{op: opIntrinsic, a: int32(e.Op), b: int32(e.Type), shadow: e}
		for _, arg := range e.Args {
			n.children = append(n.children, g.genExpr(arg))
		}
		return n
	default:
		panic(fmt.Sprintf("interp: unknown RAM expression %T", e))
	}
}
