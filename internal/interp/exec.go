package interp

import (
	"fmt"
	"sync"
	"time"

	"sti/internal/metrics"
	"sti/internal/ram"
	"sti/internal/relation"
	"sti/internal/rtl"
	"sti/internal/tuple"
	"sti/internal/value"
)

// executor holds the per-run state of the recursive tree walk. Relation
// mutation needs no locks: parallel workers stage inserts into worker-local
// buffers (context.stage) that merge at the scan barrier, so no store is
// ever mutated while another goroutine can observe it.
type executor struct {
	eng  *Engine
	io   IOHandler
	prof *profiler
	prov *provenance
	curQ *inode // active query (provenance only)
	// tel is the telemetry collector (nil = disabled). fix is the fixpoint
	// record of the innermost LOOP being executed; statements only run on the
	// coordinating goroutine, so no synchronization is needed.
	tel     *metrics.Collector
	fix     *metrics.FixpointStats
	profile bool
	// count enables the per-context operation counters: set when profiling
	// or telemetry is on (telemetry needs iteration counts for the
	// per-worker parallel statistics).
	count   bool
	lean    bool
	workers int
}

// eval is the dispatch entry point. With LeanDispatch off it models the
// paper's §4.3 baseline: every dispatch pays a fixed extra cost comparable
// to the callee-saved register spills and canary setup the paper removes
// (here: eight dependent memory updates before the real dispatch).
func (ex *executor) eval(n *inode, ctx *context) value.Value {
	if ex.profile {
		ctx.stats.dispatches++
	}
	if !ex.lean {
		spill(ctx)
	}
	return ex.execute(n, ctx)
}

// spill models the per-dispatch fixed overhead the paper's §4.3 trick
// removes (callee-saved register saves plus stack-canary setup on every
// recursive execute call): a non-inlinable call whose body performs the
// equivalent register/stack traffic, against the worker-local context.
//
//go:noinline
func spill(ctx *context) {
	ctx.pad[0]++
	ctx.pad[1]++
	ctx.pad[2]++
	ctx.pad[3]++
	ctx.pad[4]++
	ctx.pad[5]++
	ctx.pad[6]++
	ctx.pad[7]++
}

// execQuery runs one rule version in the query's context, reset for the
// run, so a query that runs once per batch or per fixpoint iteration
// allocates nothing. A staged (parallel) query takes a fresh context with
// its own staging buffers. It is a method of its own so that its conditional
// defer stays out of execute: a defer anywhere in the dispatch loop makes
// every instruction return through deferreturn.
func (ex *executor) execQuery(n *inode) value.Value {
	qctx := n.qctx
	switch {
	case n.staged:
		qctx = newContext(n.widths, n.fingers)
		qctx.stage = make([]*relation.StagingBuffer, len(ex.eng.rels))
	case qctx == nil:
		qctx = newContext(n.widths, n.fingers)
		n.qctx = qctx
	default:
		qctx.reset()
	}
	if ex.prov != nil {
		prevQ := ex.curQ
		ex.curQ = n
		defer func() { ex.curQ = prevQ }()
	}
	qspan := ex.tel.Begin()
	if ex.profile {
		start := time.Now()
		ex.eval(n.nested, qctx)
		ex.flushStage(qctx)
		rp := &ex.prof.rules[n.ruleID]
		rp.RuleID = int(n.ruleID)
		rp.Label = n.label
		rp.Time += time.Since(start)
		rp.Iterations += qctx.stats.iters
		rp.Dispatches += qctx.stats.dispatches
		rp.Inserts += qctx.stats.inserts
		rp.Attempts += qctx.stats.attempts
		ex.prof.dispatches += qctx.stats.dispatches
		ex.prof.super += qctx.stats.super
		ex.tel.End(qspan, "query", n.label)
		return 0
	}
	ex.eval(n.nested, qctx)
	ex.flushStage(qctx)
	ex.tel.End(qspan, "query", n.label)
	return 0
}

func (ex *executor) execute(n *inode, ctx *context) value.Value {
	switch n.op {
	// --- statements ---
	case opSequence:
		for _, st := range n.children {
			ex.eval(st, ctx)
			if ctx.exit {
				break
			}
		}
		return 0
	case opLoop:
		if ex.tel != nil {
			return ex.execLoopTelemetry(n, ctx)
		}
		for {
			ex.eval(n.nested, ctx)
			if ctx.exit {
				ctx.exit = false
				return 0
			}
		}
	case opExit:
		if ex.eval(n.cond, ctx) != 0 {
			ctx.exit = true
		}
		if ex.fix != nil && len(n.sampleRels) > 0 {
			ex.sampleDeltas(n)
		}
		return 0
	case opQuery:
		return ex.execQuery(n)
	case opClear:
		n.rel.Clear()
		return 0
	case opSwap:
		n.rel.SwapContents(n.rel2)
		return 0
	case opMerge:
		mspan := ex.tel.Begin()
		n.rel.InsertFrom(n.rel2)
		ex.tel.End(mspan, "merge", n.rel.Name)
		return 0
	case opSubtract:
		if n.shadow.(*ram.Subtract).Dst.Kind == ram.AuxDel {
			// DRed's del_R := del_R − red_R: red_R ⊆ del_R holds the
			// overdeleted tuples that rederived.
			ex.eng.overdeleted += uint64(n.rel.Size())
			ex.eng.rederived += uint64(n.rel2.Size())
		}
		sspan := ex.tel.Begin()
		n.rel.DeleteFrom(n.rel2)
		ex.tel.End(sspan, "subtract", n.rel.Name)
		return 0
	case opIO:
		iospan := ex.tel.Begin()
		ex.execIO(n)
		ex.tel.End(iospan, "io", n.rel.Name)
		return 0

	// --- operations (dynamic-adapter forms) ---
	case opScan:
		if n.par && ex.workers > 1 {
			ex.parallelScan(n, ctx)
			return 0
		}
		it, ok := ex.search(n, ctx)
		if !ok {
			return 0
		}
		for {
			t, ok := it.Next()
			if !ok {
				return 0
			}
			ctx.tuples[n.tupleID] = t
			ex.countIter(ctx)
			ex.eval(n.nested, ctx)
		}
	case opChoice:
		it, ok := ex.search(n, ctx)
		if !ok {
			return 0
		}
		for {
			t, ok := it.Next()
			if !ok {
				return 0
			}
			ctx.tuples[n.tupleID] = t
			ex.countIter(ctx)
			if n.cond == nil || ex.eval(n.cond, ctx) != 0 {
				ex.eval(n.nested, ctx)
				return 0
			}
		}
	case opFilter:
		if ex.eval(n.cond, ctx) != 0 {
			ex.eval(n.nested, ctx)
		}
		return 0
	case opFusedFilter:
		if n.fused(ctx.tuples) {
			ex.eval(n.nested, ctx)
		}
		return 0
	case opInsert:
		// The tuple is built in the context's scratch array: Relation.Insert
		// reaches the indexes through the Index interface, so a stack array
		// would escape and cost an allocation per insert. Nothing keeps it:
		// staging and provenance copy.
		t := ctx.scratch[:n.arity]
		ex.fillTuple(n, ctx, t)
		if ex.stageInsert(n, ctx, t) {
			return 0
		}
		if n.rel.Insert(t) {
			ex.countInsert(ctx, true)
			if ex.prov != nil {
				ex.recordDerivation(n, t, ctx)
			}
		} else {
			ex.countInsert(ctx, false)
		}
		return 0
	case opAggregate:
		ctx.tuples[n.tupleID] = ctx.base[n.tupleID]
		it, _ := ex.search(n, ctx) // an aggregate's search has no range bound
		var acc aggAcc
		acc.Init(ram.AggKind(n.a), value.Type(n.b))
		for {
			t, ok := it.Next()
			if !ok {
				break
			}
			ctx.tuples[n.tupleID] = t
			ex.countIter(ctx)
			if n.cond != nil && ex.eval(n.cond, ctx) == 0 {
				continue
			}
			var v value.Value
			if n.target != nil {
				v = ex.eval(n.target, ctx)
			}
			acc.Step(v)
		}
		if res, ok := acc.Finish(); ok {
			ctx.bindResult(n.tupleID, res)
			ex.eval(n.nested, ctx)
		}
		return 0

	// --- conditions ---
	case opAnd:
		if ex.eval(n.children[0], ctx) == 0 {
			return 0
		}
		return ex.eval(n.children[1], ctx)
	case opNot:
		if ex.eval(n.cond, ctx) == 0 {
			return 1
		}
		return 0
	case opEmptiness:
		if n.rel.Empty() {
			return 1
		}
		return 0
	case opExists:
		// The pattern is built in the context's scratch array, as for opInsert;
		// it crosses the Index interface and no index keeps it.
		pat := ctx.scratch[:n.arity]
		ex.fillTuple(n, ctx, pat[:n.prefix])
		if n.prefix == n.arity {
			if n.hinted != nil {
				return boolVal(n.hinted(pat[:n.arity], ctx.hints[n.hint]))
			}
			return boolVal(n.idx.ContainsEncoded(pat[:n.arity]))
		}
		if n.idx.AnyMatch(pat[:n.arity], int(n.prefix)) {
			return 1
		}
		return 0
	case opFusedCond:
		return boolVal(n.fused(ctx.tuples))
	case opConstraint:
		l := ex.eval(n.children[0], ctx)
		r := ex.eval(n.children[1], ctx)
		if compare(ram.CmpOp(n.a), value.Type(n.b), l, r) {
			return 1
		}
		return 0

	// --- expressions ---
	case opConstant:
		return n.val
	case opTupleElement:
		return ctx.tuples[n.a][n.b]
	case opIntrinsic:
		return ex.evalIntrinsic(n, ctx)
	}

	// Handwritten and generated specialized instructions.
	if v, handled := ex.execNonGeneric(n, ctx); handled {
		return v
	}
	if v, handled := ex.execSpecialized(n, ctx); handled {
		return v
	}
	panic(fmt.Sprintf("interp: unknown opcode %d", n.op))
}

// execLoopTelemetry is the telemetry variant of opLoop: it opens a fixpoint
// record labeled with the RAM loop's stratum label, makes it current so the
// loop's Exit samples per-iteration deltas into it, and emits one span per
// iteration plus one for the whole fixpoint. Loops nest (a stratum inside a
// log timer, say), so the previous fixpoint is restored on the way out.
func (ex *executor) execLoopTelemetry(n *inode, ctx *context) value.Value {
	fix := ex.tel.StartFixpoint(n.label)
	prev := ex.fix
	ex.fix = fix
	loopSpan := ex.tel.Begin()
	for {
		iterNo := fix.Iterations
		iterSpan := ex.tel.Begin()
		ex.eval(n.nested, ctx)
		if !iterSpan.IsZero() {
			ex.tel.End(iterSpan, "fixpoint", fmt.Sprintf("iteration %d", iterNo))
		}
		if ctx.exit {
			ctx.exit = false
			break
		}
	}
	if !loopSpan.IsZero() {
		ex.tel.EndArgs(loopSpan, "fixpoint", n.label, map[string]any{"iterations": fix.Iterations})
	}
	ex.fix = prev
	ex.tel.EndFixpoint(fix)
	return 0
}

// sampleDeltas records the current iteration's fresh-tuple counts: at Exit
// time every new_X relation of the stratum holds exactly the tuples derived
// this iteration (the post-statements that merge and clear them have not run
// yet). Per-relation peaks land on the base relation's stats.
func (ex *executor) sampleDeltas(n *inode) {
	sizes := make([]uint64, len(n.sampleRels))
	for i, rel := range n.sampleRels {
		sz := uint64(rel.Size())
		sizes[i] = sz
		if rs := n.sampleStats[i]; rs != nil && sz > rs.PeakDelta {
			rs.PeakDelta = sz
		}
	}
	ex.fix.RecordIteration(n.sampleNames, sizes)
}

// parallelScan partitions a full scan across workers, each with its own
// context copy and its own staging buffers (paper §3). Workers never mutate
// shared state: inserts land in worker-local buffers that mergeWorkers folds
// into the relations after the barrier. Runtime errors from workers are
// re-raised after all workers finish.
func (ex *executor) parallelScan(n *inode, ctx *context) {
	iters := n.part.PartitionScan(ex.workers)
	if len(iters) == 1 {
		// Degenerate partitioning (store too small or unsupported): same
		// loop as a worker runs, on the caller's context.
		ex.runPartition(n, ctx, iters[0])
		return
	}
	wctxs := make([]*context, len(iters))
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr *rtl.Error
	for i, it := range iters {
		wctxs[i] = ctx.clone()
		wg.Add(1)
		go func(it relation.Iterator, wctx *context) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if re, ok := r.(*rtl.Error); ok {
						errMu.Lock()
						if firstErr == nil {
							firstErr = re
						}
						errMu.Unlock()
						return
					}
					panic(r)
				}
			}()
			ex.runPartition(n, wctx, it)
		}(it, wctxs[i])
	}
	wg.Wait()
	if ex.tel != nil {
		scanned := make([]uint64, len(wctxs))
		staged := make([]uint64, len(wctxs))
		for i, w := range wctxs {
			scanned[i] = w.stats.iters
			for _, b := range w.stage {
				if b != nil {
					staged[i] += uint64(b.Len())
				}
			}
		}
		mergeStart := time.Now()
		ex.mergeWorkers(ctx, wctxs)
		ex.tel.RecordParallelScan(scanned, staged, time.Since(mergeStart))
	} else {
		ex.mergeWorkers(ctx, wctxs)
	}
	if firstErr != nil {
		panic(firstErr)
	}
}

// runPartition drives one partition iterator through the scan body. It is
// the single loop shared by the multi-worker path and the single-partition
// fallback, so both execute identically.
func (ex *executor) runPartition(n *inode, ctx *context, it relation.Iterator) {
	if n.decode {
		it = relation.NewDecoder(it, n.order)
	}
	for {
		t, ok := it.Next()
		if !ok {
			return
		}
		ctx.tuples[n.tupleID] = t
		ex.countIter(ctx)
		ex.eval(n.nested, ctx)
	}
}

// mergeWorkers folds the workers' staging buffers and profiling counters
// into the coordinating context at the scan barrier. All buffers targeting
// one relation merge in a single InsertAll call, which de-duplicates against
// the destination's primary index and across workers. Buffers targeting a
// *sharded* relation instead take the routed merge (InsertAllSharded): the
// barrier is where cross-shard delta tuples — produced by worker w but owned
// by another shard's partition — are exchanged into their owners before the
// next iteration scans them.
func (ex *executor) mergeWorkers(ctx *context, wctxs []*context) {
	if ctx.stage != nil {
		var bufs []*relation.StagingBuffer
		for rid := range ctx.stage {
			rel := ex.eng.rels[rid]
			if rel.Sharded() {
				// Keep worker alignment (nil gaps included) so the exchange
				// counter can compare each tuple's owning shard against its
				// producing worker's; the coordinator's own buffer rides
				// along in the last slot.
				wbufs := make([]*relation.StagingBuffer, 0, len(wctxs)+1)
				any := false
				for _, w := range wctxs {
					b := w.stage[rid]
					wbufs = append(wbufs, b)
					any = any || (b != nil && b.Len() > 0)
				}
				if b := ctx.stage[rid]; b != nil && b.Len() > 0 {
					wbufs = append(wbufs, b)
					any = true
				}
				if !any {
					continue
				}
				added, routed, exchanged := rel.InsertAllSharded(wbufs)
				ctx.stats.inserts += uint64(added)
				if ex.tel != nil {
					ex.tel.RecordShardMerge(routed, exchanged)
				}
				if b := ctx.stage[rid]; b != nil {
					b.Reset()
				}
				continue
			}
			bufs = bufs[:0]
			if b := ctx.stage[rid]; b != nil && b.Len() > 0 {
				bufs = append(bufs, b)
			}
			for _, w := range wctxs {
				if b := w.stage[rid]; b != nil && b.Len() > 0 {
					bufs = append(bufs, b)
				}
			}
			if len(bufs) == 0 {
				continue
			}
			added := rel.InsertAll(bufs...)
			ctx.stats.inserts += uint64(added)
			if b := ctx.stage[rid]; b != nil {
				b.Reset()
			}
		}
	}
	for _, w := range wctxs {
		ctx.stats.iters += w.stats.iters
		ctx.stats.attempts += w.stats.attempts
		ctx.stats.dispatches += w.stats.dispatches
		ctx.stats.super += w.stats.super
		// Worker inserts were deferred to the staging buffers; the InsertAll
		// above already counted the post-dedup total.
	}
}

// stageInsert appends t to the context's worker-local staging buffer when
// the insert runs under a staged query, reporting whether it did. The
// relation is not touched; de-duplication happens at merge time.
func (ex *executor) stageInsert(n *inode, ctx *context, t tuple.Tuple) bool {
	if !n.staged || ctx.stage == nil {
		return false
	}
	b := ctx.stage[n.relID]
	if b == nil {
		b = relation.NewStagingBuffer(int(n.arity))
		ctx.stage[n.relID] = b
	}
	b.Add(t)
	if ex.count {
		// Staged tuples are insert attempts; the post-dedup fresh count is
		// folded from InsertAll's return at the merge barrier.
		ctx.stats.attempts++
	}
	return true
}

// flushStage merges any staging buffers still pending on ctx into their
// relations (a staged query whose parallel scan degenerated to the serial
// path, or staged inserts outside the partitioned scan).
func (ex *executor) flushStage(ctx *context) {
	if ctx.stage == nil {
		return
	}
	for rid, b := range ctx.stage {
		if b == nil || b.Len() == 0 {
			continue
		}
		added := ex.eng.rels[rid].InsertAll(b)
		ctx.stats.inserts += uint64(added)
		b.Reset()
	}
}

// search opens the dynamic adapter's iterator of a scan's, choice's or
// aggregate's search, decoding to source coordinates when n does: the full
// scan of an unkeyed search, else the prefix search of n's pattern,
// narrowed by n's range bound when it has one. ok is false when the bound
// admits no tuple.
func (ex *executor) search(n *inode, ctx *context) (relation.Iterator, bool) {
	var it relation.Iterator
	if n.prefix == 0 && n.bound == nil {
		it = n.idx.Scan()
	} else {
		var pat [relation.MaxArity]value.Value
		ex.fillTuple(n, ctx, pat[:n.prefix])
		if n.bound == nil {
			it = n.idx.PrefixScan(pat[:n.arity], int(n.prefix))
		} else {
			lo, hi, ok := ex.boundKeys(n, ctx)
			if !ok {
				return nil, false
			}
			it = relation.RangeScan(n.idx, pat[:n.arity], int(n.prefix), lo, hi)
		}
	}
	if n.decode {
		it = relation.NewDecoder(it, n.order)
	}
	return it, true
}

// boundKeys evaluates n's range bound for one scan start, as the storage
// interval of encoded position n.prefix (relation.Bound.Keys); a node
// without a bound gets the whole domain. ok is false when the interval is
// empty.
func (ex *executor) boundKeys(n *inode, ctx *context) (lo, hi value.Value, ok bool) {
	if n.bound == nil {
		return 0, ^value.Value(0), true
	}
	b := n.bound.typed
	if n.bound.lo != nil {
		b.Lo = ex.eval(n.bound.lo, ctx)
	}
	if n.bound.hi != nil {
		b.Hi = ex.eval(n.bound.hi, ctx)
	}
	return b.Keys()
}

func (ex *executor) countIter(ctx *context) {
	if ex.count {
		ctx.stats.iters++
	}
}

func (ex *executor) countInsert(ctx *context, added bool) {
	if ex.count {
		ctx.stats.attempts++
		if added {
			ctx.stats.inserts++
		}
	}
}

// fillTuple materializes a node's value children into dst (dst length
// selects how many leading children are used: full arity for inserts, the
// bound prefix for patterns). Super-instruction nodes read their constant
// and tuple-element fields without dispatch (paper Fig 14).
func (ex *executor) fillTuple(n *inode, ctx *context, dst []value.Value) {
	if n.super {
		for _, c := range n.constants {
			dst[c.pos] = c.val
		}
		for _, t := range n.tupleElems {
			dst[t.pos] = ctx.tuples[t.tid][t.elem]
		}
		for _, g := range n.generics {
			dst[g.pos] = ex.eval(g.expr, ctx)
		}
		if ex.profile {
			ctx.stats.super += uint64(len(n.constants) + len(n.tupleElems))
		}
		return
	}
	for i := range dst {
		dst[i] = ex.eval(n.children[i], ctx)
	}
}

func (ex *executor) execIO(n *inode) {
	switch ram.IOKind(n.a) {
	case ram.IOLoad:
		err := ex.io.Load(n.shadow.(*ram.IO).Rel, func(t tuple.Tuple) error {
			n.rel.Insert(t)
			return nil
		})
		if err != nil {
			rtl.Fail("loading %s: %v", n.rel.Name, err)
		}
	case ram.IOStore:
		if err := ex.io.Store(n.shadow.(*ram.IO).Rel, n.rel.Scan()); err != nil {
			rtl.Fail("storing %s: %v", n.rel.Name, err)
		}
	default:
		if err := ex.io.PrintSize(n.shadow.(*ram.IO).Rel, n.rel.Size()); err != nil {
			rtl.Fail("printsize %s: %v", n.rel.Name, err)
		}
	}
}

// aggAcc aliases the shared accumulator.
type aggAcc = rtl.AggAcc

func boolVal(b bool) value.Value { return rtl.Bool(b) }

func compare(op ram.CmpOp, typ value.Type, l, r value.Value) bool {
	return rtl.Compare(op, typ, l, r)
}

func (ex *executor) evalIntrinsic(n *inode, ctx *context) value.Value {
	var buf [4]value.Value
	args := buf[:0]
	for _, ch := range n.children {
		args = append(args, ex.eval(ch, ctx))
	}
	return rtl.Apply(ex.eng.st, ram.IntrinsicOp(n.a), value.Type(n.b), args)
}
