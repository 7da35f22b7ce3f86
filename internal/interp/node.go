package interp

import (
	"sti/internal/metrics"
	"sti/internal/ram"
	"sti/internal/relation"
	"sti/internal/tuple"
	"sti/internal/value"
)

// opcode identifies an interpreter instruction. Every INode carries one, so
// the executor dispatches with a single switch (paper §3, Fig 5). The
// specialized block (generated in specialized_gen.go) encodes the target
// structure and arity in the opcode itself (paper §4.1): one opcode per
// {instruction × structure × arity}.
type opcode uint16

const (
	// statements
	opSequence opcode = iota
	opLoop
	opExit
	opQuery
	opClear
	opSwap
	opMerge
	opSubtract
	opIO

	// operations (dynamic-adapter forms); one search instruction per kind
	// serves keyed and unkeyed searches alike (inode.prefix 0, no bound)
	opScan
	opChoice
	opFilter
	opInsert // RAM Project
	opAggregate

	// conditions
	opAnd
	opNot
	opEmptiness
	opExists
	opConstraint

	// expressions
	opConstant
	opTupleElement
	opIntrinsic

	// Condition fusion (§5.2, fuse.go): opFusedCond is a constraint-only
	// condition built into one closure; opFusedFilter is a filter whose whole
	// condition is one, saving the filter-to-condition dispatch too.
	opFusedCond
	opFusedFilter

	// handwritten specialized forms for the non-generic structures
	opInsertEq
	opScanEq
	opExistsEq
	opInsertBrie
	opScanBrie
	opExistsBrie

	// opSpecializedBase starts the generated per-arity B-tree block; it
	// must be the last opcode in this list.
	opSpecializedBase
)

// Super-instruction payload entries (paper Figs 13-14): each names the
// target slot in the tuple being built and where its value comes from.
type constEntry struct {
	pos int32
	val value.Value
}

type tupleEntry struct {
	pos, tid, elem int32
}

type genEntry struct {
	pos  int32
	expr *inode
}

// inode is an Interpreter Node: a lightweight instruction with execution
// state and pre-computed values (paper §3, Fig 4). The shadow field is the
// sPtr back to the source RAM node for static information.
type inode struct {
	op opcode

	// relational operands
	rel    *relation.Relation // target relation
	rel2   *relation.Relation // second relation (swap, merge/subtract source)
	idx    relation.Index     // chosen index (dynamic path)
	impls  []any              // concrete stores for the static path, see shards
	orders []tuple.Order      // per-index orders (inserts)
	order  tuple.Order        // chosen index order (scans/exists)
	decode bool               // wrap scans with a decoding iterator

	// impls holds one store per shard (one in all when unsharded): the chosen
	// index's for searches, every index's for inserts, index-major (index i's
	// shard s at impls[i*shards+s]). shards > 1 makes the instruction route by
	// partition hash of the value at shardKey — a source column of the built
	// tuple for inserts, an encoded position of the bound prefix for searches.
	// The generator leaves shards at 1 for unsharded relations and for
	// searches whose prefix misses the key, which then visit all of impls.
	shards, shardKey int32

	tupleID int32
	prefix  int32      // bound prefix length (encoded coordinates)
	bound   *scanBound // range bound on encoded position prefix (ram.Bound), nil when none
	arity   int32
	par     bool // partition this scan across workers
	// staged marks mutation deferral for parallel evaluation. On an insert
	// node it means "append to the context's worker-local staging buffer
	// instead of mutating the relation"; on a query node it means "this
	// query contains a parallel scan — allocate staging buffers and merge
	// them when the query finishes".
	staged bool
	relID  int32 // insert target's RAM relation ID (staging buffer slot)

	// tree structure
	children []*inode // sub-expressions / statements / pattern (encoded order)
	nested   *inode   // operation body
	cond     *inode   // condition
	target   *inode   // aggregate target expression

	// super-instruction payload (pattern/tuple construction)
	super      bool
	constants  []constEntry
	tupleElems []tupleEntry
	generics   []genEntry

	// fused is the body of a fused condition or filter (paper §5.2): the
	// whole condition in one dispatch. Stateless, so worker contexts share it.
	fused func([]tuple.Tuple) bool

	// immediates
	val    value.Value // constant
	a, b   int32       // generic payload: (tid,elem), (op,type), (cmp,type), io kind
	label  string
	ruleID int32
	widths []int32 // query: context tuple widths by tupleID
	// qctx is a non-staged query's context, made on its first run and reset
	// for every later one (execQuery).
	qctx *context
	// provenance metadata: the insert target's base relation, the per-tid
	// base relations of the query's scans (-1 = not a relation binding),
	// and the query's positive fully-bound existence checks (whose matched
	// tuples are premises even though they bind no tuple slot).
	baseID     int32
	premRels   []int32
	premExists []*inode

	// Delta-sampling payload of an Exit node: the new_X relations its
	// emptiness checks test, plus the base relation each shadows (name and
	// telemetry block). At Exit time new_X holds exactly the fresh tuples of
	// the current iteration, so sampling here yields the per-iteration delta
	// curve of the enclosing fixpoint.
	sampleRels  []*relation.Relation
	sampleNames []string
	sampleStats []*metrics.RelationStats

	// rstats is the insert target's telemetry block (nil when telemetry is
	// off), for the specialized insert paths that bypass Relation.Insert.
	rstats *metrics.RelationStats

	part   relation.Partitioner // idx's scan split or the fallback, bound when par
	shadow any                  // source RAM node (static info), the paper's sPtr
}

// scanBound is a search's range bound (ram.Bound) lowered for execution:
// the limit expressions, evaluated once per scan start, and the typed
// interval they fill in.
type scanBound struct {
	lo, hi *inode         // nil when that side is open
	typed  relation.Bound // type and strictness; Lo/Hi are filled per start
}

// opStats are the profiling counters of one context. They live in the
// context rather than the executor so parallel workers never contend on (or
// race over) shared counters; query and parallel-scan barriers fold them
// into the profiler on the coordinating goroutine.
type opStats struct {
	iters      uint64 // tuples visited by scans
	inserts    uint64 // tuples newly inserted
	attempts   uint64 // insert attempts (attempts - inserts = dedup hits)
	dispatches uint64 // execute() calls
	super      uint64 // dispatches avoided by super-instructions
}

// add folds another context's counters into s.
func (s *opStats) add(o *opStats) {
	s.iters += o.iters
	s.inserts += o.inserts
	s.attempts += o.attempts
	s.dispatches += o.dispatches
	s.super += o.super
}

// context is the runtime environment of one query: the tuples currently
// bound by enclosing scans (paper §3). Parallel workers get their own copy.
type context struct {
	tuples []tuple.Tuple
	// base keeps the originally allocated full-width slot per tupleID;
	// aggregates shrink tuples[tid] to their 1-wide result and must restore
	// the full slot before re-iterating.
	base []tuple.Tuple
	// stage holds this context's worker-local staging buffers, indexed by
	// RAM relation ID, when the enclosing query defers inserts to the merge
	// barrier (parallel evaluation). nil on the direct-insert path.
	stage []*relation.StagingBuffer
	// scratch is where the dynamic insert and existence check build their
	// tuple, and where a decoding B-tree scan unpacks each key (bindKey). A
	// stack array passed through an indirect call would move to the heap on
	// every execution; this one is allocated with the context. Every user
	// fills and consumes it without evaluating another operation in between,
	// and nothing the tuple is handed to keeps it.
	scratch [relation.MaxArity]value.Value
	stats   opStats
	exit    bool // set by Exit, consumed by Loop
	// pad receives the heavyweight-dispatch baseline's spill traffic; it
	// lives in the per-worker context so parallel workers do not contend.
	pad [8]uint64
}

// clone creates a fresh context with the same slot widths (the paper's
// thread-local context copies for parallel workers). A staging context
// clones to a staging context: each worker stages into its own buffers.
func (ctx *context) clone() *context {
	widths := make([]int32, len(ctx.base))
	for i, t := range ctx.base {
		widths[i] = int32(len(t))
	}
	c := newContext(widths)
	if ctx.stage != nil {
		c.stage = make([]*relation.StagingBuffer, len(ctx.stage))
	}
	return c
}

// reset readies a reused context for the next run of its query: every slot
// back at its own storage (scans and aggregates rebind them), counters
// zeroed, no pending exit.
func (ctx *context) reset() {
	copy(ctx.tuples, ctx.base)
	ctx.stats = opStats{}
	ctx.exit = false
}

func newContext(widths []int32) *context {
	ctx := &context{
		tuples: make([]tuple.Tuple, len(widths)),
		base:   make([]tuple.Tuple, len(widths)),
	}
	for i, w := range widths {
		ctx.tuples[i] = make(tuple.Tuple, w)
		ctx.base[i] = ctx.tuples[i]
	}
	return ctx
}

// bindResult binds an aggregate's result as the 1-wide tuple at tid, in the
// slot's own storage (the generator makes aggregate slots at least 1 wide).
// The next evaluation of the aggregate restores the full-width slot.
func (ctx *context) bindResult(tid int32, res value.Value) {
	slot := ctx.base[tid][:1]
	slot[0] = res
	ctx.tuples[tid] = slot
}

// shadowRAM returns the RAM node behind n, for diagnostics.
func (n *inode) shadowRAM() ram.Statement {
	if s, ok := n.shadow.(ram.Statement); ok {
		return s
	}
	return nil
}
