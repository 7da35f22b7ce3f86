package interp

import (
	"fmt"
	"slices"

	"sti/internal/metrics"
	"sti/internal/ram"
	"sti/internal/ram/verify"
	"sti/internal/relation"
	"sti/internal/rtl"
	"sti/internal/symtab"
	"sti/internal/tuple"
	"sti/internal/value"
)

// Phase is the engine's lifecycle state. A one-shot Run walks all three
// states in a single call; a resident engine (sti.Database) loads nothing,
// calls Eval, and then runs the incremental entry points (staying in
// PhaseReady) for each applied batch.
type Phase uint8

// Engine lifecycle states.
const (
	PhaseNew    Phase = iota // relations empty, nothing loaded
	PhaseLoaded              // EDB inputs loaded, fixpoint not yet evaluated
	PhaseReady               // fixpoint materialized, queries are served
)

func (p Phase) String() string {
	switch p {
	case PhaseLoaded:
		return "loaded"
	case PhaseReady:
		return "ready"
	default:
		return "new"
	}
}

// Engine executes a RAM program with the Soufflé Tree Interpreter.
type Engine struct {
	prog *ram.Program
	cfg  Config
	st   *symtab.Table
	rels []*relation.Relation // by RAM relation ID

	// The generated tree is split at the top level into the load (IOLoad),
	// eval (queries, fixpoint loops), and store (IOStore/IOPrintSize)
	// phases; any part may be nil. When Main's top-level sequence is not
	// shaped load* eval* store*, everything lives in rootEval.
	rootLoad  *inode
	rootEval  *inode
	rootStore *inode
	// rootUpdate is generated lazily from prog.Update on first EvalUpdate;
	// rootDelete likewise from prog.Delete on first EvalDelete.
	rootUpdate *inode
	rootDelete *inode
	// regen marks Main's trees dropped by AddOrder, to be generated again
	// before Main next runs.
	regen bool
	gen   *generator
	phase Phase

	// recent maps a source relation ID to its recent_R freshness tracker
	// (nil entries when the program has no update variant or the relation
	// is an eqrel). del likewise maps to the del_R retraction tracker of
	// deletable programs.
	recent []*relation.Relation
	del    []*relation.Relation

	prof *profiler
	prov *provenance
	tel  *metrics.Collector // telemetry sink (nil = disabled)

	// overdeleted and rederived total, over every EvalDelete, the tuples
	// DRed overdeleted into del_R and the share of them it rederived.
	overdeleted, rederived uint64
}

// New prepares an engine: it materializes the de-specialized relations and
// generates the interpreter tree for the given configuration. Generation
// cost is deliberately part of the measured interpreter runtime in the
// benchmarks, as in the paper.
func New(prog *ram.Program, st *symtab.Table, cfg Config) *Engine {
	if verify.Debugging() {
		if err := verify.Check(prog, "interp.New"); err != nil {
			panic(err)
		}
	}
	cfg = cfg.normalize()
	e := &Engine{prog: prog, cfg: cfg, st: st, tel: cfg.Metrics}
	for _, rd := range prog.Relations {
		e.rels = append(e.rels, buildRelation(rd, cfg))
	}
	e.recent = make([]*relation.Relation, len(prog.Relations))
	e.del = make([]*relation.Relation, len(prog.Relations))
	for i, rd := range prog.Relations {
		if rd.Kind == ram.AuxRecent {
			e.recent[rd.BaseID] = e.rels[i]
		}
		if rd.Kind == ram.AuxDel {
			e.del[rd.BaseID] = e.rels[i]
		}
	}
	// Bind telemetry before tree generation so the generated insert nodes can
	// cache their target's stats block.
	if e.tel != nil {
		for i, rd := range prog.Relations {
			rel := e.rels[i]
			orders := make([]string, rel.NumIndexes())
			for j := range orders {
				orders[j] = fmt.Sprint([]int(rel.Index(j).Order()))
			}
			rel.AttachMetrics(e.tel.BindRelation(
				rd.ID, rd.Name, rel.Rep().String(), rd.Arity, rd.IsAux(), rd.BaseID, orders))
		}
	}
	e.gen = &generator{eng: e, cfg: cfg}
	e.genRoots()
	return e
}

// genRoots partitions Main's top-level sequence into the load/eval/store
// trees. ast2ram emits Main as IOLoad*, queries/strata, IO(Store|PrintSize)*;
// if a transformed program no longer has that shape, the whole statement
// becomes the eval tree and the load/store phases are empty.
func (e *Engine) genRoots() {
	seq, ok := e.prog.Main.(*ram.Sequence)
	if ok {
		split, prev := true, 0
		for _, s := range seq.Stmts {
			p := phaseOf(s)
			if p < prev {
				split = false
				break
			}
			prev = p
		}
		if split {
			var parts [3][]ram.Statement
			for _, s := range seq.Stmts {
				parts[phaseOf(s)] = append(parts[phaseOf(s)], s)
			}
			e.rootLoad = e.genPart(parts[0])
			e.rootEval = e.genPart(parts[1])
			e.rootStore = e.genPart(parts[2])
			return
		}
	}
	e.rootEval = e.gen.genStatement(e.prog.Main)
}

// genMain regenerates Main's trees if AddOrder dropped them.
func (e *Engine) genMain() {
	if e.regen {
		e.regen = false
		e.genRoots()
	}
}

func (e *Engine) genPart(stmts []ram.Statement) *inode {
	if len(stmts) == 0 {
		return nil
	}
	return e.gen.genStatement(&ram.Sequence{Stmts: stmts})
}

// phaseOf classifies a top-level statement: 0 load, 1 eval, 2 store.
func phaseOf(s ram.Statement) int {
	if io, ok := s.(*ram.IO); ok {
		if io.Kind == ram.IOLoad {
			return 0
		}
		return 2
	}
	return 1
}

func buildRelation(rd *ram.Relation, cfg Config) *relation.Relation {
	rep := relation.BTree
	switch rd.Rep {
	case ram.RepBrie:
		rep = relation.Brie
	case ram.RepEqRel:
		rep = relation.EqRel
	}
	if cfg.Legacy && rep != relation.EqRel {
		rep = relation.Legacy
	}
	orders := rd.Orders
	if len(orders) == 0 {
		orders = []tuple.Order{tuple.Identity(rd.Arity)}
	}
	if shardable(rd, cfg) {
		return relation.NewSharded(rd.Name, rep, rd.Arity, orders, cfg.Shards, rd.ShardCol())
	}
	return relation.New(rd.Name, rep, rd.Arity, orders)
}

// shardable reports whether the declaration gets hash-partitioned indexes
// under the configuration: sharding must be on, the translator must have
// stamped a shard plan (nullary and eqrel relations never carry one), and
// the store must be an in-memory set adapter — the legacy comparator store
// keeps its own layout.
func shardable(rd *ram.Relation, cfg Config) bool {
	return cfg.Shards >= 1 && !cfg.Legacy &&
		rd.ShardKey > 0 && rd.Arity > 0 && rd.Rep != ram.RepEqRel
}

// RuntimeError reports an evaluation failure (division by zero, bad
// to_number input, I/O failures). It aliases the shared runtime's error
// type so all backends fail uniformly.
type RuntimeError = rtl.Error

// Phase reports the engine's lifecycle state.
func (e *Engine) Phase() Phase { return e.phase }

// Incremental reports whether the program carries an update entry point,
// i.e. whether EvalUpdate can re-evaluate insert-only batches without a
// full recomputation.
func (e *Engine) Incremental() bool { return e.prog.Update != nil }

// Deletable reports whether the program carries a delete entry point, i.e.
// whether EvalDelete can retract staged facts without a full recomputation.
func (e *Engine) Deletable() bool { return e.prog.Delete != nil }

// NoUpdateReason returns the analysis fact explaining a missing update
// entry point ("" when the program is incremental).
func (e *Engine) NoUpdateReason() string { return e.prog.NoUpdateReason }

// NoDeleteReason returns the analysis fact explaining a missing delete
// entry point ("" when the program is deletable).
func (e *Engine) NoDeleteReason() string { return e.prog.NoDeleteReason }

// execTree evaluates one generated tree, converting RuntimeError panics
// into errors. A nil root is a no-op; nil io runs against a fresh
// in-memory handler. Once the generator has refused a statement (see
// generator.err) the RAM program is known to be ill-formed for this engine's
// relations, and no tree runs.
func (e *Engine) execTree(io IOHandler, root *inode) (err error) {
	if e.gen.err != nil {
		return e.gen.err
	}
	if root == nil {
		return nil
	}
	if io == nil {
		io = NewMemIO()
	}
	ex := e.newExecutor(io)
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*RuntimeError); ok {
				err = re
				return
			}
			panic(r)
		}
	}()
	ctx := &context{}
	ex.eval(root, ctx)
	if ex.profile && e.prof != nil {
		// Dispatches outside any query (sequences, loops, IO) are folded
		// from the root context; per-query counters folded at query end.
		e.prof.dispatches += ctx.stats.dispatches
		e.prof.super += ctx.stats.super
	}
	return nil
}

// newExecutor is the walk state of one tree execution against io.
func (e *Engine) newExecutor(io IOHandler) *executor {
	if e.cfg.Profile && e.prof == nil {
		e.prof = newProfiler(e.prog.NumRules)
	}
	if e.cfg.Provenance && e.prov == nil {
		e.prov = newProvenance(len(e.prog.Relations))
	}
	return &executor{
		eng:     e,
		io:      io,
		prof:    e.prof,
		prov:    e.prov,
		tel:     e.tel,
		profile: e.cfg.Profile,
		count:   e.cfg.Profile || e.tel != nil,
		lean:    e.cfg.LeanDispatch,
		workers: e.cfg.Workers,
	}
}

// Run executes the whole program — load, eval, store — in one shot. io
// supplies inputs and receives outputs; nil uses a fresh in-memory handler
// (no inputs). The engine must be in PhaseNew; resident callers drive the
// phases individually instead.
func (e *Engine) Run(io IOHandler) error {
	e.genMain()
	if e.phase != PhaseNew {
		return fmt.Errorf("interp: Run in phase %s (want new; use Reset or the phase methods)", e.phase)
	}
	if io == nil {
		io = NewMemIO()
	}
	if e.cfg.Profile {
		e.prof = newProfiler(e.prog.NumRules)
	}
	if e.cfg.Provenance {
		e.prov = newProvenance(len(e.prog.Relations))
	}
	runStart := e.tel.Begin()
	for _, root := range []*inode{e.rootLoad, e.rootEval, e.rootStore} {
		if err := e.execTree(io, root); err != nil {
			return err
		}
	}
	e.phase = PhaseReady
	if e.tel != nil {
		e.tel.End(runStart, "run", "run")
		for _, rel := range e.rels {
			if rs := rel.Stats(); rs != nil {
				rs.FinalSize = rel.Size()
			}
		}
		e.tel.Finish()
	}
	return nil
}

// Load runs the program's input phase (IOLoad statements) against io,
// moving the engine from PhaseNew to PhaseLoaded.
func (e *Engine) Load(io IOHandler) error {
	e.genMain()
	if e.phase != PhaseNew {
		return fmt.Errorf("interp: Load in phase %s (want new)", e.phase)
	}
	if err := e.execTree(io, e.rootLoad); err != nil {
		return err
	}
	e.phase = PhaseLoaded
	return nil
}

// Eval runs the evaluation phase (facts, strata, fixpoint loops) to the
// full fixpoint, moving the engine to PhaseReady. Calling Eval directly
// from PhaseNew evaluates with no loaded inputs.
func (e *Engine) Eval() error {
	e.genMain()
	if e.phase == PhaseReady {
		return fmt.Errorf("interp: Eval in phase %s (already evaluated)", e.phase)
	}
	span := e.tel.Begin()
	if err := e.execTree(nil, e.rootEval); err != nil {
		return err
	}
	e.tel.End(span, "run", "eval")
	e.phase = PhaseReady
	return nil
}

// Store runs the output phase (IOStore/IOPrintSize statements) against io.
// It may be called any number of times once the engine is PhaseReady.
func (e *Engine) Store(io IOHandler) error {
	e.genMain()
	if e.phase != PhaseReady {
		return fmt.Errorf("interp: Store in phase %s (want ready)", e.phase)
	}
	return e.execTree(io, e.rootStore)
}

// EvalUpdate incrementally re-evaluates the program after fresh facts were
// staged with InsertFacts: it runs Program.Update, the delta-restart
// variant of every stratum, which derives only consequences of the fresh
// tuples. The engine stays PhaseReady. The update tree is generated on
// first use, so one-shot runs never pay for it.
func (e *Engine) EvalUpdate() error {
	if e.phase != PhaseReady {
		return fmt.Errorf("interp: EvalUpdate in phase %s (want ready)", e.phase)
	}
	if e.prog.Update == nil {
		if why := e.prog.NoUpdateReason; why != "" {
			return fmt.Errorf("interp: program has no update entry point: %s", why)
		}
		return fmt.Errorf("interp: program has no update entry point (not insert-monotone)")
	}
	if e.rootUpdate == nil {
		e.rootUpdate = e.gen.genStatement(e.prog.Update)
	}
	span := e.tel.Begin()
	err := e.execTree(nil, e.rootUpdate)
	e.tel.End(span, "run", "update")
	return err
}

// EvalDelete incrementally retracts the facts staged with DeleteFacts: it
// runs Program.Delete, which computes the exact set of tuples losing their
// last derivation (overdelete, then rederive, stratum by stratum) and
// removes them. The engine stays PhaseReady. The delete tree is generated
// on first use.
func (e *Engine) EvalDelete() error {
	if e.phase != PhaseReady {
		return fmt.Errorf("interp: EvalDelete in phase %s (want ready)", e.phase)
	}
	if e.prog.Delete == nil {
		if why := e.prog.NoDeleteReason; why != "" {
			return fmt.Errorf("interp: program has no delete entry point: %s", why)
		}
		return fmt.Errorf("interp: program has no delete entry point")
	}
	if e.rootDelete == nil {
		e.rootDelete = e.gen.genStatement(e.prog.Delete)
	}
	span := e.tel.Begin()
	err := e.execTree(nil, e.rootDelete)
	e.tel.End(span, "run", "delete")
	return err
}

// DeleteCounts reports the tuples every EvalDelete so far overdeleted and,
// of those, rederived; the difference is what the deletes really removed
// from derived relations.
func (e *Engine) DeleteCounts() (overdeleted, rederived uint64) {
	return e.overdeleted, e.rederived
}

// DeleteFacts stages encoded tuples of a source relation for retraction: the
// tuples currently present are recorded in the relation's del_R tracker for
// a following EvalDelete, which decides what else dies with them and performs
// all physical removal. Nothing is removed here — queries keep observing the
// old state until EvalDelete runs. Tuples not present are ignored. It reports
// how many tuples were staged.
func (e *Engine) DeleteFacts(name string, tuples []tuple.Tuple) (int, error) {
	rd := e.decl(name)
	if rd == nil {
		return 0, fmt.Errorf("unknown relation %s", name)
	}
	del := e.del[rd.ID]
	if del == nil {
		if why := e.prog.NoDeleteReason; why != "" {
			return 0, fmt.Errorf("relation %s has no retraction tracker: %s", name, why)
		}
		return 0, fmt.Errorf("relation %s has no retraction tracker", name)
	}
	rel := e.rels[rd.ID]
	staged := 0
	for _, t := range tuples {
		if len(t) != rd.Arity {
			return staged, fmt.Errorf("relation %s has arity %d, got a tuple of %d values", name, rd.Arity, len(t))
		}
		if rel.Contains(t) && del.Insert(t) {
			staged++
		}
	}
	return staged, nil
}

// Reset clears every relation outside the keep set (nil keeps none),
// scratch relations and freshness trackers included, and returns the
// engine to PhaseNew, keeping the generated trees and index structures for
// reuse. A resident database keeps its EDB relations.
func (e *Engine) Reset(keep func(*relation.Relation) bool) {
	for _, r := range e.rels {
		if keep == nil || !keep(r) {
			r.Clear()
		}
	}
	e.prof = nil
	e.prov = nil
	e.phase = PhaseNew
}

// InsertFacts inserts encoded tuples directly into a source relation,
// bypassing IO. Tuples not already present are also staged into the
// relation's recent_R freshness tracker (when the program has one) so a
// following EvalUpdate restarts from exactly the fresh set. It reports how
// many tuples were newly added.
func (e *Engine) InsertFacts(name string, tuples []tuple.Tuple) (int, error) {
	rd := e.decl(name)
	if rd == nil {
		return 0, fmt.Errorf("unknown relation %s", name)
	}
	rel := e.rels[rd.ID]
	recent := e.recent[rd.ID]
	added := 0
	for _, t := range tuples {
		if len(t) != rd.Arity {
			return added, fmt.Errorf("relation %s has arity %d, got a tuple of %d values", name, rd.Arity, len(t))
		}
		if rel.Insert(t) {
			added++
			if recent != nil {
				recent.Insert(t)
			}
		}
	}
	return added, nil
}

// ClearRecents drains every recent_R freshness tracker, for callers that
// stage facts through InsertFacts but then evaluate with Eval, which never
// runs the update program that normally drains them.
func (e *Engine) ClearRecents() {
	for _, r := range e.recent {
		if r != nil {
			r.Clear()
		}
	}
}

// decl returns the declaration of a non-aux relation by name, or nil.
func (e *Engine) decl(name string) *ram.Relation {
	for _, rd := range e.prog.Relations {
		if rd.Name == name && !rd.IsAux() {
			return rd
		}
	}
	return nil
}

// Query returns the tuples of a relation matching a partially bound
// pattern: mask[i] set means position i must equal pattern[i]. Rows come back
// in primary-index order whatever index answers, and are safe to retain.
// covered reports that an index answers the bound set (matchIndex), so the
// answer is one prefix scan touching only matching rows. Otherwise the answer
// prefix-scans the primary on its longest bound prefix and filters the other
// bound positions. An eqrel's (_, b) is the covered mirror of (b, _): the
// relation is symmetric, so its scan swapped is the answer.
func (e *Engine) Query(name string, pattern tuple.Tuple, mask []bool) (out []tuple.Tuple, covered bool, err error) {
	rd := e.decl(name)
	if rd == nil {
		return nil, false, fmt.Errorf("unknown relation %s", name)
	}
	if len(pattern) != rd.Arity || len(mask) != rd.Arity {
		return nil, false, fmt.Errorf("relation %s has arity %d, got a pattern of %d values", name, rd.Arity, len(pattern))
	}
	rel := e.rels[rd.ID]
	if !slices.Contains(mask, true) {
		out, err = e.Tuples(name)
		return out, true, err
	}
	mirror := rel.Rep() == relation.EqRel && !mask[0] && mask[1]
	if mirror {
		pattern, mask = tuple.Tuple{pattern[1], pattern[0]}, []bool{true, false}
	}
	idx, k := matchIndex(rel, mask)
	covered = idx != nil
	if !covered {
		idx = rel.Primary()
		for k < len(mask) && mask[idx.Order()[k]] {
			k++
		}
	}
	rows := &rowCollector{arity: rd.Arity, mirror: mirror}
	if !covered {
		rows.pattern, rows.mask = pattern, mask
	}
	idx.Order().Encode(rows.prefix[:rd.Arity], pattern)
	relation.Walk(idx, rows.prefix[:], k, rows)
	return rows.out, covered, nil
}

// rowCollector is the relation.Visitor of a served query: each tuple is
// decoded into a fresh row that is kept when it matches, so a covered query
// allocates the rows it returns and, on a B-tree, nothing per tuple besides.
// A row that fails the filter is the slot of the next tuple.
type rowCollector struct {
	out    []tuple.Tuple
	next   tuple.Tuple
	arity  int
	mirror bool // swap the two columns of a kept row (an eqrel's mirror)
	// pattern and mask filter the rows of an uncovered answer (mask nil:
	// every row matches).
	pattern tuple.Tuple
	mask    []bool
	prefix  [relation.MaxArity]value.Value // the encoded search prefix
}

func (c *rowCollector) Slot() tuple.Tuple {
	if c.next == nil {
		c.next = make(tuple.Tuple, c.arity)
	}
	return c.next
}

func (c *rowCollector) Visit(t tuple.Tuple) bool {
	if !matches(t, c.pattern, c.mask) {
		return true
	}
	if c.mirror {
		t[0], t[1] = t[1], t[0]
	}
	c.out = append(c.out, t)
	c.next = nil
	return true
}

func matches(t, pattern tuple.Tuple, mask []bool) bool {
	for i, b := range mask {
		if b && t[i] != pattern[i] {
			return false
		}
	}
	return true
}

// matchIndex finds an index that answers the bound set in primary order: its
// first k positions are exactly the k bound ones, and the free positions
// follow in the primary's relative order (the tail of ServedOrder), so its
// prefix scan yields the matching rows in the order the primary holds them.
func matchIndex(rel *relation.Relation, mask []bool) (relation.Index, int) {
	primary := rel.Primary().Order()
	k := 0
	for _, b := range mask {
		if b {
			k++
		}
	}
	for i := 0; i < rel.NumIndexes(); i++ {
		idx := rel.Index(i)
		if serves(idx.Order(), primary, mask, k) {
			return idx, k
		}
	}
	return nil, 0
}

// serves reports whether order is ServedOrder(primary, mask) up to the order
// of its first k, bound, positions.
func serves(order, primary tuple.Order, mask []bool, k int) bool {
	for _, p := range order[:k] {
		if !mask[p] {
			return false
		}
	}
	j := k
	for _, p := range primary {
		if !mask[p] {
			if order[j] != p {
				return false
			}
			j++
		}
	}
	return true
}

// ServedOrder is the order that answers a bound set in primary order: the
// primary's order with the bound positions moved to the front, each group
// keeping its relative order. A prefix scan of it and a filtered scan of the
// primary return the same rows in the same order.
func ServedOrder(primary tuple.Order, mask []bool) tuple.Order {
	order := make(tuple.Order, 0, len(primary))
	for _, bound := range []bool{true, false} {
		for _, p := range primary {
			if mask[p] == bound {
				order = append(order, p)
			}
		}
	}
	return order
}

// AddOrder gives a relation the index that answers a bound set in primary
// order (ServedOrder), bulk-loaded from the primary, and returns its order, or
// nil when an index already answers the bound set. It drops the generated
// trees: their specialized inserts cached the relation's index list, so Main,
// Update and Delete regenerate on their next run. The relation must be a
// declared, unsharded, non-eqrel one. Call it only while nothing else reads
// the engine.
func (e *Engine) AddOrder(name string, mask []bool) tuple.Order {
	rel := e.rels[e.decl(name).ID]
	if idx, _ := matchIndex(rel, mask); idx != nil {
		return nil
	}
	order := ServedOrder(rel.Primary().Order(), mask)
	rel.AddIndex(order)
	e.rootLoad, e.rootEval, e.rootStore, e.rootUpdate, e.rootDelete = nil, nil, nil, nil, nil
	e.regen = true
	return order
}

// ScanRange returns the tuples of a relation whose first attribute lies in
// [lo, hi], compared under the attribute's declared type. The result is in
// primary-index order. A primary that leads with the first attribute is
// range-scanned on the storage interval of [lo, hi] (relation.Bound.Keys),
// which the typed comparison then filters exactly.
func (e *Engine) ScanRange(name string, lo, hi value.Value) ([]tuple.Tuple, error) {
	rd := e.decl(name)
	if rd == nil {
		return nil, fmt.Errorf("unknown relation %s", name)
	}
	if rd.Arity == 0 {
		return nil, fmt.Errorf("relation %s has no attributes to range over", name)
	}
	typ := rd.Types[0]
	var out []tuple.Tuple
	rel := e.rels[rd.ID]
	var it relation.Iterator
	if primary := rel.Primary(); primary.Order()[0] == 0 {
		b := relation.Bound{Type: typ, Lo: lo, Hi: hi, HasLo: true, HasHi: true}
		klo, khi, ok := b.Keys()
		if !ok {
			return nil, nil
		}
		it = relation.NewDecoder(relation.RangeScan(primary, nil, 0, klo, khi), primary.Order())
	} else {
		it = rel.Scan()
	}
	for {
		t, ok := it.Next()
		if !ok {
			return out, nil
		}
		if rtl.Compare(ram.CmpGE, typ, t[0], lo) && rtl.Compare(ram.CmpLE, typ, t[0], hi) {
			out = append(out, tuple.Clone(t))
		}
	}
}

// walkRelational calls fn on every generated node that accesses a
// relation's indexes, tree by tree in generation order (update and delete
// trees once their first batch has generated them).
func (e *Engine) walkRelational(fn func(*inode)) {
	var walk func(n *inode)
	walk = func(n *inode) {
		if n == nil {
			return
		}
		if n.rel != nil && n.idx != nil || n.orders != nil {
			fn(n)
		}
		for _, c := range n.children {
			walk(c)
		}
		walk(n.cond)
		walk(n.target)
		walk(n.nested)
	}
	for _, root := range []*inode{e.rootLoad, e.rootEval, e.rootStore, e.rootUpdate, e.rootDelete} {
		walk(root)
	}
}

// RelationalOps returns the opcode of every node walkRelational visits. Two
// engines over one program dispatch the same instructions exactly when these
// agree; tests compare configurations with it.
func (e *Engine) RelationalOps() (ops []uint16) {
	e.walkRelational(func(n *inode) { ops = append(ops, uint16(n.op)) })
	return ops
}

// Telemetry returns the engine's attached collector (nil unless
// Config.Metrics was set).
func (e *Engine) Telemetry() *metrics.Collector { return e.tel }

// TotalTuples reports the number of tuples across all relations after a
// run, for throughput metrics in the benchmarks.
func (e *Engine) TotalTuples() int {
	total := 0
	for _, r := range e.rels {
		total += r.Size()
	}
	return total
}

// Profile returns the profiling report of the last Run (nil unless
// Config.Profile was set). When the run also carried a metrics collector,
// the engine-wide telemetry snapshot is attached.
func (e *Engine) Profile() *Profile {
	if e.prof == nil {
		return nil
	}
	p := e.prof.report()
	p.Telemetry = e.tel.Report()
	return p
}

// Relation returns the runtime relation by name, or nil.
func (e *Engine) Relation(name string) *relation.Relation {
	for i, rd := range e.prog.Relations {
		if rd.Name == name {
			return e.rels[i]
		}
	}
	return nil
}

// Tuples returns all tuples of a relation in primary-index order (the
// encoded lexicographic order of index 0, decoded to source coordinates).
// That order is deterministic across runs and engines for identical
// contents, which the public API relies on for stable query results.
func (e *Engine) Tuples(name string) ([]tuple.Tuple, error) {
	rel := e.Relation(name)
	if rel == nil {
		return nil, fmt.Errorf("unknown relation %s", name)
	}
	rows := &rowCollector{arity: rel.Arity()}
	relation.Walk(rel.Primary(), nil, 0, rows)
	return rows.out, nil
}

// SymbolTable exposes the engine's symbol table.
func (e *Engine) SymbolTable() *symtab.Table { return e.st }
