package sti

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"sti/internal/eio"
	"sti/internal/interp"
	"sti/internal/obsv"
	"sti/internal/ram"
	"sti/internal/relation"
	"sti/internal/tuple"
	"sti/internal/value"
)

// Database is a resident instance of a program: the materialized IDB stays
// loaded between calls, fact batches are absorbed with Apply, and reads are
// served straight from the resident indexes. One goroutine may Apply at a
// time (writers serialize on an internal lock); any number of goroutines
// may Query/Scan concurrently — readers share epoch-guarded snapshots and
// never block each other, and never observe a half-applied batch.
//
// Insert-only batches of an insert-monotone program (no negation, no
// aggregates) re-evaluate incrementally via the program's delta-restart
// update entry point. Batches with deletions run incrementally too when the
// program is deletable (overdelete/rederive, stratum by stratum) and every
// deletion targets an input relation; otherwise the batch falls back to a
// full recomputation from the EDB, the facts applied and not since deleted, and Stats records
// why.
type Database struct {
	prog  *Program
	eng   *interp.Engine
	guard relation.EpochGuard

	// The EDB exists once: edb maps each declared relation to the engine
	// relation holding its asserted facts, or to nil for the one named
	// exception, a relation whose engine contents are not its asserted facts.
	// That is one with a proper rule, input-and-derived ones included, or an
	// eqrel, which holds the closure rather than the asserted pairs. Its
	// facts live in asserted, one B-tree set per relation holding any.
	edb      map[string]*relation.Relation
	asserted map[string]*relation.Relation

	// closed and broken are the lifecycle state, atomic so health probes
	// (Ready) never block behind an in-flight Apply. broken holds the error
	// of a database whose engine hit a runtime error mid-apply and may hold
	// a partial fixpoint; every later operation fails with it.
	closed atomic.Bool
	broken atomic.Pointer[error]

	applies        uint64
	incremental    uint64
	recomputes     uint64 // fallback applies; recovery evaluates without one
	fallbackReason string // why the most recent apply fell back
	// fallbackCounts tallies recompute fallbacks by reason, feeding the
	// sti_apply_fallbacks_total exposition series and DBStats.
	fallbackCounts map[string]uint64

	// obs is the request-scoped observability hub (nil unless opened
	// WithObservability).
	obs *obsv.Observer

	// phaseV mirrors the engine's phase, which is not atomic, and epochV
	// carries the epoch an in-flight Apply will publish, ahead of the
	// guard's. They let Phase, Ready and slow-request records read both
	// without blocking behind an Apply.
	phaseV atomic.Int32
	epochV atomic.Uint64

	// readProf is the lock-free engine profile for slow read records
	// (observe.go); allocated once so the read hot path stays allocation-free.
	readProf *readProfile

	// pst is the durability state (nil unless opened WithPersistence): the
	// WAL/snapshot protocol that makes Apply batches survive restarts
	// (persist.go). It changes nothing about how relations are built.
	pst *persistence

	// served builds an index for a query pattern no index order covers
	// (served.go).
	served servedOrders
}

// Open evaluates the program to its initial fixpoint (program facts only;
// EDB arrives through Apply) and returns a resident database. The
// interpreter backend is required, and provenance is not supported.
//
// With WithPersistence, the data directory's snapshot + WAL restore the EDB
// first (so a restarted database resumes at its last applied batch, even
// after a crash), and the recovered state is checkpointed before Open returns.
func (p *Program) Open(opts ...Option) (*Database, error) {
	o := resolveOptions(opts)
	if o.backend == Compiled {
		return nil, errors.New("sti: resident databases require the interpreter backend")
	}
	if o.provenance {
		return nil, errors.New("sti: resident databases do not support provenance")
	}
	// WithProfiling is a one-shot option; a resident database does not profile.
	o.profile = false
	cfg := o.interpConfig()
	var pst *persistence
	if o.persist != nil {
		var err error
		if pst, err = openPersistence(p, *o.persist); err != nil {
			return nil, err
		}
	}
	eng := interp.New(p.ram, p.st, cfg)
	db := &Database{
		prog:           p,
		eng:            eng,
		edb:            map[string]*relation.Relation{},
		asserted:       map[string]*relation.Relation{},
		fallbackCounts: map[string]uint64{},
		obs:            o.obs,
		pst:            pst,
	}
	for _, rd := range p.ram.Relations {
		// Program-text facts share an EDB relation with applied ones. Such an
		// input relation is not deletable ("both input and derived"), so a
		// deletion from it recomputes, and Eval re-inserts the program facts.
		if !rd.IsAux() {
			db.edb[rd.Name] = nil // derived or eqrel: the exception
			if rd.Rep != ram.RepEqRel && !p.sem.Rel(rd.Name).HasProperRule() {
				db.edb[rd.Name] = eng.Relation(rd.Name)
			}
		}
	}
	if pst != nil {
		if err := pst.recover(db); err != nil {
			pst.abandon()
			return nil, err
		}
	} else if err := eng.Eval(); err != nil {
		return nil, err
	}
	db.phaseV.Store(int32(eng.Phase()))
	db.epochV.Store(db.guard.Epoch())
	db.readProf = &readProfile{db: db}
	return db, nil
}

// Incremental reports whether the program supports incremental insert-only
// batches (it is insert-monotone, so a delta-restart update program was
// emitted at translation time).
func (db *Database) Incremental() bool { return db.eng.Incremental() }

// Deletable reports whether the program supports incremental deletion
// batches (a DRed delete program was emitted at translation time).
func (db *Database) Deletable() bool { return db.eng.Deletable() }

// Epoch returns the number of completed Apply calls (including Close).
func (db *Database) Epoch() uint64 { return db.guard.Epoch() }

// Close marks the database closed; subsequent operations fail. It waits
// for in-flight snapshots and writers. A persistent database checkpoints
// (final snapshot, synced WAL) and releases its data directory, so the next
// Open recovers from a clean generation with nothing to replay.
func (db *Database) Close() error {
	db.guard.BeginWrite()
	defer db.guard.EndWrite()
	if db.closed.Swap(true) {
		return nil
	}
	if db.pst != nil {
		if db.broken.Load() != nil {
			// The engine state is undefined; keep the last good snapshot and
			// the WAL (which already holds every applied batch) for recovery.
			db.pst.abandon()
			return nil
		}
		return db.pst.shutdown(db)
	}
	return nil
}

// abandon closes the database without checkpointing or flushing, leaving
// the data directory exactly as a process crash would: last snapshot plus
// the WAL records whose Apply returned. Test hook for crash recovery.
func (db *Database) abandon() {
	db.guard.BeginWrite()
	defer db.guard.EndWrite()
	db.closed.Store(true)
	if db.pst != nil {
		db.pst.abandon()
	}
}

// fail marks the database broken — the engine hit a runtime error mid-apply
// and may hold a partial fixpoint — and passes the original error through.
func (db *Database) fail(err error) error {
	broken := fmt.Errorf("sti: apply failed, database state undefined: %w", err)
	db.broken.Store(&broken)
	return err
}

// usable fails once the database is closed or broken.
func (db *Database) usable() error {
	if db.closed.Load() {
		return ErrClosed
	}
	if broken := db.broken.Load(); broken != nil {
		return *broken
	}
	return nil
}

// ErrClosed is returned by Ready and by every operation on a database after
// Close; test for it with errors.Is.
var ErrClosed = errors.New("sti: database is closed")

var errForeignBatch = errors.New("sti: batch was staged on another database")

// --- batches ---

// Batch stages fact insertions and deletions for one Apply call. Values
// convert like Input.Add. Within a batch, deletions apply after
// insertions. Deleting a fact that was never applied is a no-op; only facts
// added through Apply can be deleted (program facts and derived tuples
// cannot — a deletion naming a non-input relation forces the recompute
// fallback).
type Batch struct {
	db   *Database
	ins  []batchFact
	dels []batchFact
	err  error

	// pos is the source position attributed to text-staging errors, set
	// with At. Line protocols use it so parse failures surface as typed
	// *eio.RowError values with fact-file-style path:line:col positions.
	pos struct {
		path    string
		line    int
		colBase int
	}
}

type batchFact struct {
	rel string
	t   tuple.Tuple
}

// NewBatch returns an empty batch for the database.
func (db *Database) NewBatch() *Batch { return &Batch{db: db} }

// Add stages one fact insertion.
func (b *Batch) Add(name string, values ...any) *Batch {
	if f, ok := b.encode(name, values); ok {
		b.ins = append(b.ins, f)
	}
	return b
}

// Delete stages one fact deletion.
func (b *Batch) Delete(name string, values ...any) *Batch {
	if f, ok := b.encode(name, values); ok {
		b.dels = append(b.dels, f)
	}
	return b
}

// At sets the source position attributed to parse errors of subsequently
// staged text facts: path and 1-based line in fact-file style, plus the
// 1-based byte column where the first field starts on that line (line
// protocols carry a "+rel<TAB>" prefix before the fields). With a position
// set, AddText/DeleteText failures are typed *eio.RowError values rendering
// as path:line:col; without one they are plain errors.
func (b *Batch) At(path string, line, colBase int) *Batch {
	b.pos.path = path
	b.pos.line = line
	b.pos.colBase = colBase
	return b
}

// AddText stages one insertion from tab-separated text fields, parsed by
// attribute type with the fact-file conventions (quoted symbols allowed).
func (b *Batch) AddText(name string, fields []string) *Batch {
	if f, ok := b.encodeText(name, fields); ok {
		b.ins = append(b.ins, f)
	}
	return b
}

// DeleteText stages one deletion from tab-separated text fields.
func (b *Batch) DeleteText(name string, fields []string) *Batch {
	if f, ok := b.encodeText(name, fields); ok {
		b.dels = append(b.dels, f)
	}
	return b
}

// Err returns the first conversion error, if any (also returned by Apply).
func (b *Batch) Err() error { return b.err }

// Len reports the number of staged insertions and deletions.
func (b *Batch) Len() int { return len(b.ins) + len(b.dels) }

func (b *Batch) encode(name string, values []any) (batchFact, bool) {
	if b.err != nil {
		return batchFact{}, false
	}
	t, err := b.db.prog.encodeTuple(name, values, false)
	if err != nil {
		b.err = err
		return batchFact{}, false
	}
	return batchFact{rel: name, t: t}, true
}

func (b *Batch) encodeText(name string, fields []string) (batchFact, bool) {
	if b.err != nil {
		return batchFact{}, false
	}
	t, off, err := b.db.prog.parseTuple(name, fields, false)
	if err != nil {
		col := 0 // a whole-row problem
		if off >= 0 {
			col = b.pos.colBase + off
		}
		b.err = b.textErr(name, col, err)
		return batchFact{}, false
	}
	return batchFact{rel: name, t: t}, true
}

// textErr wraps a text-staging failure. With a position set through At the
// result is a typed *eio.RowError (col 0 marks a whole-row problem);
// otherwise a plain error.
func (b *Batch) textErr(name string, col int, err error) error {
	if b.pos.path != "" {
		return &eio.RowError{Path: b.pos.path, Line: b.pos.line, Col: col, Rel: name, Err: err}
	}
	return fmt.Errorf("sti: relation %s: %v", name, err)
}

// Apply absorbs a batch and re-evaluates the database to the new fixpoint.
// Insert-only batches of incremental programs run the delta-restart update
// program: each stratum is re-entered seeded only with the fresh tuples.
// Batches with deletions run the update program for the insertions and then
// the delete program (DRed) for the retractions, provided the
// program is deletable and every deletion targets an input relation.
// Otherwise the engine recomputes from the EDB, recording the reason in
// Stats. Apply blocks until all outstanding snapshots are released, and
// bumps the epoch. A batch staged on another Database is refused: its
// symbols were interned in that database's table.
func (db *Database) Apply(b *Batch) error {
	req := db.obs.Start(obsv.OpApply, "")
	if b.err != nil || b.db != db {
		req.Finish(obsv.OutError, nil)
		return cmp.Or(b.err, errForeignBatch)
	}
	db.guard.BeginWrite()
	defer db.guard.EndWrite()
	out, err := db.applyLocked(b)
	if err == nil && db.pst != nil {
		db.pst.sinceSnap++
		if db.pst.cfg.SnapshotEvery > 0 && db.pst.sinceSnap >= db.pst.cfg.SnapshotEvery {
			// Periodic checkpoint bounds the WAL replay a restart pays. A
			// checkpoint failure breaks the database: the WAL rotation may
			// be half-done, and durability can no longer be promised.
			if cerr := db.pst.checkpoint(db); cerr != nil {
				out, err = obsv.OutError, db.fail(cerr)
			}
		}
	}
	db.phaseV.Store(int32(db.eng.Phase()))
	// The deferred EndWrite publishes guard.Epoch()+1 whether the batch
	// succeeded or not; mirror it now so the slow-request record below and
	// concurrent probes report the epoch this Apply produced.
	db.epochV.Store(db.guard.Epoch() + 1)
	// Finish while the writer lock is held: the slow-request profile
	// (Database.SlowAttrs) reads lock-guarded counters.
	req.Finish(out, db)
	return err
}

// applyLocked is the body of Apply, run under the writer lock. It returns
// the outcome classification for the request's latency series alongside the
// user-visible error.
func (db *Database) applyLocked(b *Batch) (obsv.Outcome, error) {
	if err := db.usable(); err != nil {
		return obsv.OutError, err
	}
	if db.pst != nil {
		// Write-ahead: the batch is durable before any state changes, so a
		// crash at any later point replays it on restart. A WAL failure
		// breaks the database — continuing would silently drop durability.
		if err := db.pst.logBatch(db, b); err != nil {
			return obsv.OutError, db.fail(err)
		}
	}
	db.served.build(db)
	db.applies++
	out, reason := db.classify(b)
	// An exception relation's facts go to its asserted set on every path; an
	// EDB relation's reach the engine through place only on the fallback.
	if err := db.place(b.ins, b.dels, out == obsv.OutFallback); err != nil {
		return obsv.OutError, db.fail(err)
	}
	var err error
	switch out {
	case obsv.OutIncremental, obsv.OutIncrementalDelete:
		err = db.applyIncremental(b)
	default:
		db.fallbackReason = reason
		db.fallbackCounts[reason]++
		err = db.recompute()
	}
	if err != nil {
		return obsv.OutError, err
	}
	if out != obsv.OutFallback {
		db.incremental++
	}
	return out, nil
}

// classify is the one place that decides how a batch reaches the new
// fixpoint — the update entry point (OutIncremental), update then delete
// (OutIncrementalDelete), or a full recomputation from the EDB
// (OutFallback) — and, for the last, why the incremental path was lost.
// Stats().FallbackReason, the per-reason fallback counts and the request
// outcome all come from its result. Insert-only batches need the update
// entry point; batches with deletions also need the delete entry point and
// may only retract input relations.
func (db *Database) classify(b *Batch) (obsv.Outcome, string) {
	reason := ""
	switch {
	case len(b.dels) == 0:
		if db.eng.Incremental() {
			return obsv.OutIncremental, ""
		}
		reason = db.eng.NoUpdateReason()
	case !db.eng.Deletable():
		reason = db.eng.NoDeleteReason()
	default:
		for _, f := range b.dels {
			// Staging already resolved every relation name.
			if decl, _ := db.prog.decl(f.rel); decl == nil || !decl.Input {
				return obsv.OutFallback, fmt.Sprintf("batch deletes tuples of %q, which is not an input relation", f.rel)
			}
		}
		// Retraction attributes each tuple to the EDB or to rules. A fact
		// applied to a derived relation is held up by both, so while one is
		// asserted, deletions recompute.
		if len(db.asserted) > 0 || slices.ContainsFunc(b.ins, func(f batchFact) bool { return db.edb[f.rel] == nil }) {
			return obsv.OutFallback, "facts applied to a derived relation: retraction cannot attribute its tuples"
		}
		return obsv.OutIncrementalDelete, ""
	}
	if reason == "" {
		reason = "program has no incremental entry point"
	}
	return obsv.OutFallback, reason
}

// place writes facts (live, replayed from the WAL, or read back from a
// snapshot) where they live, deletions after insertions: an exception
// relation's into its asserted set, dropped once empty, and an EDB
// relation's into its engine relation unless engine is false (the
// incremental paths stage those through the entry points). Live batches were
// checked at staging; for facts read back from disk this is where a relation
// or arity the program does not declare is refused.
func (db *Database) place(ins, dels []batchFact, engine bool) error {
	for i, facts := range [2][]batchFact{ins, dels} {
		for _, f := range facts {
			rel, declared := db.edb[f.rel]
			if declared && rel == nil {
				if rel = db.asserted[f.rel]; rel == nil {
					rel = relation.New(f.rel, relation.BTree, db.eng.Relation(f.rel).Arity(), nil)
					db.asserted[f.rel] = rel
				}
			} else if declared && !engine {
				continue
			}
			if rel == nil || rel.Arity() != len(f.t) {
				return fmt.Errorf("sti: fact %s/%d does not match the program", f.rel, len(f.t))
			}
			if i == 0 {
				rel.Insert(f.t)
			} else {
				rel.Delete(f.t)
			}
		}
	}
	for name, s := range db.asserted {
		if s.Empty() {
			delete(db.asserted, name)
		}
	}
	return nil
}

// groupByRel splits batch facts per relation, preserving batch order both
// across relations (first appearance) and within each relation.
func groupByRel(facts []batchFact) (order []string, grouped map[string][]tuple.Tuple) {
	grouped = map[string][]tuple.Tuple{}
	for _, f := range facts {
		if _, seen := grouped[f.rel]; !seen {
			order = append(order, f.rel)
		}
		grouped[f.rel] = append(grouped[f.rel], f.t)
	}
	return order, grouped
}

// applyIncremental absorbs a batch through the entry points, deletions after
// insertions: fresh tuples are staged into the base relations and their
// recent_R trackers and run through the update program, then retractions
// are staged into del_R and run through the delete program, which removes
// exactly the derived tuples losing their last support together with the
// retracted facts. A half that stages nothing (facts already present, or
// never present) runs no program.
func (db *Database) applyIncremental(b *Batch) error {
	stage := [2]func(string, []tuple.Tuple) (int, error){db.eng.InsertFacts, db.eng.DeleteFacts}
	eval := [2]func() error{db.eng.EvalUpdate, db.eng.EvalDelete}
	for i, facts := range [2][]batchFact{b.ins, b.dels} {
		order, staged := groupByRel(facts)
		total := 0
		for _, name := range order {
			n, err := stage[i](name, staged[name])
			if err != nil {
				return db.fail(err)
			}
			total += n
		}
		if total > 0 {
			if err := eval[i](); err != nil {
				return db.fail(err)
			}
		}
	}
	return nil
}

// recompute rebuilds the fixpoint from the EDB: clear every relation but the
// EDB relations, then evaluate. Relation and index structures are reused
// across recomputations.
func (db *Database) recompute() error {
	db.eng.Reset(func(r *relation.Relation) bool { return db.edb[r.Name] == r })
	if err := db.evaluate(); err != nil {
		return db.fail(err)
	}
	db.recomputes++
	return nil
}

// evaluate runs the program to its fixpoint over the EDB relations as they
// stand, after writing facts applied to a derived or eqrel relation back
// from their asserted sets: that is how they survive a recompute and a
// restart. Nothing is staged in a recent_R tracker, so none needs draining.
func (db *Database) evaluate() error {
	for name, s := range db.asserted {
		db.eng.Relation(name).InsertFrom(s)
	}
	return db.eng.Eval()
}

// --- reads ---

// Snapshot pins a consistent view of the database. Queries on the snapshot
// all observe the same epoch; Apply calls block until it is released, so
// snapshots should be short-lived. Use one snapshot per goroutine.
func (db *Database) Snapshot() *Snapshot {
	return &Snapshot{db: db, h: db.guard.Acquire()}
}

// Snapshot is a pinned read view of a Database. It is not safe for
// concurrent use by multiple goroutines; each reader acquires its own.
type Snapshot struct {
	db *Database
	h  *relation.SnapshotHandle
}

// Epoch reports the epoch this snapshot pinned.
func (s *Snapshot) Epoch() uint64 { return s.h.Epoch() }

// Release unpins the snapshot, letting writers proceed. Releasing twice is
// a no-op; using a released snapshot fails.
func (s *Snapshot) Release() { s.h.Release() }

func (s *Snapshot) check() error {
	if s.h.Released() {
		return errors.New("sti: snapshot already released")
	}
	return s.db.usable()
}

// Query returns the decoded rows of a relation matching a pattern. With no
// pattern, all rows are returned; otherwise one value per attribute, where
// nil is a wildcard and anything else must match (converted like
// Input.Add, except that a symbol is only looked up: one the database never
// stored matches nothing, and the query is a miss). Rows come back in
// primary-index order, whichever index answers.
//
// A pattern costs what it touches when some index order starts with its
// bound positions: one prefix scan over the matching rows. A bound set no
// order covers is answered by prefix-scanning the primary on its longest
// bound prefix and filtering the rest, which may touch the whole relation;
// the database records the bound set, and the next Apply builds an order for
// it (at most two per relation; none for sharded or eqrel relations, where an
// eqrel's (_, b) is answered as the mirror of (b, _)). Stats counts the scans
// in QueryScans and lists the orders built in ServedOrders.
func (s *Snapshot) Query(name string, pattern ...any) ([][]any, error) {
	decl, ts, err := s.match(name, len(pattern), "argument", func(i int, ty value.Type) (value.Value, bool, error) {
		if pattern[i] == nil {
			return 0, false, nil
		}
		w, err := s.db.prog.encode(ty, pattern[i], true)
		return w, true, err
	})
	if err != nil {
		return nil, err
	}
	return s.db.decodeRows(decl, ts), nil
}

// match answers a query pattern of n fields (none: every row) and returns
// the relation's declaration with the matching rows. enc converts field i
// to attribute type ty, reporting a wildcard as unbound; a field naming a
// symbol the database never stored (errNotStored) makes the query a miss,
// which no row matches. unit names a field in errors.
func (s *Snapshot) match(name string, n int, unit string, enc func(i int, ty value.Type) (value.Value, bool, error)) (*ram.Relation, []tuple.Tuple, error) {
	if err := s.check(); err != nil {
		return nil, nil, err
	}
	decl, err := s.db.prog.decl(name)
	if err != nil {
		return nil, nil, err
	}
	if n > 0 && n != decl.Arity {
		return nil, nil, fmt.Errorf("sti: relation %s has arity %d, got a pattern of %d %ss", name, decl.Arity, n, unit)
	}
	probe := make(tuple.Tuple, decl.Arity)
	mask := make([]bool, decl.Arity)
	miss := false
	for i := range n {
		w, bound, err := enc(i, decl.Types[i])
		switch {
		case errors.Is(err, errNotStored):
			miss = true // no row can match; keep checking the other fields
		case err != nil:
			return nil, nil, fmt.Errorf("sti: %s %s %d: %v", name, unit, i, err)
		}
		probe[i], mask[i] = w, bound
	}
	if miss {
		return decl, nil, nil
	}
	ts, err := s.lookup(name, probe, mask)
	return decl, ts, err
}

// lookup answers a pattern through the engine. An answer no index covered
// records its bound set, so the next Apply builds an order for it.
func (s *Snapshot) lookup(name string, probe tuple.Tuple, mask []bool) ([]tuple.Tuple, error) {
	ts, covered, err := s.db.eng.Query(name, probe, mask)
	if err == nil && !covered {
		s.db.served.miss(s.db.eng.Relation(name), mask)
	}
	return ts, err
}

// QueryText runs Query with text pattern fields ("_" is a wildcard; an
// empty pattern returns all rows) and returns rows rendered in fact-file
// form. It backs the sti serve line protocol.
func (s *Snapshot) QueryText(name string, pattern []string) ([][]string, error) {
	decl, ts, err := s.match(name, len(pattern), "field", func(i int, ty value.Type) (value.Value, bool, error) {
		if pattern[i] == "_" {
			return 0, false, nil
		}
		w, err := s.db.prog.parseField(pattern[i], ty, true)
		return w, true, err
	})
	if err != nil {
		return nil, err
	}
	out := make([][]string, 0, len(ts))
	for _, t := range ts {
		row := make([]string, len(t))
		for i, w := range t {
			row[i] = eio.FormatField(w, decl.Types[i], s.db.prog.st)
		}
		out = append(out, row)
	}
	return out, nil
}

// Scan returns the decoded rows of a relation whose first attribute lies
// in [lo, hi] (values converted like Input.Add), in primary-index order.
func (s *Snapshot) Scan(name string, lo, hi any) ([][]any, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	decl, err := s.db.prog.decl(name)
	if err != nil {
		return nil, err
	}
	if decl.Arity == 0 {
		return nil, fmt.Errorf("sti: relation %s has no attributes to range over", name)
	}
	loW, err := s.db.prog.scanBound(decl.Types[0], lo)
	if err != nil {
		return nil, fmt.Errorf("sti: %s lower bound: %v", name, err)
	}
	hiW, err := s.db.prog.scanBound(decl.Types[0], hi)
	if err != nil {
		return nil, fmt.Errorf("sti: %s upper bound: %v", name, err)
	}
	ts, err := s.db.eng.ScanRange(name, loW, hiW)
	if err != nil {
		return nil, err
	}
	return s.db.decodeRows(decl, ts), nil
}

// scanBound converts one Scan bound like a read, without interning: a
// symbol range is a range over ordinals, and a symbol no tuple holds takes
// the ordinal the next interned symbol would get, above every stored one.
func (p *Program) scanBound(ty value.Type, v any) (value.Value, error) {
	w, err := p.encode(ty, v, true)
	if errors.Is(err, errNotStored) {
		return value.Value(p.st.Len()), nil
	}
	return w, err
}

// Size reports the number of tuples in a relation.
func (s *Snapshot) Size(name string) (int, error) {
	if err := s.check(); err != nil {
		return 0, err
	}
	if _, err := s.db.prog.decl(name); err != nil {
		return 0, err
	}
	return s.db.eng.Relation(name).Size(), nil
}

func (db *Database) decodeRows(decl *ram.Relation, ts []tuple.Tuple) [][]any {
	out := make([][]any, 0, len(ts))
	for _, t := range ts {
		row := make([]any, len(t))
		for i, w := range t {
			row[i] = db.prog.decode(decl.Types[i], w)
		}
		out = append(out, row)
	}
	return out
}

// Query is the one-shot form of Snapshot().Query: it pins a snapshot for
// the duration of the call. One-shot reads are instrumented: their latency
// lands in the query histogram partitioned by outcome (ok / miss / error).
func (db *Database) Query(name string, pattern ...any) ([][]any, error) {
	req := db.obs.Start(obsv.OpQuery, name)
	s := db.Snapshot()
	rows, err := s.Query(name, pattern...)
	s.Release()
	req.Finish(readOutcome(len(rows), err), db.readProf)
	return rows, err
}

// QueryText is the one-shot form of Snapshot().QueryText.
func (db *Database) QueryText(name string, pattern []string) ([][]string, error) {
	req := db.obs.Start(obsv.OpQuery, name)
	s := db.Snapshot()
	rows, err := s.QueryText(name, pattern)
	s.Release()
	req.Finish(readOutcome(len(rows), err), db.readProf)
	return rows, err
}

// Scan is the one-shot form of Snapshot().Scan.
func (db *Database) Scan(name string, lo, hi any) ([][]any, error) {
	req := db.obs.Start(obsv.OpScan, name)
	s := db.Snapshot()
	rows, err := s.Scan(name, lo, hi)
	s.Release()
	req.Finish(readOutcome(len(rows), err), db.readProf)
	return rows, err
}

// readOutcome classifies a finished read: errors are errors, zero rows is a
// miss, anything else is a hit.
func readOutcome(n int, err error) obsv.Outcome {
	switch {
	case err != nil:
		return obsv.OutError
	case n == 0:
		return obsv.OutMiss
	default:
		return obsv.OutOK
	}
}

// Size is the one-shot form of Snapshot().Size.
func (db *Database) Size(name string) (int, error) {
	s := db.Snapshot()
	defer s.Release()
	return s.Size(name)
}

// DBStats is a point-in-time summary of a resident database.
// AppliesIncremental counts batches absorbed through the update/delete
// entry points; AppliesFallback counts batches that lost the incremental
// path and recomputed from scratch, with FallbackReason explaining the most
// recent loss.
type DBStats struct {
	Epoch              uint64 `json:"epoch"`
	Applies            uint64 `json:"applies"`
	AppliesIncremental uint64 `json:"incremental_applies"`
	AppliesFallback    uint64 `json:"applies_fallback"`
	FallbackReason     string `json:"fallback_reason,omitempty"`
	Incremental        bool   `json:"incremental"`
	Deletable          bool   `json:"deletable"`
	// Relations maps every declared relation to its tuple count.
	Relations map[string]int `json:"relations"`
	// FallbackReasons tallies every recompute fallback by reason (the
	// cumulative history behind FallbackReason, which only keeps the most
	// recent one).
	FallbackReasons map[string]uint64 `json:"fallback_reasons,omitempty"`
	// QueryScans counts query answers no index order covered: a filtered
	// scan of the primary instead of one prefix scan.
	QueryScans uint64 `json:"query_scans"`
	// Overdeleted counts the derived tuples incremental deletes marked as
	// possibly dying, and Rederived those of them that turned out to
	// survive: Overdeleted − Rederived is what the deletes removed from
	// derived relations, and a Rederived close to Overdeleted means deletes
	// spend their time re-proving survivors.
	Overdeleted uint64 `json:"overdeleted"`
	Rederived   uint64 `json:"rederived"`
	// ServedOrders lists, per relation, the index orders built for served
	// query patterns since Open, in build order.
	ServedOrders map[string][]tuple.Order `json:"served_orders,omitempty"`
	// Requests carries the request-level latency series when the database
	// was opened WithObservability: per (op, outcome) histograms plus slow
	// and in-flight counters. Published through the expvar sti.db blob by
	// sti serve.
	Requests *obsv.Snapshot `json:"requests,omitempty"`
	// Persist summarizes durability when the database was opened
	// WithPersistence: WAL/snapshot generations and counters.
	Persist *PersistStats `json:"persist,omitempty"`
}

// Stats reports apply counters and per-relation sizes under a snapshot.
func (db *Database) Stats() DBStats {
	s := db.Snapshot()
	defer s.Release()
	st := DBStats{
		Epoch:              s.Epoch(),
		Applies:            db.applies,
		AppliesIncremental: db.incremental,
		AppliesFallback:    db.recomputes,
		FallbackReason:     db.fallbackReason,
		Incremental:        db.eng.Incremental(),
		Deletable:          db.eng.Deletable(),
		Relations:          map[string]int{},
		Requests:           db.obs.Stats(),
		QueryScans:         db.served.scans.Load(),
	}
	st.Overdeleted, st.Rederived = db.eng.DeleteCounts()
	for _, rd := range db.prog.ram.Relations {
		if !rd.IsAux() {
			st.Relations[rd.Name] = db.eng.Relation(rd.Name).Size()
		}
	}
	if len(db.fallbackCounts) > 0 {
		st.FallbackReasons = make(map[string]uint64, len(db.fallbackCounts))
		for reason, n := range db.fallbackCounts {
			st.FallbackReasons[reason] = n
		}
	}
	if len(db.served.built) > 0 {
		st.ServedOrders = make(map[string][]tuple.Order, len(db.served.built))
		for name, orders := range db.served.built {
			st.ServedOrders[name] = slices.Clone(orders)
		}
	}
	if db.pst != nil {
		st.Persist = db.pst.stats()
	}
	return st
}
