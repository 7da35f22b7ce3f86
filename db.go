package sti

import (
	"errors"
	"fmt"
	"sync/atomic"

	"sti/internal/eio"
	"sti/internal/interp"
	"sti/internal/obsv"
	"sti/internal/ram"
	"sti/internal/relation"
	"sti/internal/tuple"
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
// program is deletable (support counting for non-recursive strata,
// overdelete/rederive for recursive ones) and every deletion targets an
// input relation; otherwise the batch falls back to a full recomputation on
// the accumulated fact set, and Stats records why.
type Database struct {
	prog  *Program
	eng   *interp.Engine
	guard relation.EpochGuard

	// facts is the shadow EDB: per declared relation, the set of facts
	// applied and not since deleted, for the full-recompute fallback and the
	// snapshot payload. Each set is one of the engine's own B-tree relations:
	// re-applying a fact stores nothing, a delete is one lookup, and
	// enumeration is sorted, so a snapshot's bytes depend on the set alone.
	// Mutated only under the writer side (accumulate).
	facts map[string]*relation.Relation

	closed bool
	// broken marks a database whose engine hit a runtime error mid-apply
	// and may hold a partial fixpoint; every later operation fails.
	broken error

	applies        uint64
	incremental    uint64
	recomputes     uint64
	fallbackReason string // why the most recent apply fell back
	// fallbackCounts tallies recompute fallbacks by reason, feeding the
	// sti_apply_fallbacks_total exposition series and DBStats.
	fallbackCounts map[string]uint64

	// obs is the request-scoped observability hub (nil unless opened
	// WithObservability).
	obs *obsv.Observer

	// stClosed/stBroken/phaseV/epochV mirror closed/broken/engine-phase and
	// the published epoch as atomics so health probes (Ready, Phase) and
	// slow-read log records never block behind an in-flight Apply. The
	// locked fields stay authoritative for request paths.
	stClosed atomic.Bool
	stBroken atomic.Bool
	phaseV   atomic.Int32
	epochV   atomic.Uint64

	// readProf is the lock-free engine profile for slow read records
	// (observe.go); allocated once so the read hot path stays allocation-free.
	readProf *readProfile

	// pst is the durability state (nil unless opened WithPersistence): the
	// WAL/snapshot protocol that makes Apply batches survive restarts
	// (persist.go). It changes nothing about how relations are built.
	pst *persistence
}

// Open evaluates the program to its initial fixpoint (program facts only;
// EDB arrives through Apply) and returns a resident database. The
// interpreter backend is required, and provenance is not supported.
//
// With WithPersistence, eligible input relations are built on the durable
// tier, the data directory's snapshot + WAL are replayed first (so a
// restarted database resumes at its last applied batch, even after a
// crash), and the recovered state is checkpointed before Open returns.
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
	if err := eng.Load(interp.NewMemIO()); err != nil {
		if pst != nil {
			pst.lock.Release()
		}
		return nil, err
	}
	db := &Database{
		prog:           p,
		eng:            eng,
		facts:          map[string]*relation.Relation{},
		fallbackCounts: map[string]uint64{},
		obs:            o.obs,
		pst:            pst,
	}
	for _, rd := range p.ram.Relations {
		if !rd.Aux {
			db.facts[rd.Name] = relation.New(rd.Name, relation.BTree, rd.Arity, nil)
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
	if db.obs != nil {
		db.registerObsvMetrics()
	}
	return db, nil
}

// Incremental reports whether the program supports incremental insert-only
// batches (it is insert-monotone, so a delta-restart update program was
// emitted at translation time).
func (db *Database) Incremental() bool { return db.eng.Incremental() }

// Deletable reports whether the program supports incremental deletion
// batches (a counting/DRed delete program was emitted at translation time).
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
	if db.closed {
		return nil
	}
	db.closed = true
	db.stClosed.Store(true)
	if db.pst != nil {
		if db.broken != nil {
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
	db.closed = true
	db.stClosed.Store(true)
	if db.pst != nil {
		db.pst.abandon()
	}
}

// fail marks the database broken — the engine hit a runtime error mid-apply
// and may hold a partial fixpoint — and passes the original error through.
func (db *Database) fail(err error) error {
	db.broken = fmt.Errorf("sti: apply failed, database state undefined: %w", err)
	db.stBroken.Store(true)
	return err
}

// ErrClosed is returned by Ready and by every operation on a database after
// Close; test for it with errors.Is.
var ErrClosed = errors.New("sti: database is closed")

// --- batches ---

// Batch stages fact insertions and deletions for one Apply call. Values
// convert like Input.Add. Within a batch, deletions apply after
// insertions. Deleting a fact that was never applied is a no-op; only EDB
// facts added through Apply can be deleted (program facts and derived
// tuples cannot — a deletion naming a non-input relation forces the
// recompute fallback).
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
// the delete program (counting/DRed) for the retractions, provided the
// program is deletable and every deletion targets an input relation.
// Otherwise the engine recomputes from the accumulated facts, recording the
// reason in Stats. Apply blocks until all outstanding snapshots are
// released, and bumps the epoch.
func (db *Database) Apply(b *Batch) error {
	req := db.obs.Start(obsv.OpApply, "")
	if b.err != nil {
		req.Finish(obsv.OutError, nil)
		return b.err
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
	if db.closed {
		return obsv.OutError, ErrClosed
	}
	if db.broken != nil {
		return obsv.OutError, db.broken
	}
	if db.pst != nil {
		// Write-ahead: the batch is durable before any state changes, so a
		// crash at any later point replays it on restart. A WAL failure
		// breaks the database — continuing would silently drop durability.
		if err := db.pst.logBatch(db, b); err != nil {
			return obsv.OutError, db.fail(err)
		}
	}
	if err := db.accumulate(b.ins, b.dels); err != nil {
		return obsv.OutError, db.fail(err)
	}
	db.applies++
	out, reason := db.classify(b)
	var err error
	switch out {
	case obsv.OutIncremental:
		err = db.insertAndUpdate(b.ins)
	case obsv.OutIncrementalDelete:
		err = db.applyDelta(b)
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
// (OutIncrementalDelete), or a full recomputation from the shadow EDB
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
		return obsv.OutIncrementalDelete, ""
	}
	if reason == "" {
		reason = "program has no incremental entry point"
	}
	return obsv.OutFallback, reason
}

// accumulate folds a batch (live, replayed from the WAL, or read back from a
// snapshot) into the shadow EDB; deletions apply after insertions. Live
// batches were checked at staging; for facts read back from disk this is
// where a relation or arity the program does not declare is refused.
func (db *Database) accumulate(ins, dels []batchFact) error {
	set := func(f batchFact) (*relation.Relation, error) {
		s := db.facts[f.rel]
		if s == nil || s.Arity() != len(f.t) {
			return nil, fmt.Errorf("sti: fact %s/%d does not match the program", f.rel, len(f.t))
		}
		return s, nil
	}
	for _, f := range ins {
		s, err := set(f)
		if err != nil {
			return err
		}
		s.Insert(f.t)
	}
	for _, f := range dels {
		s, err := set(f)
		if err != nil {
			return err
		}
		s.Delete(f.t)
	}
	return nil
}

// scanAll copies out the tuples of a shadow-EDB set, in sorted order.
func scanAll(s *relation.Relation) []tuple.Tuple {
	out := make([]tuple.Tuple, 0, s.Size())
	for it := s.Scan(); ; {
		t, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, tuple.Clone(t))
	}
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

// insertAndUpdate stages fresh tuples into the base relations and their
// recent_R freshness trackers, then runs the delta-restart update program.
// A run with no insertions is a no-op.
func (db *Database) insertAndUpdate(ins []batchFact) error {
	if len(ins) == 0 {
		return nil
	}
	order, staged := groupByRel(ins)
	for _, name := range order {
		if _, err := db.eng.InsertFacts(name, staged[name]); err != nil {
			return db.fail(err)
		}
	}
	if err := db.eng.EvalUpdate(); err != nil {
		return db.fail(err)
	}
	return nil
}

// applyDelta absorbs a batch with deletions incrementally: the insertions
// run through the update program first (deletions apply after insertions
// within a batch), then the staged retractions run through the delete
// program, which computes exactly the derived tuples losing their last
// support and removes them together with the retracted facts.
func (db *Database) applyDelta(b *Batch) error {
	if err := db.insertAndUpdate(b.ins); err != nil {
		return err
	}
	order, staged := groupByRel(b.dels)
	total := 0
	for _, name := range order {
		n, err := db.eng.DeleteFacts(name, staged[name])
		if err != nil {
			return db.fail(err)
		}
		total += n
	}
	// Deleting facts that were never present stages nothing; the delete
	// program only runs when at least one retraction took hold.
	if total > 0 {
		if err := db.eng.EvalDelete(); err != nil {
			return db.fail(err)
		}
	}
	return nil
}

// recompute rebuilds the fixpoint from scratch: clear everything, replay
// the accumulated facts, evaluate. Relation and index structures are
// reused across recomputations.
func (db *Database) recompute() error {
	db.eng.Reset()
	for _, rd := range db.prog.ram.Relations {
		if rd.Aux {
			continue
		}
		if s := db.facts[rd.Name]; !s.Empty() {
			if _, err := db.eng.InsertFacts(rd.Name, scanAll(s)); err != nil {
				return db.fail(err)
			}
		}
	}
	if err := db.eng.Eval(); err != nil {
		return db.fail(err)
	}
	db.eng.ClearRecents()
	db.recomputes++
	return nil
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
	if s.db.closed {
		return ErrClosed
	}
	if s.db.broken != nil {
		return s.db.broken
	}
	return nil
}

// Query returns the decoded rows of a relation matching a pattern. With no
// pattern, all rows are returned; otherwise one value per attribute, where
// nil is a wildcard and anything else must match (converted like
// Input.Add, except that a symbol is only looked up: one the database never
// stored matches nothing, and the query is a miss). Rows come back in a
// deterministic index order.
func (s *Snapshot) Query(name string, pattern ...any) ([][]any, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	decl, err := s.db.prog.decl(name)
	if err != nil {
		return nil, err
	}
	probe := make(tuple.Tuple, decl.Arity)
	mask := make([]bool, decl.Arity)
	miss := false
	if len(pattern) > 0 {
		if len(pattern) != decl.Arity {
			return nil, fmt.Errorf("sti: relation %s has arity %d, got a pattern of %d values", name, decl.Arity, len(pattern))
		}
		for i, v := range pattern {
			if v == nil {
				continue
			}
			probe[i], err = s.db.prog.encode(decl.Types[i], v, true)
			switch {
			case errors.Is(err, errNotStored):
				miss = true // no row can match; keep checking the other fields
			case err != nil:
				return nil, fmt.Errorf("sti: %s argument %d: %v", name, i, err)
			}
			mask[i] = true
		}
	}
	if miss {
		return [][]any{}, nil
	}
	ts, err := s.db.eng.Query(name, probe, mask)
	if err != nil {
		return nil, err
	}
	return s.db.decodeRows(decl, ts), nil
}

// QueryText runs Query with text pattern fields ("_" is a wildcard; an
// empty pattern returns all rows) and returns rows rendered in fact-file
// form. It backs the sti serve line protocol.
func (s *Snapshot) QueryText(name string, pattern []string) ([][]string, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	decl, err := s.db.prog.decl(name)
	if err != nil {
		return nil, err
	}
	probe := make(tuple.Tuple, decl.Arity)
	mask := make([]bool, decl.Arity)
	miss := false
	if len(pattern) > 0 {
		if len(pattern) != decl.Arity {
			return nil, fmt.Errorf("sti: relation %s has arity %d, got a pattern of %d fields", name, decl.Arity, len(pattern))
		}
		for i, f := range pattern {
			if f == "_" {
				continue
			}
			probe[i], err = s.db.prog.parseField(f, decl.Types[i], true)
			switch {
			case errors.Is(err, errNotStored):
				miss = true // no row can match; keep checking the other fields
			case err != nil:
				return nil, fmt.Errorf("sti: %s field %d: %v", name, i, err)
			}
			mask[i] = true
		}
	}
	if miss {
		return [][]string{}, nil
	}
	ts, err := s.db.eng.Query(name, probe, mask)
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
	// Unlike Query patterns, the bounds still intern: a symbol range is a
	// range over ordinals, and an unseen bound takes the next ordinal, above
	// every stored symbol.
	loW, err := s.db.prog.encode(decl.Types[0], lo, false)
	if err != nil {
		return nil, fmt.Errorf("sti: %s lower bound: %v", name, err)
	}
	hiW, err := s.db.prog.encode(decl.Types[0], hi, false)
	if err != nil {
		return nil, fmt.Errorf("sti: %s upper bound: %v", name, err)
	}
	ts, err := s.db.eng.ScanRange(name, loW, hiW)
	if err != nil {
		return nil, err
	}
	return s.db.decodeRows(decl, ts), nil
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
	Recomputes         uint64 `json:"recomputes"`
	Incremental        bool   `json:"incremental"`
	Deletable          bool   `json:"deletable"`
	// Relations maps every declared relation to its tuple count.
	Relations map[string]int `json:"relations"`
	// FallbackReasons tallies every recompute fallback by reason (the
	// cumulative history behind FallbackReason, which only keeps the most
	// recent one).
	FallbackReasons map[string]uint64 `json:"fallback_reasons,omitempty"`
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
		Recomputes:         db.recomputes,
		Incremental:        db.eng.Incremental(),
		Deletable:          db.eng.Deletable(),
		Relations:          map[string]int{},
		Requests:           db.obs.Stats(),
	}
	for _, rd := range db.prog.ram.Relations {
		if !rd.Aux {
			st.Relations[rd.Name] = db.eng.Relation(rd.Name).Size()
		}
	}
	if len(db.fallbackCounts) > 0 {
		st.FallbackReasons = make(map[string]uint64, len(db.fallbackCounts))
		for reason, n := range db.fallbackCounts {
			st.FallbackReasons[reason] = n
		}
	}
	if db.pst != nil {
		st.Persist = db.pst.stats()
	}
	return st
}
