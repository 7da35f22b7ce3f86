package sti

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"sti/internal/relation"
	"sti/internal/store"
	"sti/internal/tuple"
	"sti/internal/value"
)

// Durability protocol of a resident database. A durable database builds
// every relation exactly as an in-memory one does (same adapters, same static
// opcodes); durability comes only from the files below. A data directory holds:
//
//	MANIFEST            program identity (source hash); refuses foreign programs
//	LOCK                flock(2) guard; dies with the process
//	snap-<g>.snap       checkpoint g: full symbol table + the EDB
//	wal-<g>.log         batches applied after checkpoint g, one record each
//
// Every Apply appends its batch to the WAL before any state changes, so the
// WAL-after-snapshot suffix always reconstructs the EDB. Checkpoints rotate
// the pair atomically: write snap g+1 (tmp+rename), open wal g+1, then
// delete generation ≤ g files — a crash between any two steps leaves either
// generation complete, and replaying an already-checkpointed WAL is
// idempotent (set semantics for facts, stable re-interning for symbols).
//
// Symbol determinism: evaluation never interns strings (only parsing and
// batch staging do), so each WAL record carries the symbols interned since
// the previous record, in ordinal order. Replay re-interns them at their
// original ordinals, which makes a recovered database byte-identical to an
// uninterrupted one — including the index order of query results, which
// sorts by those ordinals.

// PersistenceConfig tunes the durability of a resident database.
type PersistenceConfig struct {
	// Dir is the data directory (created if absent). One process at a time;
	// guarded by an advisory lock that dies with the process.
	Dir string
	// SnapshotEvery checkpoints after this many Apply calls since the last
	// checkpoint (default 256). Negative disables periodic checkpoints;
	// Open and Close always checkpoint.
	SnapshotEvery int
	// Fsync forces every WAL append to stable storage before Apply returns.
	// Off by default: appends are flushed to the OS (surviving process
	// crashes, not power loss), and checkpoints always fsync.
	Fsync bool
}

func (c PersistenceConfig) withDefaults() PersistenceConfig {
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 256
	}
	return c
}

// WithPersistence opens the database on a durable data directory with
// default tuning: every Apply is write-ahead logged, and restarts recover
// the EDB from snapshot + WAL and recompute the fixpoint.
func WithPersistence(dir string) Option {
	return WithPersistenceConfig(PersistenceConfig{Dir: dir})
}

// WithPersistenceConfig is WithPersistence with explicit tuning.
func WithPersistenceConfig(cfg PersistenceConfig) Option {
	return func(o *runOptions) { c := cfg; o.persist = &c }
}

// persistence is the durable state attached to a Database. All fields are
// mutated under the database writer lock.
type persistence struct {
	cfg    PersistenceConfig
	lock   *store.DirLock
	wal    *store.WAL
	gen    uint64 // generation of the current snapshot/WAL pair
	symLen int    // symbols already covered by snapshot + logged records

	sinceSnap        int
	snapshots        uint64
	recovered        bool // last Open replayed state from disk
	recoveredRecords int  // WAL records replayed by the last Open
}

// manifest pins a data directory to one program.
type manifest struct {
	Version int    `json:"version"`
	Program string `json:"program_sha256"`
}

const manifestName = "MANIFEST"

// openPersistence locks the data directory and verifies (or writes) the
// manifest.
func openPersistence(p *Program, cfg PersistenceConfig) (*persistence, error) {
	cfg = cfg.withDefaults()
	lock, err := store.LockDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	mPath := filepath.Join(cfg.Dir, manifestName)
	if raw, err := os.ReadFile(mPath); err == nil {
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			lock.Release()
			return nil, fmt.Errorf("sti: corrupt %s: %v", mPath, err)
		}
		if m.Program != p.hash {
			lock.Release()
			return nil, fmt.Errorf("sti: data directory %s belongs to a different program (manifest %s, program %s)",
				cfg.Dir, short(m.Program), short(p.hash))
		}
	} else {
		raw, _ := json.Marshal(manifest{Version: 1, Program: p.hash})
		if err := store.WriteFileAtomic(mPath, raw); err != nil {
			lock.Release()
			return nil, err
		}
	}
	return &persistence{cfg: cfg, lock: lock}, nil
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

func programHash(source string) string {
	sum := sha256.Sum256([]byte(source))
	return hex.EncodeToString(sum[:])
}

// --- recovery ---

// recover restores the EDB from the newest valid snapshot plus the WAL
// suffix, evaluates the fixpoint once, and checkpoints so the directory
// starts the session one clean generation ahead. On a fresh directory it
// evaluates normally and checkpoints the empty EDB. Recovery is not an
// apply, so it counts as no fallback.
func (pst *persistence) recover(db *Database) error {
	dir := pst.cfg.Dir
	snapGens, err := store.ListSnapshots(dir)
	if err != nil {
		return err
	}
	walGens, err := store.ListWALs(dir)
	if err != nil {
		return err
	}
	maxGen := uint64(0)
	for _, g := range append(append([]uint64(nil), snapGens...), walGens...) {
		if g > maxGen {
			maxGen = g
		}
	}

	// Newest valid snapshot wins; older ones only matter if the newest was
	// never completed, which the atomic rename rules out, but tolerate a
	// corrupted file by falling back rather than refusing to start.
	restored := false
	var snapGen uint64
	for i := len(snapGens) - 1; i >= 0 && !restored; i-- {
		payload, err := store.ReadSnapshot(store.SnapshotPath(dir, snapGens[i]))
		if err != nil {
			continue
		}
		if err := pst.restoreSnapshot(db, payload); err != nil {
			return fmt.Errorf("sti: snapshot generation %d: %w", snapGens[i], err)
		}
		snapGen, restored = snapGens[i], true
	}
	if !restored {
		pst.symLen = db.prog.st.Len()
		if len(walGens) > 0 {
			return fmt.Errorf("sti: data directory %s has WAL files but no readable snapshot", dir)
		}
	}

	records := 0
	for _, g := range walGens {
		if restored && g < snapGen {
			continue // superseded generation a crash left behind; replay is harmless but pointless
		}
		n, err := store.ReplayWAL(store.WALPath(dir, g), func(rec []byte) error {
			return pst.replayRecord(db, rec)
		})
		records += n
		if err != nil {
			return fmt.Errorf("sti: wal generation %d: %w", g, err)
		}
	}
	pst.recovered = restored || records > 0
	pst.recoveredRecords = records

	if err := db.evaluate(); err != nil {
		return err
	}
	pst.gen = maxGen
	return pst.checkpoint(db)
}

// checkpoint writes snapshot generation gen+1, rotates the WAL to match,
// and prunes superseded generations. Runs in writer context.
func (pst *persistence) checkpoint(db *Database) error {
	next := pst.gen + 1
	dir := pst.cfg.Dir
	if err := store.WriteSnapshot(store.SnapshotPath(dir, next), pst.encodeSnapshot(db)); err != nil {
		return err
	}
	wal, err := store.CreateWAL(store.WALPath(dir, next), pst.cfg.Fsync)
	if err != nil {
		return err
	}
	if pst.wal != nil {
		pst.wal.Close()
	}
	pst.wal = wal
	pst.gen = next
	pst.symLen = db.prog.st.Len()
	pst.sinceSnap = 0
	pst.snapshots++
	if gens, err := store.ListSnapshots(dir); err == nil {
		for _, g := range gens {
			if g < next {
				os.Remove(store.SnapshotPath(dir, g))
			}
		}
	}
	if gens, err := store.ListWALs(dir); err == nil {
		for _, g := range gens {
			if g < next {
				os.Remove(store.WALPath(dir, g))
			}
		}
	}
	return nil
}

// shutdown runs the final checkpoint and releases the directory. Writer
// context (called from Close).
func (pst *persistence) shutdown(db *Database) error {
	err := pst.checkpoint(db)
	if pst.wal != nil {
		if e := pst.wal.Sync(); err == nil {
			err = e
		}
		if e := pst.wal.Close(); err == nil {
			err = e
		}
		pst.wal = nil
	}
	if e := pst.lock.Release(); err == nil {
		err = e
	}
	return err
}

// abandon drops the durable state without checkpointing or flushing — the
// crash-simulation hook for recovery tests. What survives is exactly what a
// kill -9 would leave: the WAL records whose Append returned.
func (pst *persistence) abandon() {
	if pst.wal != nil {
		pst.wal.Abandon()
		pst.wal = nil
	}
	pst.lock.Release()
}

// --- snapshot codec ---

// Snapshot payload:
//
//	u32 nSyms   | nSyms × (u32 len | bytes)        full symbol table, ordinal order
//	u32 nRels   | per relation:
//	    u32 len | name | u32 arity | u32 count | count × arity × u32 (big-endian)
//
// Only the EDB is stored, streamed from where it lives: an EDB relation
// from the engine, an exception relation from its asserted set. The IDB is
// recomputed.
func (pst *persistence) encodeSnapshot(db *Database) []byte {
	var b bytes.Buffer
	syms := db.prog.st.Strings()
	putU32(&b, uint32(len(syms)))
	for _, s := range syms {
		putStr(&b, s)
	}
	var sets []*relation.Relation
	for _, rd := range db.prog.ram.Relations {
		if s := cmp.Or(db.edb[rd.Name], db.asserted[rd.Name]); s != nil && !s.Empty() {
			sets = append(sets, s)
		}
	}
	putU32(&b, uint32(len(sets)))
	for _, s := range sets {
		putStr(&b, s.Name)
		putU32(&b, uint32(s.Arity()))
		putU32(&b, uint32(s.Size()))
		for it := s.Scan(); ; {
			t, ok := it.Next()
			if !ok {
				break
			}
			for _, w := range t {
				putU32(&b, uint32(w))
			}
		}
	}
	return b.Bytes()
}

func (pst *persistence) restoreSnapshot(db *Database, payload []byte) error {
	r := &reader{buf: payload}
	nSyms := int(r.u32())
	syms := make([]string, 0, nSyms)
	for i := 0; i < nSyms && r.err == nil; i++ {
		syms = append(syms, r.str())
	}
	if r.err != nil {
		return r.err
	}
	// The freshly parsed program interned its symbols in deterministic
	// source order, so they must form a prefix of the saved table; the rest
	// re-interns in ordinal order, restoring every saved ordinal exactly.
	cur := db.prog.st.Strings()
	if len(cur) > len(syms) {
		return fmt.Errorf("symbol table has %d symbols, snapshot only %d (was the Program reused?)", len(cur), len(syms))
	}
	for i, s := range cur {
		if syms[i] != s {
			return fmt.Errorf("symbol %d mismatch: program %q, snapshot %q", i, s, syms[i])
		}
	}
	for i := len(cur); i < len(syms); i++ {
		if ord := db.prog.st.Intern(syms[i]); int(ord) != i {
			return fmt.Errorf("symbol %q restored at ordinal %d, want %d", syms[i], ord, i)
		}
	}

	nRels := int(r.u32())
	for i := 0; i < nRels; i++ {
		name := r.str()
		arity := int(r.u32())
		count := int(r.u32())
		if r.err != nil {
			return r.err
		}
		if arity < 0 || arity > 64 || count < 0 {
			return fmt.Errorf("relation %s: implausible arity %d / count %d", name, arity, count)
		}
		flat := make([]value.Value, count*arity)
		for j := range flat {
			flat[j] = value.Value(r.u32())
		}
		if r.err != nil {
			return r.err
		}
		ins := make([]batchFact, count)
		for j := range ins {
			ins[j] = batchFact{rel: name, t: flat[j*arity : (j+1)*arity : (j+1)*arity]}
		}
		if err := db.place(ins, nil, true); err != nil {
			return err
		}
	}
	return r.err
}

// --- WAL record codec ---

// WAL record (one per Apply batch):
//
//	u32 baseOrd | u32 nNew | nNew × (u32 len | bytes)   symbols interned since
//	                                                    the previous record
//	u32 nIns | nIns facts | u32 nDels | nDels facts
//	fact: u32 len | rel | u32 arity | arity × u32
//
// Values are raw ordinals/words: the dictionary section guarantees every
// referenced symbol ordinal is already restored by the time facts decode.
func (pst *persistence) logBatch(db *Database, b *Batch) error {
	var buf bytes.Buffer
	syms := db.prog.st.Strings()
	if pst.symLen > len(syms) {
		return fmt.Errorf("sti: symbol table shrank (%d -> %d)", pst.symLen, len(syms))
	}
	putU32(&buf, uint32(pst.symLen))
	news := syms[pst.symLen:]
	putU32(&buf, uint32(len(news)))
	for _, s := range news {
		putStr(&buf, s)
	}
	putFacts(&buf, b.ins)
	putFacts(&buf, b.dels)
	if err := pst.wal.Append(buf.Bytes()); err != nil {
		return err
	}
	pst.symLen = len(syms)
	return nil
}

func putFacts(b *bytes.Buffer, facts []batchFact) {
	putU32(b, uint32(len(facts)))
	for _, f := range facts {
		putStr(b, f.rel)
		putU32(b, uint32(len(f.t)))
		for _, w := range f.t {
			putU32(b, uint32(w))
		}
	}
}

// replayRecord applies one logged batch to the EDB, re-interning its symbol
// dictionary first. Replay is idempotent: a record already covered by a
// newer snapshot re-interns to identical ordinals and re-applies facts with
// set semantics.
func (pst *persistence) replayRecord(db *Database, rec []byte) error {
	r := &reader{buf: rec}
	base := int(r.u32())
	nNew := int(r.u32())
	if r.err != nil {
		return r.err
	}
	if base > db.prog.st.Len() {
		return fmt.Errorf("record expects %d interned symbols, table has %d", base, db.prog.st.Len())
	}
	for i := 0; i < nNew; i++ {
		s := r.str()
		if r.err != nil {
			return r.err
		}
		if ord := db.prog.st.Intern(s); int(ord) != base+i {
			return fmt.Errorf("symbol %q replayed at ordinal %d, want %d", s, ord, base+i)
		}
	}
	ins, err := readFacts(r)
	if err != nil {
		return err
	}
	dels, err := readFacts(r)
	if err != nil {
		return err
	}
	return db.place(ins, dels, true)
}

func readFacts(r *reader) ([]batchFact, error) {
	n := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	out := make([]batchFact, 0, n)
	for i := 0; i < n; i++ {
		rel := r.str()
		arity := int(r.u32())
		if r.err != nil {
			return nil, r.err
		}
		if arity < 0 || arity > 64 {
			return nil, fmt.Errorf("fact for %s has implausible arity %d", rel, arity)
		}
		t := make(tuple.Tuple, arity)
		for j := range t {
			t[j] = value.Value(r.u32())
		}
		out = append(out, batchFact{rel: rel, t: t})
	}
	return out, r.err
}

// --- little codec helpers ---

func putU32(b *bytes.Buffer, v uint32) {
	var w [4]byte
	binary.BigEndian.PutUint32(w[:], v)
	b.Write(w[:])
}

func putStr(b *bytes.Buffer, s string) {
	putU32(b, uint32(len(s)))
	b.WriteString(s)
}

type reader struct {
	buf []byte
	err error
}

var errShortRecord = errors.New("truncated record")

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 4 {
		r.err = errShortRecord
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

func (r *reader) str() string {
	n := int(r.u32())
	if r.err != nil {
		return ""
	}
	if n < 0 || len(r.buf) < n {
		r.err = errShortRecord
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// --- stats ---

// PersistStats summarizes the durability layer for DBStats.
type PersistStats struct {
	Dir        string `json:"dir"`
	Generation uint64 `json:"generation"`
	// Recovered reports whether the last Open restored state from disk;
	// RecoveredRecords counts the WAL records replayed on top of the
	// snapshot (nonzero means the previous session did not close cleanly).
	Recovered        bool `json:"recovered"`
	RecoveredRecords int  `json:"recovered_records,omitempty"`

	WALRecords    int64  `json:"wal_records"`
	WALBytes      int64  `json:"wal_bytes"`
	WALSyncs      int64  `json:"wal_syncs"`
	Snapshots     uint64 `json:"snapshots"`
	SinceSnapshot int    `json:"applies_since_snapshot"`
}

func (pst *persistence) stats() *PersistStats {
	out := &PersistStats{
		Dir:              pst.cfg.Dir,
		Generation:       pst.gen,
		Recovered:        pst.recovered,
		RecoveredRecords: pst.recoveredRecords,
		Snapshots:        pst.snapshots,
		SinceSnapshot:    pst.sinceSnap,
	}
	if pst.wal != nil {
		out.WALRecords = pst.wal.Records()
		out.WALBytes = pst.wal.Bytes()
		out.WALSyncs = pst.wal.Syncs()
	}
	return out
}
