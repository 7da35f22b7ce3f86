package sti

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sti/internal/store"
)

// persistSrc is the durability fixture: a symbol-typed recursive program, so
// recovery must restore symbol ordinals exactly for query output (which
// sorts by those ordinals) to come back byte-identical.
const persistSrc = `
.decl edge(x:symbol, y:symbol)
.decl path(x:symbol, y:symbol)
.input edge
.output path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
`

// tinyPersist checkpoints every third apply so short tests cross
// checkpoint boundaries.
func tinyPersist(dir string) Option {
	return WithPersistenceConfig(PersistenceConfig{Dir: dir, SnapshotEvery: 3})
}

// applyScript drives the same pseudo-random batch sequence (inserts and
// deletions, multiple relations' worth of symbols) against a database.
// Returns the batch count applied.
func applyScript(t *testing.T, db *Database, seed int64, batches int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	node := func() string { return fmt.Sprintf("n%02d", rng.Intn(24)) }
	for i := 0; i < batches; i++ {
		b := db.NewBatch()
		for j := 0; j < 4+rng.Intn(5); j++ {
			b.Add("edge", node(), node())
		}
		if i%3 == 2 {
			b.Delete("edge", node(), node())
		}
		if err := db.Apply(b); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
}

// queryAll renders every queryable observable of the database into one
// string: rows of both relations (text form), sizes, and a patterned query.
func queryAll(t *testing.T, db *Database) string {
	t.Helper()
	var sb strings.Builder
	for _, rel := range []string{"edge", "path"} {
		rows, err := db.QueryText(rel, nil)
		if err != nil {
			t.Fatalf("query %s: %v", rel, err)
		}
		fmt.Fprintf(&sb, "%s %d\n", rel, len(rows))
		for _, r := range rows {
			sb.WriteString(strings.Join(r, "\t"))
			sb.WriteByte('\n')
		}
	}
	if rows, err := db.Query("path", "n01", nil); err == nil {
		fmt.Fprintf(&sb, "probe %v\n", rows)
	} else {
		t.Fatalf("probe query: %v", err)
	}
	return sb.String()
}

// TestPersistMatchesMemory is the acceptance property: a persistent
// database is an in-memory database plus a WAL. It generates the same
// opcodes for every relational node (main, update and delete trees) and
// answers every query byte-identically to an in-memory database fed the
// same batches, across Close/reopen, and across a simulated crash (WAL
// present, no clean final snapshot).
func TestPersistMatchesMemory(t *testing.T) {
	dir := t.TempDir()
	const seed, batches = 99, 10

	mem, err := MustParse(persistSrc).Open()
	if err != nil {
		t.Fatalf("open memory db: %v", err)
	}
	defer mem.Close()
	applyScript(t, mem, seed, batches)
	want := queryAll(t, mem)

	// Live persistent database.
	p1 := MustParse(persistSrc)
	db1, err := p1.Open(tinyPersist(dir))
	if err != nil {
		t.Fatalf("open persistent db: %v", err)
	}
	applyScript(t, db1, seed, batches)
	if got := queryAll(t, db1); got != want {
		t.Fatalf("live persistent output differs from memory:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	st := db1.Stats()
	if st.Persist == nil {
		t.Fatal("Stats().Persist is nil on a persistent database")
	}
	wantOps, gotOps := mem.eng.RelationalOps(), db1.eng.RelationalOps()
	if len(wantOps) == 0 || fmt.Sprint(gotOps) != fmt.Sprint(wantOps) {
		t.Fatalf("durable database generated different opcodes:\n got %v\nwant %v", gotOps, wantOps)
	}
	if st.Persist.Snapshots == 0 {
		t.Fatal("no checkpoints taken despite SnapshotEvery=3")
	}
	if err := db1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Clean reopen: recovery from the final snapshot.
	p2 := MustParse(persistSrc)
	db2, err := p2.Open(tinyPersist(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := queryAll(t, db2); got != want {
		t.Fatalf("reopened output differs from memory:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if st := db2.Stats(); !st.Persist.Recovered {
		t.Fatal("reopen did not report Recovered")
	}

	// More batches, then a crash: no Close, WAL tail must carry the delta.
	applyScript(t, db2, seed+1, 4)
	mem2, _ := MustParse(persistSrc).Open()
	defer mem2.Close()
	applyScript(t, mem2, seed, batches)
	applyScript(t, mem2, seed+1, 4)
	want2 := queryAll(t, mem2)
	if got := queryAll(t, db2); got != want2 {
		t.Fatalf("pre-crash output differs from memory reference")
	}
	db2.abandon()

	db3, err := MustParse(persistSrc).Open(tinyPersist(dir))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db3.Close()
	st3 := db3.Stats()
	if !st3.Persist.Recovered {
		t.Fatal("crash reopen did not report Recovered")
	}
	if st3.Persist.RecoveredRecords == 0 {
		t.Fatal("crash reopen replayed no WAL records; the crash tail was lost")
	}
	if got := queryAll(t, db3); got != want2 {
		t.Fatalf("crash-recovered output differs from memory:\n--- got ---\n%s--- want ---\n%s", got, want2)
	}
}

// TestPersistIncrementalPathSurvives checks that a durable database rides
// the incremental update/delete entry points (not permanent recompute
// fallback).
func TestPersistIncrementalPathSurvives(t *testing.T) {
	db, err := MustParse(persistSrc).Open(tinyPersist(t.TempDir()))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	if err := db.Apply(db.NewBatch().Add("edge", "a", "b").Add("edge", "b", "c")); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := db.Apply(db.NewBatch().Delete("edge", "b", "c")); err != nil {
		t.Fatalf("delete: %v", err)
	}
	st := db.Stats()
	if st.AppliesIncremental != 2 {
		t.Fatalf("want 2 incremental applies, got %+v", st)
	}
	rows, err := db.Query("path")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(rows) != 1 || rows[0][0] != "a" || rows[0][1] != "b" {
		t.Fatalf("path after delete = %v, want [[a b]]", rows)
	}
}

// TestPersistEveryRepresentation: durability does not depend on how a
// relation is stored. Eqrel and nullary input relations and hash-sharded
// relations all survive a clean reopen and a crash byte-identically to an
// in-memory database. The workers2 row also passes WithProfiling, which a
// resident database ignores: Open still builds the one-shot engine's tree.
func TestPersistEveryRepresentation(t *testing.T) {
	src := `
.decl same(x:number, y:number) eqrel
.decl edge(x:number, y:number)
.decl on()
.decl out(x:number, y:number)
.input same
.input edge
.input on
.output out
out(x, y) :- on(), same(x, z), edge(z, y).
`
	script := func(t *testing.T, db *Database, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			b := db.NewBatch().Add("same", i, i+1).Add("edge", i+1, 10*i).Add("edge", i, 7)
			if i == 1 {
				b.Add("on")
			}
			if i%3 == 2 {
				b.Delete("edge", i-1, 7)
			}
			if err := db.Apply(b); err != nil {
				t.Fatalf("apply %d: %v", i, err)
			}
		}
	}
	render := func(t *testing.T, db *Database) string {
		t.Helper()
		var sb strings.Builder
		for _, rel := range []string{"same", "edge", "on", "out"} {
			rows, err := db.Query(rel)
			if err != nil {
				t.Fatalf("query %s: %v", rel, err)
			}
			fmt.Fprintf(&sb, "%s %d %v\n", rel, len(rows), rows)
		}
		return sb.String()
	}
	for _, c := range []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"shards2", []Option{WithShards(2)}},
		{"workers2", []Option{WithWorkers(2), WithProfiling()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			open := func(durable bool) *Database {
				t.Helper()
				opts := c.opts
				if durable {
					opts = append(opts[:len(opts):len(opts)], tinyPersist(dir))
				}
				db, err := MustParse(src).Open(opts...)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				return db
			}
			mem := open(false)
			defer mem.Close()
			// One option resolution: Open's engine has the tree of the
			// engine a one-shot RunDir builds from the same options.
			facts := t.TempDir()
			for _, rel := range []string{"same", "edge", "on"} {
				writeFile(t, filepath.Join(facts, rel+".facts"), "")
			}
			res, err := mem.prog.RunDir(facts, facts, c.opts...)
			if err != nil {
				t.Fatalf("RunDir: %v", err)
			}
			oneShot := res.eng
			if got, want := mem.eng.RelationalOps(), oneShot.RelationalOps(); !reflect.DeepEqual(got, want) {
				t.Fatalf("Open built %d relational opcodes %v, a one-shot run builds %d %v", len(got), got, len(want), want)
			}
			script(t, mem, 0, 8)
			db := open(true)
			script(t, db, 0, 8)
			if got, want := render(t, db), render(t, mem); got != want {
				t.Fatalf("live:\n got %s\nwant %s", got, want)
			}
			if err := db.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			db = open(true)
			if got, want := render(t, db), render(t, mem); got != want {
				t.Fatalf("clean reopen:\n got %s\nwant %s", got, want)
			}
			script(t, mem, 8, 13)
			script(t, db, 8, 13) // 5 applies past a SnapshotEvery=3 checkpoint: a WAL tail remains
			db.abandon()

			db = open(true)
			defer db.Close()
			if st := db.Stats(); st.Persist.RecoveredRecords == 0 {
				t.Fatal("crash reopen replayed no WAL records")
			}
			if got, want := render(t, db), render(t, mem); got != want {
				t.Fatalf("crash reopen:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestPersistManifestRejectsForeignProgram pins a data directory to the
// program that created it.
func TestPersistManifestRejectsForeignProgram(t *testing.T) {
	dir := t.TempDir()
	db, err := MustParse(persistSrc).Open(WithPersistence(dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	db.Close()
	other := MustParse(`.decl r(x:number)` + "\n" + `.input r` + "\n" + `.output r`)
	if _, err := other.Open(WithPersistence(dir)); err == nil {
		t.Fatal("foreign program opened an existing data directory")
	} else if !strings.Contains(err.Error(), "different program") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestPersistDirLock ensures two databases cannot share a data directory.
func TestPersistDirLock(t *testing.T) {
	dir := t.TempDir()
	db, err := MustParse(persistSrc).Open(WithPersistence(dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	if _, err := MustParse(persistSrc).Open(WithPersistence(dir)); err == nil {
		t.Fatal("second database opened a locked data directory")
	}
}

// TestPersistOpensOldLayout: a data directory written when input relations
// lived in a segment store has a tables/ subtree. It was only ever a cache:
// the directory opens, recovers byte-identically, and the subtree is gone.
func TestPersistOpensOldLayout(t *testing.T) {
	dir := t.TempDir()
	db, err := MustParse(persistSrc).Open(tinyPersist(dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	applyScript(t, db, 7, 5) // 5 applies at SnapshotEvery=3: snapshot + WAL tail
	want := queryAll(t, db)
	db.abandon()

	seg := filepath.Join(dir, "tables", "edge.0", "000001.seg")
	if err := os.MkdirAll(filepath.Dir(seg), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, []byte("stale segment"), 0o644); err != nil {
		t.Fatal(err)
	}

	db, err = MustParse(persistSrc).Open(tinyPersist(dir))
	if err != nil {
		t.Fatalf("open old layout: %v", err)
	}
	defer db.Close()
	if got := queryAll(t, db); got != want {
		t.Fatalf("old-layout recovery differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "tables")); !os.IsNotExist(err) {
		t.Fatalf("stale tables/ still present (stat err %v)", err)
	}
}

// TestPersistTornWALTail corrupts the WAL's final record in place and
// checks recovery drops exactly that batch (whose Apply, in a real crash,
// never returned) while keeping all earlier ones.
func TestPersistTornWALTail(t *testing.T) {
	dir := t.TempDir()
	db, err := MustParse(persistSrc).Open(WithPersistenceConfig(PersistenceConfig{
		Dir:           dir,
		SnapshotEvery: -1, // keep everything in the WAL
	}))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := db.Apply(db.NewBatch().Add("edge", "a", "b")); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := db.Apply(db.NewBatch().Add("edge", "b", "c")); err != nil {
		t.Fatalf("apply: %v", err)
	}
	db.abandon()

	// Tear the last record.
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no wal files: %v", err)
	}
	raw, err := os.ReadFile(wals[len(wals)-1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wals[len(wals)-1], raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := MustParse(persistSrc).Open(WithPersistence(dir))
	if err != nil {
		t.Fatalf("reopen with torn wal: %v", err)
	}
	defer db2.Close()
	rows, err := db2.Query("edge")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(rows) != 1 || rows[0][0] != "a" {
		t.Fatalf("after torn tail, edge = %v, want just [a b]", rows)
	}
}

// TestPersistSnapshotCadence: large batches under a short checkpoint
// cadence, then a crash between two checkpoints. Checkpoints happen on open
// and after every SnapshotEvery applies, the WAL holds exactly the applies
// since the last one, and recovery (snapshot + that tail) matches an
// in-memory reference.
func TestPersistSnapshotCadence(t *testing.T) {
	src := `
.decl edge(x:number, y:number)
.decl reach(x:number, y:number)
.input edge
.output reach
reach(x, y) :- edge(x, y).
reach(x, z) :- reach(x, y), edge(y, z).
`
	dir := t.TempDir()
	cfg := WithPersistenceConfig(PersistenceConfig{Dir: dir, SnapshotEvery: 2})
	db, err := MustParse(src).Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mem, _ := MustParse(src).Open()
	defer mem.Close()

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5; i++ {
		bp, bm := db.NewBatch(), mem.NewBatch()
		for j := 0; j < 200; j++ {
			x, y := rng.Intn(60), rng.Intn(60)
			bp.Add("edge", x, y)
			bm.Add("edge", x, y)
		}
		if err := db.Apply(bp); err != nil {
			t.Fatalf("apply persistent %d: %v", i, err)
		}
		if err := mem.Apply(bm); err != nil {
			t.Fatalf("apply memory %d: %v", i, err)
		}
	}
	check := func(d *Database, tag string) {
		t.Helper()
		for _, rel := range []string{"edge", "reach"} {
			got, err := d.Query(rel)
			if err != nil {
				t.Fatalf("%s query %s: %v", tag, rel, err)
			}
			want, err := mem.Query(rel)
			if err != nil {
				t.Fatalf("memory query %s: %v", rel, err)
			}
			if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
				t.Fatalf("%s: %s differs (%d vs %d rows)", tag, rel, len(got), len(want))
			}
		}
	}
	check(db, "live")
	// One checkpoint on open, one after applies 2 and 4; apply 5 is WAL only.
	if p := db.Stats().Persist; p.Snapshots != 3 || p.Generation != 3 || p.SinceSnapshot != 1 || p.WALRecords != 1 {
		t.Fatalf("after 5 applies at SnapshotEvery=2: %+v", p)
	}
	db.abandon()

	db2, err := MustParse(src).Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if p := db2.Stats().Persist; p.RecoveredRecords != 1 {
		t.Fatalf("crash reopen replayed %d WAL records, want 1", p.RecoveredRecords)
	}
	check(db2, "crash-reopened")
}

// TestSnapshotSetSemantics: the EDB a snapshot stores is a set. Re-applying
// one fact any number of times stores it once — the snapshot payload stays
// the size one apply produced, in memory and on disk — deleting it returns
// to the empty payload, and a crash after the re-inserts recovers
// byte-identically.
func TestSnapshotSetSemantics(t *testing.T) {
	dir := t.TempDir()
	db, err := MustParse(persistSrc).Open(WithPersistenceConfig(PersistenceConfig{Dir: dir, SnapshotEvery: 1}))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	snapSize := func() (mem int, disk int64) {
		t.Helper()
		snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
		if err != nil || len(snaps) != 1 {
			t.Fatalf("want one snapshot file, got %v (%v)", snaps, err)
		}
		fi, err := os.Stat(snaps[0])
		if err != nil {
			t.Fatal(err)
		}
		return len(db.pst.encodeSnapshot(db)), fi.Size()
	}
	apply := func(b *Batch) {
		t.Helper()
		if err := db.Apply(b); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	// Intern every symbol first (n01 is queryAll's probe) so only the fact
	// count can move the size.
	apply(db.NewBatch().Add("edge", "a", "b").Add("edge", "n01", "n01").
		Delete("edge", "a", "b").Delete("edge", "n01", "n01"))
	emptyMem, emptyDisk := snapSize()
	apply(db.NewBatch().Add("edge", "a", "b"))
	oneMem, oneDisk := snapSize()
	if oneMem <= emptyMem {
		t.Fatalf("one fact encodes to %d bytes, empty EDB to %d", oneMem, emptyMem)
	}
	for i := 0; i < 100; i++ {
		apply(db.NewBatch().Add("edge", "a", "b"))
	}
	if mem, disk := snapSize(); mem != oneMem || disk != oneDisk {
		t.Fatalf("after 100 re-inserts the snapshot is %d bytes (%d on disk), one apply made %d (%d)", mem, disk, oneMem, oneDisk)
	}
	want := queryAll(t, db)
	db.abandon()

	db, err = MustParse(persistSrc).Open(WithPersistenceConfig(PersistenceConfig{Dir: dir, SnapshotEvery: 1}))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db.Close()
	if mem, disk := snapSize(); mem != oneMem || disk != oneDisk {
		t.Fatalf("recovered snapshot is %d bytes (%d on disk), want %d (%d)", mem, disk, oneMem, oneDisk)
	}
	if got := queryAll(t, db); got != want {
		t.Fatalf("crash-recovered output differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	apply(db.NewBatch().Delete("edge", "a", "b"))
	if mem, disk := snapSize(); mem != emptyMem || disk != emptyDisk {
		t.Fatalf("after the delete the snapshot is %d bytes (%d on disk), empty is %d (%d)", mem, disk, emptyMem, emptyDisk)
	}
}

// TestReadsDoNotInternSymbols: a read naming a symbol the database never
// stored is a miss, not an intern. A thousand such queries leave the symbol
// table as it was, so the next WAL record of a durable database logs no
// symbols; one-shot Contains and Explain likewise only look symbols up.
func TestReadsDoNotInternSymbols(t *testing.T) {
	prog := MustParse(persistSrc)
	db, err := prog.Open(WithPersistenceConfig(PersistenceConfig{Dir: t.TempDir(), SnapshotEvery: -1}))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	if err := db.Apply(db.NewBatch().Add("edge", "a", "b")); err != nil {
		t.Fatal(err)
	}
	before := prog.st.Len()
	for i := 0; i < 1000; i++ {
		sym := fmt.Sprintf("never%d", i)
		if rows, err := db.QueryText("path", []string{"_", strconv.Quote(sym)}); err != nil || rows == nil || len(rows) != 0 {
			t.Fatalf("QueryText(%s) = %v, %v; want an empty miss", sym, rows, err)
		}
		if rows, err := db.Query("path", sym, nil); err != nil || rows == nil || len(rows) != 0 {
			t.Fatalf("Query(%s) = %v, %v; want an empty miss", sym, rows, err)
		}
	}
	if got := prog.st.Len(); got != before {
		t.Fatalf("reads grew the symbol table %d -> %d", before, got)
	}
	// A malformed field is still an error, and a stored symbol still matches.
	if _, err := db.QueryText("path", []string{`"unterminated`, "_"}); err == nil {
		t.Fatal("malformed quoted symbol accepted")
	}
	if rows, err := db.QueryText("path", []string{"a", "_"}); err != nil || len(rows) != 1 {
		t.Fatalf("QueryText(a) = %v, %v", rows, err)
	}

	if err := db.Apply(db.NewBatch().Add("edge", "b", "a")); err != nil {
		t.Fatal(err)
	}
	var last []byte
	if _, err := store.ReplayWAL(db.pst.wal.Path(), func(rec []byte) error {
		last = append(last[:0], rec...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r := &reader{buf: last}
	r.u32() // base ordinal
	if n := r.u32(); r.err != nil || n != 0 {
		t.Fatalf("WAL record after the reads logs %d symbols (%v), want 0", n, r.err)
	}

	res, err := prog.Run(prog.NewInput().Add("edge", "a", "b"), WithProvenance())
	if err != nil {
		t.Fatal(err)
	}
	before = prog.st.Len()
	if res.Contains("path", "zz", "b") {
		t.Fatal("Contains matched a symbol no tuple holds")
	}
	if _, err := res.Explain("path", "zz", "b"); err == nil {
		t.Fatal("Explain derived a symbol no tuple holds")
	}
	if _, err := res.ExplainText("path", []string{"zz", "b"}); err == nil {
		t.Fatal("ExplainText derived a symbol no tuple holds")
	}
	if !res.Contains("path", "a", "b") {
		t.Fatal("Contains misses a stored tuple")
	}
	if got := prog.st.Len(); got != before {
		t.Fatalf("one-shot reads grew the symbol table %d -> %d", before, got)
	}
}
