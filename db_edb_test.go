package sti

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// edbCase is one relation kind of TestFactOwnership: a program over number
// pairs, a stream of batches ("+rel x y" inserts, "-rel x y" deletes), and
// the relations whose asserted facts live outside the engine.
type edbCase struct {
	name       string
	src        string
	rels       []string
	exceptions []string
	batches    [][]string
}

const edbTC = `
.decl e(x:number, y:number)
.decl r(x:number, y:number)
.input e
.output r
r(x, y) :- e(x, y).
r(x, z) :- r(x, y), e(y, z).
`

var edbCases = []edbCase{
	{
		name: "pure input", src: edbTC, rels: []string{"e", "r"}, exceptions: []string{"r"},
		batches: [][]string{
			{"+e 1 2", "+e 2 3"}, {"+e 3 4", "-e 1 2"}, {"+e 1 2", "+e 4 5"},
			{"-e 2 3"}, {"+e 5 6", "-e 9 9"},
		},
	},
	{
		// Deleting a program-text fact recomputes, and the fact survives.
		name: "input with a program fact", src: edbTC + "e(1, 2).\ne(7, 8).\n",
		rels: []string{"e", "r"}, exceptions: []string{"r"},
		batches: [][]string{
			{"+e 2 3", "+e 1 2"}, {"-e 1 2"}, {"+e 3 4"},
			{"-e 7 8", "-e 2 3"}, {"+e 4 5"},
		},
	},
	{
		name: "input and derived", src: edbTC + ".input r\n",
		rels: []string{"e", "r"}, exceptions: []string{"r"},
		batches: [][]string{
			{"+e 1 2", "+r 5 1"}, {"+r 6 5", "+e 2 3"}, {"-r 5 1"},
			{"+r 5 1", "-e 1 2"}, {"+e 1 2", "-r 6 5"},
		},
	},
	{
		// r(1,3) is asserted and also derived; deleting e(2,3) takes the
		// derivation but not the assertion. Every asserted r fact is
		// retracted by the end.
		name: "asserted into derived, then retracted", src: edbTC,
		rels: []string{"e", "r"}, exceptions: []string{"r"},
		batches: [][]string{
			{"+e 1 2", "+e 2 3", "+r 1 3"}, {"-e 2 3", "+e 3 4"}, {"+r 9 1"},
			{"-r 1 3"}, {"-r 9 1", "+e 2 3"},
		},
	},
	{
		// Deleting a pair only the closure implies is a no-op; deleting an
		// asserted one splits the class.
		name: "eqrel", src: `
.decl s(x:number, y:number) eqrel
.decl e(x:number, y:number)
.decl o(x:number, y:number)
.input s
.input e
.output o
o(x, y) :- s(x, z), e(z, y).
`,
		rels: []string{"s", "e", "o"}, exceptions: []string{"s", "o"},
		batches: [][]string{
			{"+s 1 2", "+s 2 3", "+e 3 10"}, {"+s 4 5", "-s 1 3"}, {"-s 2 3", "+e 1 20"},
			{"+s 5 6", "-e 3 10"}, {"+e 6 30"},
		},
	},
}

// edbModel is the set of asserted facts a batch stream leaves behind.
type edbModel map[string]bool

func (m edbModel) apply(batch []string) {
	for _, op := range batch {
		m[op[1:]] = op[0] == '+'
	}
}

// source renders the program plus every surviving asserted fact as program
// text: a one-shot Run of it is the reference.
func (m edbModel) source(src string) string {
	var sb strings.Builder
	sb.WriteString(src)
	for _, f := range m.facts() {
		p := strings.Fields(f)
		fmt.Fprintf(&sb, "%s(%s, %s).\n", p[0], p[1], p[2])
	}
	return sb.String()
}

func (m edbModel) facts() []string {
	var out []string
	for f, live := range m {
		if live {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

func applyOps(t *testing.T, db *Database, batch []string) {
	t.Helper()
	b := db.NewBatch()
	for _, op := range batch {
		p := strings.Fields(op[1:])
		x, _ := strconv.Atoi(p[1])
		y, _ := strconv.Atoi(p[2])
		if op[0] == '+' {
			b.Add(p[0], x, y)
		} else {
			b.Delete(p[0], x, y)
		}
	}
	if err := db.Apply(b); err != nil {
		t.Fatalf("apply %v: %v", batch, err)
	}
}

func sortedRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// checkOwnership compares every relation with a one-shot Run over the
// surviving asserted facts, and checks where those facts live: EDB relations
// in the engine, exception relations in an asserted set that exists exactly
// while it holds facts.
func checkOwnership(t *testing.T, db *Database, c edbCase, m edbModel, phase string) {
	t.Helper()
	res, err := MustParse(m.source(c.src)).Run(nil)
	if err != nil {
		t.Fatalf("%s: reference run: %v", phase, err)
	}
	for _, rel := range c.rels {
		got, err := db.Query(rel)
		if err != nil {
			t.Fatalf("%s: query %s: %v", phase, rel, err)
		}
		// The reference is another program, which may pick other index
		// orders: compare the sets of rows.
		if got, want := sortedRows(got), sortedRows(res.Rows(rel)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s = %v, a one-shot run over the asserted facts gives %v", phase, rel, got, want)
		}
	}
	wantSets, gotSets := []string{}, []string{}
	for _, rel := range c.rels {
		exception := slices.Contains(c.exceptions, rel)
		if exception && slices.ContainsFunc(m.facts(), func(f string) bool { return strings.HasPrefix(f, rel+" ") }) {
			wantSets = append(wantSets, rel)
		}
		if _, ok := db.asserted[rel]; ok {
			gotSets = append(gotSets, rel)
		}
		home, declared := db.edb[rel]
		if !declared || exception != (home == nil) || !exception && home != db.eng.Relation(rel) {
			t.Fatalf("%s: %s lives in %v (exception %v)", phase, rel, home, exception)
		}
	}
	if len(db.asserted) != len(gotSets) || !reflect.DeepEqual(gotSets, wantSets) {
		t.Fatalf("%s: asserted sets for %v, want %v", phase, db.asserted, wantSets)
	}
}

// TestFactOwnership: who owns which fact. For five relation kinds, a
// database in memory, a durable one live, after a clean reopen and after a
// crash reopen all equal a one-shot Run over the surviving asserted facts.
func TestFactOwnership(t *testing.T) {
	const split = 3 // batches before the clean reopen; the rest leave a WAL tail
	for _, c := range edbCases {
		t.Run(c.name, func(t *testing.T) {
			p := MustParse(c.src)
			mem, err := p.Open()
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer mem.Close()
			m := edbModel{}
			for i, batch := range c.batches {
				applyOps(t, mem, batch)
				m.apply(batch)
				checkOwnership(t, mem, c, m, fmt.Sprintf("memory after batch %d", i))
			}

			dir := t.TempDir()
			open := func() *Database {
				db, err := MustParse(c.src).Open(tinyPersist(dir))
				if err != nil {
					t.Fatalf("open durable: %v", err)
				}
				return db
			}
			db, m := open(), edbModel{}
			for _, batch := range c.batches[:split] {
				applyOps(t, db, batch)
				m.apply(batch)
			}
			checkOwnership(t, db, c, m, "durable live")
			if err := db.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			db = open()
			checkOwnership(t, db, c, m, "clean reopen")
			for _, batch := range c.batches[split:] {
				applyOps(t, db, batch)
				m.apply(batch)
			}
			checkOwnership(t, db, c, m, "durable live after reopen")
			db.abandon()
			db = open()
			defer db.Close()
			if db.Stats().Persist.RecoveredRecords == 0 {
				t.Fatal("crash reopen replayed no WAL records")
			}
			checkOwnership(t, db, c, m, "crash reopen")
		})
	}
}

// TestServeProgramHasNoAssertedSet: the serve workloads' program applies
// facts only to its input relations, so every applied fact lives in the
// engine and no asserted set exists.
func TestServeProgramHasNoAssertedSet(t *testing.T) {
	src, err := os.ReadFile("perfbench/programs/serve_reach.dl")
	if err != nil {
		t.Fatal(err)
	}
	db, err := MustParse(string(src)).Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	for i := 0; i < 20; i++ {
		b := db.NewBatch().Add("edge", i, i+1).Add("label", i, i%3)
		if i%4 == 3 {
			b.Delete("edge", i-2, i-1).Delete("label", i-1, (i-1)%3)
		}
		if err := db.Apply(b); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	if len(db.asserted) != 0 {
		t.Fatalf("asserted sets for %v", db.asserted)
	}
	for _, rel := range []string{"edge", "label"} {
		if db.edb[rel] != db.eng.Relation(rel) {
			t.Fatalf("%s's facts do not live in the engine relation", rel)
		}
	}
	if st := db.Stats(); st.AppliesFallback != 0 {
		t.Fatalf("serve stream fell back: %+v", st)
	}
}

// TestRecoveryIsNotAFallback: reopening a durable database evaluates the
// fixpoint once but applies no batch, so after a clean and after a crash
// reopen every apply is either incremental or a fallback, and none fell back.
func TestRecoveryIsNotAFallback(t *testing.T) {
	dir := t.TempDir()
	open := func() *Database {
		db, err := MustParse(persistSrc).Open(tinyPersist(dir))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return db
	}
	check := func(db *Database, phase string) {
		t.Helper()
		st := db.Stats()
		if st.Applies != st.AppliesIncremental+st.AppliesFallback || st.AppliesFallback != 0 {
			t.Fatalf("%s: applies=%d incremental=%d fallback=%d reasons=%v", phase,
				st.Applies, st.AppliesIncremental, st.AppliesFallback, st.FallbackReasons)
		}
	}
	db := open()
	applyScript(t, db, 3, 5)
	check(db, "live")
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db = open()
	check(db, "clean reopen")
	applyScript(t, db, 4, 2)
	db.abandon()
	db = open()
	defer db.Close()
	if !db.Stats().Persist.Recovered {
		t.Fatal("crash reopen did not recover")
	}
	check(db, "crash reopen")
}
