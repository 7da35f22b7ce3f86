package codegen

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sti/internal/ast2ram"
	"sti/internal/parser"
	"sti/internal/ram"
	"sti/internal/sema"
	"sti/internal/symtab"
)

func compileSrc(t testing.TB, src string) (*ram.Program, *symtab.Table) {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	an, errs := sema.Analyze(p)
	if len(errs) > 0 {
		t.Fatalf("sema: %v", errs)
	}
	st := symtab.New()
	rp, err := ast2ram.Translate(an, st)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	return rp, st
}

// moduleRoot finds the repository root (where go.mod lives).
func moduleRoot(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod found")
		}
		dir = parent
	}
}

const tcSrc = `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.input edge
.output path
.printsize path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
`

func TestEmitShape(t *testing.T) {
	rp, st := compileSrc(t, tcSrc)
	src, err := Emit(rp, st)
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	for _, want := range []string{
		"package main",
		"btree.Tree[relation.Tup2]",
		".Range(relation.Tup2{", // specialized prefix search
		"io.Load",
		"io.Store",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("emitted source lacks %q:\n%s", want, text)
		}
	}
}

// TestEmitSecondaryInsertStopsAtDuplicate: r is searched on either column,
// so it keeps two orders, and the synthesized insert enters the second only
// when the first reports the tuple new.
func TestEmitSecondaryInsertStopsAtDuplicate(t *testing.T) {
	rp, st := compileSrc(t, `
.decl edge(x:number, y:number)
.decl r(x:number, y:number)
.decl a(x:number)
.decl b(y:number)
.decl byx(y:number)
.decl byy(x:number)
.input edge
.input a
.input b
.output byx
.output byy
r(x, y) :- edge(x, y).
byx(y) :- a(x), r(x, y).
byy(x) :- b(y), r(x, y).
`)
	var r *ram.Relation
	for _, rel := range rp.Relations {
		if rel.Name == "r" {
			r = rel
		}
	}
	if r == nil || len(r.Orders) != 2 {
		t.Fatalf("relation r: want two orders, got %v", r)
	}
	src, err := Emit(rp, st)
	if err != nil {
		t.Fatal(err)
	}
	first, second := storeName(r, 0), storeName(r, 1)
	want := regexp.MustCompile(`(?m)^\s*if ` + first + `\.Insert\(relation\.Tup2\{[^}]*\}\) \{\n\s*` + second + `\.Insert\(relation\.Tup2\{[^}]*\}\)\n\s*\}$`)
	if !want.Match(src) {
		t.Fatalf("the insert into %s is not guarded by the one into %s:\n%s", second, first, src)
	}
	if n := strings.Count(string(src), second+".Insert("); n != 1 {
		t.Fatalf("%d inserts into %s, want the guarded one", n, second)
	}
}

// TestSynthesizedProgramRuns emits, compiles, and executes the synthesized
// program and checks its output against the known closure of a chain graph.
func TestSynthesizedProgramRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("go build in -short mode")
	}
	root := moduleRoot(t)
	rp, st := compileSrc(t, tcSrc)
	dir, err := WriteProgram(root, "test_tc", rp, st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })

	bin, compileTime, err := Build(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	if compileTime <= 0 {
		t.Fatal("no compile time measured")
	}

	work := t.TempDir()
	if err := os.WriteFile(filepath.Join(work, "edge.facts"), []byte("1\t2\n2\t3\n3\t4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunBinary(bin, work, work); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(work, "path.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 6 {
		t.Fatalf("path.csv has %d rows:\n%s", len(lines), data)
	}
	if lines[0] != "1\t2" || lines[5] != "3\t4" {
		t.Fatalf("path.csv contents:\n%s", data)
	}
}

// TestSynthesizedKitchenSink covers negation, aggregates, strings, eqrel,
// brie, non-trivial index orders, an inclusive range bound and one isolated
// from a linear constraint end-to-end through the synthesizer.
func TestSynthesizedKitchenSink(t *testing.T) {
	if testing.Short() {
		t.Skip("go build in -short mode")
	}
	src := `
.decl edge(x:number, y:number)
.decl rev(x:number, y:number)
.decl deg(x:number, n:number)
.decl lonely(x:number)
.decl lbl(s:symbol)
.decl eq(x:number, y:number) eqrel
.decl trie(x:number, y:number) brie
.decl near(x:number, y:number)
.decl window(x:number, y:number)
.decl joined(x:number)
.input edge
.output near
.output window
.output rev
.output deg
.output lonely
.output lbl
.output joined
.printsize eq
.printsize trie
rev(y, x) :- edge(x, y).
deg(x, n) :- edge(x, _), n = count : { edge(x, _) }.
lonely(x) :- edge(x, _), !rev(x, _).
lbl(cat("n", to_string(x))) :- edge(x, _).
eq(x, y) :- edge(x, y).
trie(x, y) :- edge(x, y), x < y.
near(x, y) :- edge(x, _), edge(y, _), y >= x - 1, y <= x.
window(x, y) :- edge(x, _), edge(y, _), y > x, (y - x) / 2 < 1.
joined(y) :- edge(x, _), y = x + 2, eq(_, y).
`
	root := moduleRoot(t)
	rp, st := compileSrc(t, src)
	dir, err := WriteProgram(root, "test_sink", rp, st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	bin, _, err := Build(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	if err := os.WriteFile(filepath.Join(work, "edge.facts"), []byte("1\t2\n2\t1\n3\t4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunBinary(bin, work, work); err != nil {
		t.Fatal(err)
	}
	read := func(name string) string {
		data, err := os.ReadFile(filepath.Join(work, name))
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		return strings.TrimSpace(string(data))
	}
	if got := read("rev.csv"); got != "1\t2\n2\t1\n4\t3" {
		t.Fatalf("rev.csv:\n%s", got)
	}
	if got := read("deg.csv"); got != "1\t1\n2\t1\n3\t1" {
		t.Fatalf("deg.csv:\n%s", got)
	}
	if got := read("near.csv"); got != "1\t1\n2\t1\n2\t2\n3\t2\n3\t3" {
		t.Fatalf("near.csv:\n%s", got)
	}
	if !strings.Contains(rp.String(), "0>=:number sub:number(t0.0, 1) AND 0<=:number t0.0") {
		t.Fatalf("near's inner scan lost its range bound:\n%s", rp)
	}
	if got := read("window.csv"); got != "1\t2\n2\t3" {
		t.Fatalf("window.csv:\n%s", got)
	}
	if !strings.Contains(rp.String(), "0>:number t0.0 AND 0<=:number max:number(add:number(min:number(t0.0, 2147483646), 1), bxor:number(bshr:number(t0.0, 31), 2147483648))") {
		t.Fatalf("window's inner scan lost its isolated range bound:\n%s", rp)
	}
	emitted, err := os.ReadFile(filepath.Join(dir, "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`relation\.Bound\{Type: value\.Number, Lo: .*, Hi: .*ram\.OpBShr.*HasHi: true`).Match(emitted) {
		t.Fatal("the emitted Go does not range on window's isolated bound")
	}
	if got := read("joined.csv"); got != "3\n4" {
		t.Fatalf("joined.csv:\n%s", got)
	}
	if got := read("lonely.csv"); got != "3" {
		t.Fatalf("lonely.csv:\n%s", got)
	}
	lbl := read("lbl.csv")
	for _, want := range []string{"n1", "n2", "n3"} {
		if !strings.Contains(lbl, want) {
			t.Fatalf("lbl.csv lacks %s:\n%s", want, lbl)
		}
	}
}
