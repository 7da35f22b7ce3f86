package bench

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sti/internal/ram"
	"sti/internal/ramopt"
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/translation_fingerprints.txt")

const fingerprintFile = "testdata/translation_fingerprints.txt"

// translationText is everything the translator decides for one program: the
// printed RAM (declarations, Main, Update and Delete) and the RuleID of every
// query in program order. With optimize the RAM is the one sti.Parse hands
// every backend, the translation after ramopt.Optimize, and the text also
// lists the IndexID of every search site in program order (the printer shows
// index orders but not which one a search uses).
func translationText(w *Workload, optimize bool) (string, error) {
	rp, st, err := w.Compile()
	if err != nil {
		return "", err
	}
	if optimize {
		ramopt.Optimize(rp, st, ramopt.Queryable())
	}
	var ids, indexIDs []string
	site := func(id int) { indexIDs = append(indexIDs, fmt.Sprint(id)) }
	var cond func(c ram.Condition)
	cond = func(c ram.Condition) {
		switch c := c.(type) {
		case *ram.And:
			cond(c.L)
			cond(c.R)
		case *ram.Not:
			cond(c.C)
		case *ram.ExistenceCheck:
			site(c.IndexID)
		}
	}
	var op func(o ram.Operation)
	op = func(o ram.Operation) {
		switch o := o.(type) {
		case *ram.Scan:
			if ram.Keyed(o.Pattern, o.Bound) {
				site(o.IndexID)
			}
			op(o.Nested)
		case *ram.Choice:
			if ram.Keyed(o.Pattern, o.Bound) {
				site(o.IndexID)
			}
			cond(o.Cond)
			op(o.Nested)
		case *ram.Filter:
			cond(o.Cond)
			op(o.Nested)
		case *ram.Aggregate:
			site(o.IndexID)
			cond(o.Cond)
			op(o.Nested)
		}
	}
	var walk func(s ram.Statement)
	walk = func(s ram.Statement) {
		switch s := s.(type) {
		case *ram.Sequence:
			for _, st := range s.Stmts {
				walk(st)
			}
		case *ram.Loop:
			walk(s.Body)
		case *ram.LogTimer:
			walk(s.Stmt)
		case *ram.Query:
			ids = append(ids, fmt.Sprint(s.RuleID))
			op(s.Root)
		}
	}
	for _, s := range []ram.Statement{rp.Main, rp.Update, rp.Delete} {
		if s != nil {
			walk(s)
		}
	}
	text := rp.String() + "RULEIDS " + strings.Join(ids, " ") + "\n"
	if optimize {
		text += "INDEXIDS " + strings.Join(indexIDs, " ") + "\n"
	}
	return text, nil
}

// fingerprintPrograms is every program the fingerprint test pins: the
// Small-scale suites, the shipped .dl examples and the perfbench programs.
// Programs the frontend rejects (examples/lint seeds two) are left out.
func fingerprintPrograms(tb testing.TB) []*Workload {
	ws := Suites(Small)
	for _, dir := range []string{"examples", "perfbench/programs"} {
		root := filepath.Join("..", "..", dir)
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || filepath.Ext(path) != ".dl" {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(filepath.Join("..", ".."), path)
			ws = append(ws, &Workload{Suite: "file", Name: filepath.ToSlash(rel), Src: string(src)})
			return nil
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return ws
}

// TestTranslationFingerprints pins the translator's output: two SHA-256 per
// program over translationText, one of the unoptimized translation and one
// (the "optimized" line) of the program after the optimizer. A refactoring
// of internal/ast2ram or internal/ramopt that claims byte-identical RAM must
// pass with the file unchanged; a change that alters the RAM on purpose
// regenerates it with
//
//	go test ./internal/bench -run TranslationFingerprints -update
func TestTranslationFingerprints(t *testing.T) {
	got := map[string]string{}
	for _, w := range fingerprintPrograms(t) {
		for _, optimize := range []bool{false, true} {
			text, err := translationText(w, optimize)
			if err != nil {
				continue
			}
			name := w.FullName()
			if optimize {
				name += " optimized"
			}
			got[name] = fmt.Sprintf("%x", sha256.Sum256([]byte(text)))
		}
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s\n", got[name], name)
	}
	if *updateFingerprints {
		if err := os.WriteFile(fingerprintFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fingerprintFile)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(wantLines) != len(gotLines) {
		t.Errorf("%d programs translate, %s lists %d", len(gotLines), fingerprintFile, len(wantLines))
	}
	wantSet := map[string]bool{}
	for _, l := range wantLines {
		wantSet[l] = true
	}
	for _, l := range gotLines {
		if !wantSet[l] {
			t.Errorf("translation changed: %s", l)
		}
	}
}
