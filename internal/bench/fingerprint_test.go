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

// section is one part of everything the translator decides for a program.
type section struct {
	name, text string
}

// translationSections splits everything the translator decides for one
// program into the sections TestTranslationFingerprints pins one by one:
// "decls", the printed relation declarations, and "main", "update" and
// "delete", one per entry point present, each its printed RAM followed by the
// RuleID of every query in it in program order. With optimize the RAM is the
// one sti.Parse hands every backend, the translation after ramopt.Optimize,
// and each entry point's text also lists the IndexID of every search site in
// it in program order (the printer shows index orders but not which one a
// search uses). The printed parts must concatenate to the whole program's
// String, so nothing the translator decides goes unpinned; tb fails when they
// do not. The error is the frontend's.
func translationSections(tb testing.TB, w *Workload, optimize bool) ([]section, error) {
	rp, st, err := w.Compile()
	if err != nil {
		return nil, err
	}
	if optimize {
		ramopt.Optimize(rp, st, ramopt.Queryable())
	}
	empty := &ram.Sequence{}
	decls := (&ram.Program{Relations: rp.Relations, Main: empty}).String()
	sections := []section{{"decls", decls}}
	printed := decls
	for _, e := range []struct {
		name string
		prog *ram.Program
		s    ram.Statement
	}{
		{"main", &ram.Program{Main: rp.Main}, rp.Main},
		{"update", &ram.Program{Main: empty, Update: rp.Update}, rp.Update},
		{"delete", &ram.Program{Main: empty, Delete: rp.Delete}, rp.Delete},
	} {
		if e.s == nil {
			continue
		}
		text := e.prog.String()
		printed += text
		ids, indexIDs := searchIDs(e.s)
		text += "RULEIDS " + strings.Join(ids, " ") + "\n"
		if optimize {
			text += "INDEXIDS " + strings.Join(indexIDs, " ") + "\n"
		}
		sections = append(sections, section{e.name, text})
	}
	if printed != rp.String() {
		tb.Errorf("%s: the sections do not concatenate to the printed program", w.FullName())
	}
	return sections, nil
}

// searchIDs lists, in program order, the RuleID of every query under s and
// the IndexID of every search site under s.
func searchIDs(s ram.Statement) (ids, indexIDs []string) {
	site := func(id int) { indexIDs = append(indexIDs, fmt.Sprint(id)) }
	ram.Inspect(s, func(n any) bool {
		switch n := n.(type) {
		case *ram.Query:
			ids = append(ids, fmt.Sprint(n.RuleID))
		case *ram.Scan:
			if ram.Keyed(n.Pattern, n.Bound) {
				site(n.IndexID)
			}
		case *ram.Choice:
			if ram.Keyed(n.Pattern, n.Bound) {
				site(n.IndexID)
			}
		case *ram.Aggregate:
			site(n.IndexID)
		case *ram.ExistenceCheck:
			site(n.IndexID)
		}
		return true
	})
	return ids, indexIDs
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

// TestTranslationFingerprints pins the translator's output: one SHA-256 per
// program, section (translationSections) and translation, the unoptimized
// one or (the "optimized" lines) the program after the optimizer. A
// refactoring of internal/ast2ram or internal/ramopt that claims
// byte-identical RAM must pass with the file unchanged, and a change meant
// for one entry point shows the other sections unchanged; a change that
// alters the RAM on purpose regenerates it with
//
//	go test ./internal/bench -run TranslationFingerprints -update
func TestTranslationFingerprints(t *testing.T) {
	got := map[string]string{}
	for _, w := range fingerprintPrograms(t) {
		for _, optimize := range []bool{false, true} {
			sections, err := translationSections(t, w, optimize)
			if err != nil {
				continue
			}
			name := w.FullName()
			if optimize {
				name += " optimized"
			}
			for _, sec := range sections {
				got[name+" "+sec.name] = fmt.Sprintf("%x", sha256.Sum256([]byte(sec.text)))
			}
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
		t.Errorf("%d sections translate, %s lists %d", len(gotLines), fingerprintFile, len(wantLines))
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
