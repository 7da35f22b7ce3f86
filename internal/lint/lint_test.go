package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sti/internal/lint"
	"sti/internal/parser"
)

func checkFile(t *testing.T, path string) []lint.Diagnostic {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return lint.Check(path, prog)
}

// at is the position-and-code fingerprint of one expected diagnostic.
type at struct {
	line, col int
	code      string
}

func wantDiags(t *testing.T, got []lint.Diagnostic, want []at) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(got), len(want), render(got))
	}
	for i, w := range want {
		d := got[i]
		if d.Line != w.line || d.Col != w.col || d.Code != w.code {
			t.Errorf("diagnostic %d = %s:%d:%d [%s], want %d:%d [%s]",
				i, d.Path, d.Line, d.Col, d.Code, w.line, w.col, w.code)
		}
	}
}

func render(ds []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

const corpusDir = "../../examples/lint"

func TestCorpusSeededDefects(t *testing.T) {
	cases := []struct {
		file string
		want []at
	}{
		{"unused_relation.dl", []at{{4, 1, "unused-relation"}}},
		{"unbound_head.dl", []at{{8, 8, "unbound-head-var"}}},
		{"singleton.dl", []at{{7, 16, "singleton-var"}}},
		{"always_empty.dl", []at{{10, 1, "always-empty-rule"}}},
		{"unreachable_rule.dl", []at{
			{11, 1, "unreachable-rule"},
			{12, 1, "unreachable-rule"},
			{13, 1, "unreachable-rule"},
		}},
		{"negation_in_recursion.dl", []at{{10, 19, "negation-in-recursion"}}},
		{"input_and_derived.dl", []at{{14, 1, "input-and-derived"}}},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			got := checkFile(t, filepath.Join(corpusDir, c.file))
			wantDiags(t, got, c.want)
		})
	}
}

// TestCorpusFilesFireOnlyTheirOwnKind: each seeded file demonstrates one
// diagnostic kind without tripping the others, and the corpus covers every
// rule the checker implements.
func TestCorpusFilesFireOnlyTheirOwnKind(t *testing.T) {
	kinds := map[string]string{
		"unused_relation.dl":       "unused-relation",
		"unbound_head.dl":          "unbound-head-var",
		"singleton.dl":             "singleton-var",
		"always_empty.dl":          "always-empty-rule",
		"unreachable_rule.dl":      "unreachable-rule",
		"negation_in_recursion.dl": "negation-in-recursion",
		"input_and_derived.dl":     "input-and-derived",
	}
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".dl") {
			continue
		}
		seen++
		want, ok := kinds[e.Name()]
		if !ok {
			t.Errorf("corpus file %s has no registered diagnostic kind", e.Name())
			continue
		}
		got := checkFile(t, filepath.Join(corpusDir, e.Name()))
		if len(got) == 0 {
			t.Errorf("%s: no diagnostics fired", e.Name())
		}
		for _, d := range got {
			if d.Code != want {
				t.Errorf("%s: unexpected %s diagnostic: %s", e.Name(), d.Code, d)
			}
		}
	}
	if seen != len(kinds) {
		t.Errorf("corpus has %d .dl files, want %d (one per diagnostic kind)", seen, len(kinds))
	}
}

// TestShippedExamplesLintClean: every example outside the seeded-defect
// corpus must produce zero diagnostics.
func TestShippedExamplesLintClean(t *testing.T) {
	paths, err := filepath.Glob("../../examples/*.dl")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Skip("no shipped .dl examples")
	}
	for _, p := range paths {
		if got := checkFile(t, p); len(got) != 0 {
			t.Errorf("%s is not lint-clean:\n%s", p, render(got))
		}
	}
}

func TestExcerpt(t *testing.T) {
	src := "line one\nout(x, y) :- e(x), y > 0.\n"
	got := lint.Excerpt(src, 2, 8)
	if !strings.Contains(got, "out(x, y)") || !strings.Contains(got, "^") {
		t.Fatalf("excerpt missing source or caret:\n%s", got)
	}
	lines := strings.Split(got, "\n")
	if len(lines) != 2 {
		t.Fatalf("excerpt is %d lines, want 2:\n%s", len(lines), got)
	}
	caret := strings.IndexByte(lines[1], '^')
	text := strings.Index(lines[0], "out(")
	if caret-strings.Index(lines[1], "| ")-2 != 7 || text < 0 {
		t.Fatalf("caret misaligned (index %d):\n%s", caret, got)
	}
	if lint.Excerpt(src, 0, 1) != "" || lint.Excerpt(src, 99, 1) != "" {
		t.Fatal("out-of-range positions must yield empty excerpts")
	}
}
