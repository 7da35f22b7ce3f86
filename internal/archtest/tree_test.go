package archtest

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// A tree is a set of parsed Go files keyed by their slash path relative to
// the module root: the module on disk, or a row's in-memory fixture.
type tree struct {
	fset  *token.FileSet
	paths []string // sorted
	src   map[string][]byte
	files map[string]*ast.File
}

// A check returns one finding per violation of its row.
type check func(*tree) []string

// A scope selects files by path.
type scope func(path string) bool

func newTree(files map[string][]byte) (*tree, error) {
	t := &tree{fset: token.NewFileSet(), src: files, files: map[string]*ast.File{}}
	for p := range files {
		t.paths = append(t.paths, p)
	}
	sort.Strings(t.paths)
	for _, p := range t.paths {
		// Comments are not parsed, so no row can match one.
		f, err := parser.ParseFile(t.fset, p, files[p], parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		t.files[p] = f
	}
	return t, nil
}

// loadModule reads every Go file of the module rooted at root, except the
// directories that hold no product code: build outputs (bin/, gen/,
// perfbench/out/), test inputs (testdata/) and .git.
func loadModule(root string) (*tree, error) {
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			switch rel {
			case ".git", "bin", "gen", "perfbench/out":
				return filepath.SkipDir
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") {
			files[rel], err = os.ReadFile(p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return newTree(files)
}

// product reports whether a file is part of the product: non-test Go
// outside perfbench/, the set every row but the epoch guard reads.
func product(p string) bool {
	return !strings.HasSuffix(p, "_test.go") && !strings.HasPrefix(p, "perfbench/")
}

var everywhere scope = func(string) bool { return true }

// within selects the files directly in the given directories ("." is the
// module root).
func within(dirs ...string) scope {
	return func(p string) bool {
		for _, d := range dirs {
			if path.Dir(p) == d {
				return true
			}
		}
		return false
	}
}

// except narrows s by the given files and directories (a trailing "/"
// names a directory and everything under it).
func (s scope) except(paths ...string) scope {
	return func(p string) bool {
		for _, x := range paths {
			if p == x || strings.HasSuffix(x, "/") && strings.HasPrefix(p, x) {
				return false
			}
		}
		return s(p)
	}
}

// A match is a code token that matched a row's pattern.
type match struct {
	pos token.Position
	tok string
}

func (m match) String() string { return fmt.Sprintf("%s: %s", m.pos, m.tok) }

// matches returns the code tokens of the product files in s that match
// re, in file order. With perLine it keeps the first match of each line,
// as a line-oriented search would.
func (t *tree) matches(re *regexp.Regexp, s scope, perLine bool) []match {
	var out []match
	for _, p := range t.paths {
		if !product(p) || !s(p) {
			continue
		}
		var ms []match
		tokens(t.files[p], func(pos token.Pos, tok string) {
			if re.MatchString(tok) {
				ms = append(ms, match{t.fset.Position(pos), tok})
			}
		})
		sort.SliceStable(ms, func(i, j int) bool { return ms[i].pos.Offset < ms[j].pos.Offset })
		for i, m := range ms {
			if !perLine || i == 0 || ms[i-1].pos.Line != m.pos.Line {
				out = append(out, m)
			}
		}
	}
	return out
}

// tokens renders the code of f as the strings a row's pattern is matched
// against: identifiers, qualified names (x.y.Z), calls ("x.F(", and
// "x.F()" without arguments), composite literal types ("ram.Loop{"),
// function declarations ("func F"), assignment targets ("x.F = "), each
// type or value of a case clause ("case *ram.Sequence:") and string
// literals as written, quotes included.
func tokens(f *ast.File, yield func(token.Pos, string)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			yield(n.Pos(), n.Name)
		case *ast.BasicLit:
			if n.Kind == token.STRING {
				yield(n.Pos(), n.Value)
			}
		case *ast.SelectorExpr:
			yield(n.Pos(), render(n))
		case *ast.CallExpr:
			call := render(n.Fun) + "("
			if len(n.Args) == 0 {
				call += ")"
			}
			yield(n.Pos(), call)
		case *ast.CompositeLit:
			if n.Type != nil {
				yield(n.Pos(), render(n.Type)+"{")
			}
		case *ast.FuncDecl:
			if n.Recv == nil {
				yield(n.Pos(), "func "+n.Name.Name)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				yield(lhs.Pos(), render(lhs)+" "+n.Tok.String()+" ")
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				yield(e.Pos(), "case "+render(e)+":")
			}
		}
		return true
	})
}

// render prints the name-like part of an expression; what it cannot name
// (a call result, an index) prints as nothing, so f().X renders ".X".
func render(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return render(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + render(e.X)
	}
	return ""
}

// forbid rejects every line of the product files in s with a code token
// matching pattern.
func forbid(pattern string, s scope) check {
	re := regexp.MustCompile(pattern)
	return func(t *tree) []string {
		var out []string
		for _, m := range t.matches(re, s, true) {
			out = append(out, m.String())
		}
		return out
	}
}

// onlyIn rejects unless the product files with a code token matching
// pattern are exactly want.
func onlyIn(pattern string, want ...string) check {
	re := regexp.MustCompile(pattern)
	return func(t *tree) []string {
		var out []string
		seen := map[string]bool{}
		for _, m := range t.matches(re, everywhere, true) {
			seen[m.pos.Filename] = true
			if !contains(want, m.pos.Filename) {
				out = append(out, m.String())
			}
		}
		for _, w := range want {
			if !seen[w] {
				out = append(out, fmt.Sprintf("%s: no longer matches %s", w, pattern))
			}
		}
		return out
	}
}

// exactly rejects unless the product files in s hold exactly n code
// tokens matching pattern.
func exactly(n int, pattern string, s scope) check {
	re := regexp.MustCompile(pattern)
	return func(t *tree) []string {
		ms := t.matches(re, s, false)
		if len(ms) == n {
			return nil
		}
		out := []string{fmt.Sprintf("%d matches of %s, want %d", len(ms), pattern, n)}
		for _, m := range ms {
			out = append(out, m.String())
		}
		return out
	}
}

func all(checks ...check) check {
	return func(t *tree) []string {
		var out []string
		for _, c := range checks {
			out = append(out, c(t)...)
		}
		return out
	}
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// imports returns the module's import graph over its product files, as
// go/build selects them for this platform: package import path -> the
// paths its files import.
func (t *tree) imports() (map[string][]string, error) {
	ctxt := build.Default
	ctxt.OpenFile = func(p string) (io.ReadCloser, error) {
		src, ok := t.src[filepath.ToSlash(p)]
		if !ok {
			return nil, fs.ErrNotExist
		}
		return io.NopCloser(bytes.NewReader(src)), nil
	}
	graph := map[string][]string{}
	for _, p := range t.paths {
		if !product(p) {
			continue
		}
		dir, name := path.Split(p)
		if ok, err := ctxt.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		pkg := strings.TrimSuffix("sti/"+dir, "/")
		for _, imp := range t.files[p].Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, err
			}
			graph[pkg] = append(graph[pkg], ip)
		}
	}
	return graph, nil
}

// cone returns the import graph and every package reachable from roots
// (roots included), each with the import chain that first reached it. A
// root without files is a finding, so a moved package cannot pass a row
// vacuously.
func (t *tree) cone(roots []string) (graph map[string][]string, via map[string]string, out []string) {
	graph, err := t.imports()
	if err != nil {
		return nil, nil, []string{err.Error()}
	}
	via = map[string]string{}
	queue := append([]string(nil), roots...)
	for _, r := range roots {
		via[r] = r
		if _, ok := graph[r]; !ok {
			out = append(out, "no package "+r)
		}
	}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		for _, imp := range graph[pkg] {
			if _, ok := via[imp]; !ok {
				via[imp] = via[pkg] + " -> " + imp
				queue = append(queue, imp)
			}
		}
	}
	return graph, via, out
}

// outsideCone rejects each forbidden package in the import cone of roots.
func outsideCone(roots []string, forbidden ...string) check {
	return func(t *tree) []string {
		_, via, out := t.cone(roots)
		for _, f := range forbidden {
			if chain, ok := via[f]; ok {
				out = append(out, "imports "+chain)
			}
		}
		return out
	}
}

// onlyImporter rejects each package in the import cone of roots that
// imports target, unless it is one of allowed.
func onlyImporter(roots []string, target string, allowed ...string) check {
	return func(t *tree) []string {
		graph, via, out := t.cone(roots)
		pkgs := make([]string, 0, len(via))
		for pkg := range via {
			pkgs = append(pkgs, pkg)
		}
		sort.Strings(pkgs)
		for _, pkg := range pkgs {
			if contains(graph[pkg], target) && !contains(allowed, pkg) {
				out = append(out, via[pkg]+" imports "+target)
			}
		}
		return out
	}
}
