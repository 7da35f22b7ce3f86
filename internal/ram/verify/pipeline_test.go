package verify_test

// Pipeline invariant test: every embedded example program and every
// fixture the ast2ram tests exercise is pushed through
// translate → ramopt → condition fusion, and the RAM program is verified
// after each stage. Any rewrite that breaks a structural invariant fails
// here with a marked excerpt instead of as a wrong fixpoint at runtime.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sti/internal/ast2ram"
	"sti/internal/interp"
	"sti/internal/parser"
	"sti/internal/ram"
	"sti/internal/ram/verify"
	"sti/internal/ramopt"
	"sti/internal/sema"
	"sti/internal/symtab"
)

// fixtureSrcs mirrors the translation fixtures of internal/ast2ram's tests
// (which independently verify their own outputs through the shared
// translate helper) so the full pipeline corpus lives in one place.
var fixtureSrcs = map[string]string{
	"transitive-closure": `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.input edge
.output path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
`,
	"second-column-search": `
.decl e(x:number, y:number)
.decl r(x:number)
.decl s(x:number)
r(x) :- s(y), e(x, y).
`,
	"negation": `
.decl a(x:number)
.decl b(x:number)
.decl c(x:number)
c(x) :- a(x), !b(x).
`,
	"facts": `
.decl p(x:number, s:symbol)
p(1, "a").
p(2, "b").
`,
	"aggregate": `
.decl e(x:number, y:number)
.decl out(x:number, n:number)
out(x, n) :- e(x, _), n = count : { e(x, _) }.
`,
	"eqrel-non-prefix": `
.decl eq(x:number, y:number) eqrel
.decl s(x:number)
.decl out(x:number)
out(x) :- s(y), eq(x, y).
`,
	"mutual-recursion": `
.decl seed(x:number)
.decl a(x:number)
.decl b(x:number)
seed(1).
a(x) :- seed(x).
a(x) :- b(x).
b(x) :- a(x), x < 10.
`,
	"constant-folding": `
.decl out(x:number, s:symbol)
out(1 + 2 * 3, cat("a", "b")).
out(x + 1, "c") :- out(x, _), x < 3 + 4.
`,
}

// optimizerConfigs are the optimizer's two pass sets. The verifier is armed
// while they run, so ramopt re-verifies after every single pass and a
// failure's stage names it ("ramopt/fuse-filters"); no per-pass rows are
// needed to localise a broken rewrite.
var optimizerConfigs = []struct {
	name string
	opts ramopt.Options
}{
	{"queryable", ramopt.Queryable()},
	{"all", ramopt.All()},
}

func TestPipelineInvariants(t *testing.T) {
	for name, src := range corpus(t) {
		t.Run(name, func(t *testing.T) {
			for _, cfg := range optimizerConfigs {
				prog, st := translate(t, src)
				if err := verify.Check(prog, "ast2ram"); err != nil {
					t.Fatalf("after translate: %v", err)
				}
				armed(t, "ramopt "+cfg.name, func() { ramopt.Optimize(prog, st, cfg.opts) })
				if err := verify.Check(prog, "ramopt/"+cfg.name); err != nil {
					t.Fatalf("after ramopt %s: %v", cfg.name, err)
				}
				// Condition fusion is a normal tree-generation step
				// (interp/fuse.go); armed, it checks every condition it
				// fuses against the tuples in scope. The verify below
				// catches mutations of the program itself.
				armed(t, "tree generation with fusion", func() { interp.New(prog, st, interp.DefaultConfig()) })
				if err := verify.Check(prog, "fuse/"+cfg.name); err != nil {
					t.Fatalf("after fusion under ramopt %s: %v", cfg.name, err)
				}
			}
		})
	}
}

// corpus gathers the fixture programs plus every program embedded in
// examples/*/main.go.
func corpus(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for name, src := range fixtureSrcs {
		out["fixture/"+name] = src
	}
	dirs, err := filepath.Glob(filepath.Join("..", "..", "..", "examples", "*", "main.go"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, path := range dirs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		progs := embeddedPrograms(string(data))
		if len(progs) == 0 {
			t.Fatalf("%s embeds no Datalog program", path)
		}
		for i, src := range progs {
			name := "example/" + filepath.Base(filepath.Dir(path))
			if len(progs) > 1 {
				name = fmt.Sprintf("%s#%d", name, i)
			}
			out[name] = src
		}
	}
	return out
}

// embeddedPrograms extracts Datalog sources from Go raw string literals.
// Backticks cannot be escaped inside raw literals, so splitting on them
// alternates code and literal contents exactly.
func embeddedPrograms(goSrc string) []string {
	parts := strings.Split(goSrc, "`")
	var out []string
	for i := 1; i < len(parts); i += 2 {
		if strings.Contains(parts[i], ".decl") {
			out = append(out, parts[i])
		}
	}
	return out
}

func translate(t *testing.T, src string) (*ram.Program, *symtab.Table) {
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
	prog, err := ast2ram.Translate(an, st)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	return prog, st
}

// armed runs fn with the verifier in debug mode — where the pipeline stages
// check their own output and panic with a *verify.Error naming the stage —
// and turns such a panic into a test failure.
func armed(t *testing.T, what string, fn func()) {
	t.Helper()
	was := verify.Debugging()
	verify.SetDebug(true)
	defer verify.SetDebug(was)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: %v", what, r)
		}
	}()
	fn()
}
