package archtest

import (
	"strings"
	"testing"
)

// A row is one architecture rule: a check over a tree and the fixtures
// that pin what it rejects and accepts.
type row struct {
	name  string
	check check
	cases []fixture
}

// A fixture is an in-memory source tree. want holds a substring of each
// finding the row must report on it, in order; an empty want means the
// row must accept the tree.
type fixture struct {
	name  string
	files map[string]string
	want  []string
}

var figureHarness = []string{"sti/cmd/benchmark", "sti/internal/bench"}

var rows = []row{
	// The interpreter's ablation switches (paper §4.1-4.4, §5.2) and the
	// §5.1 legacy store exist to reproduce the paper's figures. Only
	// internal/bench, perfbench and tests may flip them; the root package
	// and the CLI build interp.DefaultConfig() and nothing else.
	// WithBackend(Compiled) is the root package's one named exception (the
	// benchmark oracle), and the CLI does not offer it.
	{
		name: "one-engine-configuration",
		check: all(
			forbid(`LegacyConfig|DynamicAdapterConfig|StaticDispatch|SuperInstructions|StaticReordering|LeanDispatch|FusedFilters`,
				within(".", "cmd/sti")),
			forbid(`WithBackend`, within("cmd/sti"))),
		cases: []fixture{{
			name: "ablation-and-backend",
			files: map[string]string{
				"sti.go":         "package sti\n\nvar cfg = interp.LegacyConfig()\n",
				"cmd/sti/run.go": "package main\n\nvar opt = sti.WithBackend(sti.Compiled)\n",
			},
			want: []string{"sti.go:3:11: interp.LegacyConfig", "cmd/sti/run.go:3:11: sti.WithBackend"},
		}},
	},
	// Besides sti.Parse, two named exceptions translate on their own and
	// say why in a comment: sti vet and the paper-figure harness.
	{
		name:  "one-compilation-pipeline",
		check: onlyIn(`ast2ram\.Translate\(`, "cmd/sti/vet.go", "internal/bench/workload.go", "sti.go"),
		cases: []fixture{{
			name: "fourth-caller",
			files: map[string]string{
				"sti.go":                     "package sti\n\nvar p = ast2ram.Translate(a)\n",
				"cmd/sti/vet.go":             "package main\n\nvar p = ast2ram.Translate(a)\n",
				"internal/bench/workload.go": "package bench\n\nvar p = ast2ram.Translate(a)\n",
				"db.go":                      "package sti\n\nfunc f() { ast2ram.Translate(a) }\n",
			},
			want: []string{"db.go:3:12: ast2ram.Translate("},
		}, {
			name: "missing-caller",
			files: map[string]string{
				"sti.go":                     "package sti\n\n// ast2ram.Translate(a)\nvar p = parse(a)\n",
				"cmd/sti/vet.go":             "package main\n\nvar p = ast2ram.Translate(a)\n",
				"internal/bench/workload.go": "package bench\n\nvar p = ast2ram.Translate(a)\n",
			},
			want: []string{"sti.go: no longer matches"},
		}},
	},
	// ramopt has one pass list and every pass keeps all relations
	// queryable; ramopt.All() survives only as an alias of Queryable() for
	// the perfbench module. No whole-program fact bundle comes back in
	// internal/ram/analysis either.
	{
		name: "one-ram-pass-set",
		check: all(
			forbid(`ramopt\.All\(`, everywhere),
			forbid(`func Analyze`, within("internal/ram/analysis"))),
		cases: []fixture{{
			name: "all-passes-and-fact-bundle",
			files: map[string]string{
				"sti.go":                         "package sti\n\nvar p = ramopt.Optimize(prog, ramopt.All())\n",
				"internal/ram/analysis/facts.go": "package analysis\n\nfunc Analyze(p *ram.Program) {}\n",
			},
			want: []string{"sti.go:3:31: ramopt.All()", "internal/ram/analysis/facts.go:3:1: func Analyze"},
		}},
	},
	// Index orders and IndexIDs are chosen by one pass over the finished
	// translation, indexselect.Assign; neither the translator nor an
	// optimizer pass writes them.
	{
		name:  "one-index-selection",
		check: forbid(`\.Orders = |\.IndexID = `, everywhere.except("internal/indexselect/")),
		cases: []fixture{{
			name: "translator-writes-index",
			files: map[string]string{
				"internal/indexselect/assign.go": "package indexselect\n\nfunc f(s *ram.Scan) { s.IndexID = 1 }\n",
				"internal/ast2ram/rule.go":       "package ast2ram\n\nfunc f(s *ram.Scan) {\n\ts.IndexID = 0\n\tp.rel(s).Orders = nil\n}\n",
			},
			want: []string{"internal/ast2ram/rule.go:4:2: s.IndexID = ", "internal/ast2ram/rule.go:5:2: .Orders = "},
		}},
	},
	// Every stratum retracts by DRed (overdelete, then rederive); no
	// support-count sidecar, counting statement or count buffer may come
	// back beside it.
	{
		name:  "one-deletion-algorithm",
		check: forbid(`CountMerge|CountDelete|AuxCount|EnableCounting|cbuf_|\.Counting\b`, everywhere),
		cases: []fixture{{
			name: "support-counts",
			files: map[string]string{
				"internal/ast2ram/delete.go": "package ast2ram\n\nvar s = &ram.CountMerge{}\nvar n = \"cbuf_\" + name\n\nfunc f(o Options) bool { return o.Counting }\n",
			},
			want: []string{"delete.go:3:10: ram.CountMerge{", "delete.go:4:9: \"cbuf_\"", "delete.go:6:33: o.Counting"},
		}},
	},
	// A full scan is the search with an empty key: ram.Scan, ram.Choice
	// and ram.Aggregate mark an unkeyed search with IndexID -1, and each
	// backend has one instruction or builder per search kind. No second
	// scan, choice or aggregate form may come back beside them.
	{
		name:  "one-search-operation",
		check: forbid(`IndexScan|IndexChoice|opIndexAggregate|opIndexScan|opIndexChoice`, everywhere),
		cases: []fixture{{
			name: "keyed-scan-node",
			files: map[string]string{
				"internal/ram/ram.go":    "package ram\n\ntype IndexScan struct{ Scan }\n",
				"internal/interp/ops.go": "package interp\n\nconst (\n\topScan = iota\n\topIndexAggregate\n)\n",
			},
			want: []string{"internal/interp/ops.go:5:2: opIndexAggregate", "internal/ram/ram.go:3:6: IndexScan"},
		}},
	},
	// The translator's one atom binder mirrors an eqrel search keying only
	// column 1 to its natural prefix, as served queries do. No translator
	// path may refuse an eqrel search or test for a natural prefix on its
	// own again.
	{
		name:  "one-eqrel-search-rule",
		check: forbid(`isPrefixOfNatural|requires a natural prefix`, everywhere),
		cases: []fixture{{
			name: "prefix-refusal",
			files: map[string]string{
				"internal/ast2ram/rule.go": "package ast2ram\n\nfunc f() error {\n\tif !isPrefixOfNatural(k) {\n\t\treturn errors.New(\"eqrel search requires a natural prefix\")\n\t}\n\treturn nil\n}\n",
			},
			want: []string{"rule.go:4:6: isPrefixOfNatural(", "rule.go:5:21: \"eqrel search requires a natural prefix\""},
		}},
	},
	// Semantic analysis decides the front end's facts once: a functor's
	// signature is its entry in internal/ast's table (ast.LookupFunctor),
	// whose names are also the RAM intrinsics' printed names, and an
	// expression's type is sema.ExprType's. So no other file names a
	// functor, and the translator has one case clause for a call, the one
	// that lowers it; a second one is a type inference of its own.
	{
		name: "one-front-end",
		check: all(
			forbid(`^"(cat|strlen|substr|ord|to_number|to_string)"$`,
				everywhere.except("internal/ast/functor.go", "internal/ram/ram.go")),
			exactly(1, `case \*ast\.Call:`, within("internal/ast2ram"))),
		cases: []fixture{{
			name: "translator-infers-types",
			files: map[string]string{
				"internal/ast/functor.go":  "package ast\n\nvar functors = map[string]Functor{\"cat\": {}}\n",
				"internal/ast2ram/rule.go": "package ast2ram\n\nfunc lower(e ast.Expr) {\n\tswitch e.(type) {\n\tcase *ast.Call:\n\t}\n}\n",
				"internal/ast2ram/types.go": "package ast2ram\n\nfunc staticType(e ast.Expr) value.Type {\n\tswitch e := e.(type) {\n\tcase *ast.Call:\n" +
					"\t\tswitch e.Name {\n\t\tcase \"cat\", \"substr\":\n\t\t\treturn value.Symbol\n\t\t}\n\t}\n\treturn value.Number\n}\n",
			},
			want: []string{"internal/ast2ram/types.go:7:8: \"cat\"", "2 matches of case", "rule.go:5:7: case *ast.Call:", "types.go:5:7: case *ast.Call:"},
		}},
	},
	// Read-only analyses are ram.Inspect visitors. Only code that rewrites
	// the RAM tree or threads state down it spells out the node set in its
	// own switch: Inspect itself, the printer, the verifier, ramopt's
	// rewriting walk and the three backends' generators. A case clause
	// that lists *ram.Sequence at any position counts.
	{
		name: "one-ram-traversal",
		check: forbid(`case \*(ram\.)?Sequence:`, everywhere.except(
			"internal/ram/inspect.go", "internal/ram/print.go", "internal/ram/verify/verify.go",
			"internal/ramopt/ramopt.go", "internal/interp/gen.go", "internal/compile/compiler.go",
			"internal/codegen/emit.go")),
		cases: []fixture{{
			name: "multi-type-case-clause",
			files: map[string]string{
				"internal/ram/analysis/walk.go": "package analysis\n\nfunc walk(n ram.Node) {\n\tswitch n.(type) {\n\tcase *ram.Query, *ram.Sequence:\n\t}\n}\n",
				"internal/ram/walk.go":          "package ram\n\nfunc walk(n Node) {\n\tswitch n.(type) {\n\tcase *Sequence:\n\t}\n}\n",
				"internal/ram/print.go":         "package ram\n\nfunc walk(n Node) {\n\tswitch n.(type) {\n\tcase *Sequence:\n\t}\n}\n",
			},
			want: []string{"internal/ram/analysis/walk.go:5:19: case *ram.Sequence:", "internal/ram/walk.go:5:7: case *Sequence:"},
		}},
	},
	// Main's and Update's semi-naive loops and Delete's overdelete and
	// rederive loops all come from ast2ram's one fixpoint builder; another
	// LOOP or EXIT literal in the translator is a second copy of the
	// paper's Fig 3 shape.
	{
		name: "one-fixpoint-builder",
		check: all(
			exactly(1, `ram\.Loop\{`, within("internal/ast2ram")),
			exactly(1, `ram\.Exit\{`, within("internal/ast2ram"))),
		cases: []fixture{{
			name: "second-loop-no-exit",
			files: map[string]string{
				"internal/ast2ram/fixpoint.go": "package ast2ram\n\nvar a = &ram.Loop{}\nvar b = ram.Loop{Body: x}\n",
			},
			want: []string{"2 matches of ram\\.Loop", "fixpoint.go:3:", "fixpoint.go:4:", "0 matches of ram\\.Exit"},
		}},
	},
	// The database's /metrics families render from one DBStats snapshot
	// (Database.WriteMetrics); obsv keeps no registry of scrape-time
	// sources, and observe.go pins no snapshot of its own.
	{
		name: "one-stats-source",
		check: all(
			forbid(`Register\(|RegisterVec\(|extMetric`, within("internal/obsv")),
			forbid(`Snapshot\(\)`, func(p string) bool { return p == "observe.go" })),
		cases: []fixture{{
			name: "registry-and-pinned-snapshot",
			files: map[string]string{
				"internal/obsv/registry.go": "package obsv\n\nfunc (r *Registry) Register(name string, f func() float64) {}\n\nfunc g(r *Registry) { r.Register(\"x\", nil) }\n",
				"observe.go":                "package sti\n\nfunc f(db *Database) { s := db.Snapshot(); _ = s }\n",
			},
			want: []string{"internal/obsv/registry.go:5:23: r.Register(", "observe.go:3:29: db.Snapshot()"},
		}},
	},
	// internal/store's table stack and relation.NewPersistent exist only
	// for perfbench's per-layer probes; no sti command may reach them.
	{
		name: "lsm-exhibit-off-the-product",
		check: forbid(`NewPersistent|store\.Open\(`, everywhere.except(
			"internal/store/", "internal/relation/tier.go", "internal/relation/adapter_persist.go")),
		cases: []fixture{{
			name: "product-opens-the-table-stack",
			files: map[string]string{
				"internal/relation/tier.go": "package relation\n\nfunc f() { store.Open(dir) }\n",
				"persist.go":                "package sti\n\nfunc f() {\n\ts, _ := store.Open(dir)\n\t_ = relation.NewPersistent(s)\n}\n",
			},
			want: []string{"persist.go:4:10: store.Open(", "persist.go:5:6: relation.NewPersistent("},
		}},
	},
	// Counting index operations is countedIndex's job alone
	// (internal/relation/counted.go); an adapter that mentions the counter
	// block again has grown the cross-cutting field back.
	{
		name: "telemetry-free-adapters",
		check: forbid(`metrics\.IndexOps|attachOps`,
			within("internal/relation").except("internal/relation/counted.go")),
		cases: []fixture{{
			name: "adapter-counts-ops",
			files: map[string]string{
				"internal/relation/counted.go":       "package relation\n\ntype countedIndex struct{ ops *metrics.IndexOps }\n",
				"internal/relation/adapter_btree.go": "package relation\n\ntype btreeIndex struct{ ops *metrics.IndexOps }\n",
			},
			want: []string{"internal/relation/adapter_btree.go:3:30: metrics.IndexOps"},
		}},
	},
	// One B-tree: every ordered store keyed by whole tuples is an
	// instantiation of internal/btree, the §5.1 legacy store too (its
	// runtime comparator lives in the key type, relation's legacyKey). Node
	// splitting and the removal's rebalancing exist there alone; a second
	// copy of them is a second B-tree. brie and eqrel are other structures
	// and use none of these names.
	{
		name:  "one-ordered-tree",
		check: forbid(`^(splitChild|mergeChildren|borrowFromLeft|borrowFromRight)$`, everywhere.except("internal/btree/")),
		cases: []fixture{{
			name: "dyntree-returns",
			files: map[string]string{
				"internal/btree/remove.go": "package btree\n\nfunc (nd *node[K]) mergeChildren(i int) {}\n",
				"internal/dyntree/dyntree.go": "package dyntree\n\nfunc (nd *node) splitChild(i int) {}\n\n" +
					"func (t *Tree) Insert(k tuple.Tuple) bool {\n\tt.root.splitChild(0)\n\treturn true\n}\n",
				"internal/dyntree/remove.go": "package dyntree\n\nfunc (nd *node) fill(i int) {\n\tnd.borrowFromLeft(i)\n\tnd.borrowFromRight(i)\n\tnd.mergeChildren(i)\n}\n",
			},
			want: []string{"internal/dyntree/dyntree.go:3:17: splitChild", "internal/dyntree/dyntree.go:6:9: splitChild",
				"internal/dyntree/remove.go:4:5: borrowFromLeft", "internal/dyntree/remove.go:5:5: borrowFromRight",
				"internal/dyntree/remove.go:6:5: mergeChildren"},
		}},
	},
	// internal/interp is the paper's core layer; the closure compiler and
	// the Go synthesizer are the baselines it is measured against and must
	// stay out of its dependency cone.
	{
		name:  "interpreter-cone",
		check: outsideCone([]string{"sti/internal/interp"}, "sti/internal/compile", "sti/internal/codegen"),
		cases: []fixture{{
			name: "baseline-through-ram",
			files: map[string]string{
				"internal/interp/engine.go": "package interp\n\nimport \"sti/internal/ram\"\n",
				"internal/ram/ram.go":       "package ram\n\nimport \"sti/internal/codegen\"\n",
				"internal/ram/ram_test.go":  "package ram\n\nimport \"sti/internal/compile\"\n",
			},
			want: []string{"imports sti/internal/interp -> sti/internal/ram -> sti/internal/codegen"},
		}},
	},
	// cmd/benchmark and internal/bench reproduce the paper's evaluation;
	// the Database API, its observability layer and the durable tier are
	// timed by BenchmarkApplyStream and perfbench. internal/store is
	// reachable only through internal/relation's LSM exhibit; no other
	// package in the harness's cone may import it.
	{
		name: "figure-harness-cone",
		check: all(
			outsideCone(figureHarness, "sti", "sti/internal/obsv"),
			onlyImporter(figureHarness, "sti/internal/store", "sti/internal/relation")),
		cases: []fixture{{
			name: "harness-reaches-database",
			files: map[string]string{
				"cmd/benchmark/main.go":     "package main\n\nimport \"sti/internal/bench\"\n",
				"internal/bench/bench.go":   "package bench\n\nimport (\n\t\"sti\"\n\t\"sti/internal/relation\"\n\t\"sti/internal/store\"\n)\n",
				"internal/relation/tier.go": "package relation\n\nimport \"sti/internal/store\"\n",
			},
			want: []string{"imports sti/internal/bench -> sti", "sti/internal/bench imports sti/internal/store"},
		}},
	},
	// run, profile, ram, emit and serve start from sti.Parse and drive the
	// root package's API; only vet (which attributes verifier diagnostics
	// to the translate vs optimize stage) and lint reach the frontend.
	// Profiling goes through sti.WithProfiling, so the engine and its
	// telemetry collector stay behind the root package too.
	{
		name: "one-front-door",
		check: forbid(`"sti/internal/(parser|sema|ast2ram|ramopt|compile|codegen|symtab|ram|tuple|value|interp|metrics)"`,
			within("cmd/sti").except("cmd/sti/vet.go", "cmd/sti/lint.go", "cmd/sti/findings.go")),
		cases: []fixture{{
			name: "command-imports-the-engine",
			files: map[string]string{
				"cmd/sti/vet.go":  "package main\n\nimport \"sti/internal/ast2ram\"\n",
				"cmd/sti/main.go": "package main\n\nimport (\n\t\"sti\"\n\t\"sti/internal/interp\"\n\t\"sti/internal/ram/analysis\"\n)\n",
			},
			want: []string{"cmd/sti/main.go:5:2: \"sti/internal/interp\""},
		}},
	},
	// A relation.EpochGuard snapshot handle that is never released pins its
	// epoch and blocks every later writer (releasedHandles says what counts
	// as a release or a hand-off).
	{
		name:  "epoch-guard",
		check: releasedHandles,
		cases: []fixture{{
			name:  "leaked-handle",
			files: map[string]string{"sample.go": "\npackage p\n\nfunc leak(g *Guard) int {\n\th := g.Acquire()\n\treturn h.Epoch()\n}\n"},
			want:  []string{"sample.go:5:7: snapshot handle h from Acquire() is never released or handed off"},
		}, {
			name:  "discarded-handle",
			files: map[string]string{"sample.go": "package p\n\nfunc drop(g *Guard) {\n\t_ = g.Acquire()\n}\n"},
			want:  []string{"sample.go:4:6: snapshot handle from Acquire() is discarded without Release()"},
		}, {
			// The goroutine closure acquires and releases its own handle;
			// the outer function acquires one and leaks it.
			name: "closure-checked-separately",
			files: map[string]string{"sample.go": `package p

func mixed(g *Guard) {
	outer := g.Acquire()
	go func() {
		h := g.Acquire()
		h.Release()
	}()
	_ = outer.Epoch()
}
`},
			want: []string{"snapshot handle outer from Acquire()"},
		}, {
			name: "closure-leak",
			files: map[string]string{"sample_test.go": `package p

func spawn(g *Guard) {
	go func() {
		h := g.Acquire()
		_ = h.Epoch()
	}()
}
`},
			want: []string{"sample_test.go:5:8: snapshot handle h from Acquire()"},
		}, {
			name: "release-patterns",
			files: map[string]string{
				"direct.go": `package p

func ok(g *Guard) {
	h := g.Acquire()
	h.Release()
}
`,
				"deferred.go": `package p

func ok(g *Guard) {
	h := g.Acquire()
	defer h.Release()
	use(h.Epoch())
}
`,
				"deferred_closure.go": `package p

func ok(g *Guard) {
	h := g.Acquire()
	defer func() { h.Release() }()
}
`,
				"handed_off_composite.go": `package p

func ok(g *Guard) *Snap {
	return &Snap{h: g.Acquire()}
}
`,
				"handed_off_var.go": `package p

func ok(g *Guard) *Snap {
	h := g.Acquire()
	return &Snap{h: h}
}
`,
				"handed_off_call.go": `package p

func ok(g *Guard) {
	h := g.Acquire()
	register(h)
}
`,
				"field_store.go": `package p

func ok(s *Snap, g *Guard) {
	s.h = g.Acquire()
}
`,
			},
		}},
	},
}

func moduleTree(t *testing.T) *tree {
	t.Helper()
	tr, err := loadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTree holds the module to every row.
func TestTree(t *testing.T) {
	tr := moduleTree(t)
	for _, r := range rows {
		for _, f := range r.check(tr) {
			t.Errorf("%s: %s", r.name, f)
		}
	}
}

// TestRows runs every row on its fixtures: each row rejects at least one,
// with exactly the findings it names.
func TestRows(t *testing.T) {
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			rejects := false
			for _, c := range r.cases {
				rejects = rejects || len(c.want) > 0
				t.Run(c.name, func(t *testing.T) {
					files := map[string][]byte{}
					for p, src := range c.files {
						files[p] = []byte(src)
					}
					tr, err := newTree(files)
					if err != nil {
						t.Fatal(err)
					}
					got := r.check(tr)
					if len(got) != len(c.want) {
						t.Fatalf("findings = %q, want %d matching %q", got, len(c.want), c.want)
					}
					for i, w := range c.want {
						if !strings.Contains(got[i], w) {
							t.Errorf("finding %d = %q, want it to contain %q", i, got[i], w)
						}
					}
				})
			}
			if !rejects {
				t.Error("row has no negative fixture")
			}
		})
	}
}

// TestCommentsAreNotCode appends to every file of the module a comment
// naming what every row forbids; no row may report it.
func TestCommentsAreNotCode(t *testing.T) {
	const comment = `
// ramopt.All( and ast2ram.Translate( and &ram.Loop{ and &ram.Exit{;
// s.IndexID = 0; s.Orders = nil; CountMerge cbuf_ x.Counting; IndexScan;
// isPrefixOfNatural, "requires a natural prefix"; LegacyConfig WithBackend;
// "cat" "strlen" "to_number"; case *ast.Call:
// store.Open( NewPersistent; metrics.IndexOps attachOps;
//
//	switch n.(type) {
//	case *ram.Query, *ram.Sequence:
//	}
//
//	h := g.Acquire()
//	import "sti/internal/compile"
//	import "sti/internal/interp"
/* func Analyze, r.Register(, db.Snapshot() */
`
	files := map[string][]byte{}
	for p, src := range moduleTree(t).src {
		files[p] = append(src[:len(src):len(src)], comment...)
	}
	tr, err := newTree(files)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for _, f := range r.check(tr) {
			t.Errorf("%s: %s", r.name, f)
		}
	}
}
