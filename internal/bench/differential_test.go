package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sti/internal/interp"
	"sti/internal/ram/verify"
	"sti/internal/ramopt"
	"sti/internal/tuple"
)

// observation is everything a run makes observable: what it stored and
// printed, and every source relation's final tuples.
type observation struct {
	out   map[string][]tuple.Tuple
	sizes map[string]int
	rels  map[string][]tuple.Tuple
	prof  *interp.Profile
}

// observe evaluates w under cfg: the unoptimized translation the paper
// figures run or, with optimize, the ramopt.Queryable() program the product
// runs.
func observe(tb testing.TB, w *Workload, cfg interp.Config, optimize bool) observation {
	tb.Helper()
	rp, st, err := w.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	if optimize {
		ramopt.Optimize(rp, st, ramopt.Queryable())
		if err := verify.Check(rp, "bench-opt"); err != nil {
			tb.Fatalf("optimized program fails verification: %v", err)
		}
	}
	eng := interp.New(rp, st, cfg)
	io := w.NewIO()
	if err := eng.Run(io); err != nil {
		tb.Fatal(err)
	}
	rels := map[string][]tuple.Tuple{}
	for _, rd := range rp.Relations {
		if rd.IsAux() {
			continue
		}
		if rels[rd.Name], err = eng.Tuples(rd.Name); err != nil {
			tb.Fatal(err)
		}
	}
	return observation{io.Out, io.Sizes, rels, eng.Profile()}
}

func fused(cfg interp.Config) interp.Config {
	cfg.FusedFilters = true
	return cfg
}

// observeReference is the run every other configuration of w is compared
// against: the unoptimized translation under the static interpreter without
// condition fusion (the paper's STI).
func observeReference(tb testing.TB, w *Workload) observation {
	ref := interp.DefaultConfig()
	ref.FusedFilters = false
	return observe(tb, w, ref, false)
}

func sameIO(tb testing.TB, name string, got, want observation) {
	tb.Helper()
	if !reflect.DeepEqual(got.out, want.out) {
		tb.Errorf("%s: stored relations differ from the reference", name)
	}
	if !reflect.DeepEqual(got.sizes, want.sizes) {
		tb.Errorf("%s: printed sizes differ: %v, reference %v", name, got.sizes, want.sizes)
	}
}

// checkFused: the fused static, dynamic-adapter and legacy runs of the
// unoptimized translation, which the paper figures run, store, print and
// hold in every relation exactly what the reference does. The unfused
// variants agree with each other by TestConfigLatticeEquivalence.
func checkFused(tb testing.TB, w *Workload, want observation) {
	variants := []struct {
		name string
		cfg  interp.Config
	}{
		{"static", fused(interp.DefaultConfig())},
		{"dynamic", fused(interp.DynamicAdapterConfig())},
		{"legacy", fused(interp.LegacyConfig())},
	}
	for _, v := range variants {
		got := observe(tb, w, v.cfg, false)
		sameIO(tb, v.name, got, want)
		for rel, ts := range want.rels {
			if !reflect.DeepEqual(got.rels[rel], ts) {
				tb.Errorf("%s: relation %s differs: %d tuples, reference %d", v.name, rel, len(got.rels[rel]), len(ts))
			}
		}
	}
}

// checkQueryable: the ramopt.Queryable() program under DefaultConfig, which
// the product runs, stores and prints what the reference does.
func checkQueryable(tb testing.TB, w *Workload, want observation) {
	sameIO(tb, "optimized", observe(tb, w, interp.DefaultConfig(), true), want)
}

// TestSuiteDifferential runs checkFused and checkQueryable against one
// reference run per workload, over every Small-scale suite workload and
// every shipped example program. The Table 1 instances are larger inputs to
// the same three suite programs; BenchmarkSuiteDifferential checks them.
func TestSuiteDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("bench suite comparison in -short mode")
	}
	workloads := Suites(Small)
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.dl"))
	if err != nil || len(examples) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, path := range examples {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		workloads = append(workloads, &Workload{Suite: "examples", Name: filepath.Base(path), Src: string(src)})
	}
	for _, w := range workloads {
		t.Run(w.FullName(), func(t *testing.T) {
			t.Parallel()
			want := observeReference(t, w)
			t.Run("fused", func(t *testing.T) { checkFused(t, w, want) })
			t.Run("queryable", func(t *testing.T) { checkQueryable(t, w, want) })
		})
	}
}

// BenchmarkSuiteDifferential is TestSuiteDifferential over the 20 Table 1
// instances:
//
//	go test ./internal/bench -run '^$' -bench SuiteDifferential -benchtime 1x
func BenchmarkSuiteDifferential(b *testing.B) {
	for _, w := range Table1Suite() {
		b.Run(w.FullName(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				want := observeReference(b, w)
				checkFused(b, w, want)
				checkQueryable(b, w, want)
			}
		})
	}
}

// TestFusionCollapsesDominantRule: on the DDisasm case-study workload the rule
// that owns the run (moved_label's quadratic filter nest, §5.2) pays at most
// two dispatches per scanned tuple with fusion; the paper's STI, which is the
// FusedFilters=false ablation, pays one per sub-expression.
func TestFusionCollapsesDominantRule(t *testing.T) {
	var wl *Workload
	for _, w := range DisasmSuite(Small) {
		if w.Name == "gamess" {
			wl = w
		}
	}
	perIter := func(fused bool) float64 {
		cfg := interp.DefaultConfig()
		cfg.Profile = true
		cfg.FusedFilters = fused
		prof := observe(t, wl, cfg, false).prof
		var dom *interp.RuleProfile
		for i := range prof.Rules {
			if r := &prof.Rules[i]; dom == nil || r.Iterations > dom.Iterations {
				dom = r
			}
		}
		return float64(dom.Dispatches) / float64(dom.Iterations)
	}
	on, off := perIter(true), perIter(false)
	if on > 2 || off <= 2 {
		t.Fatalf("dominant rule dispatches/iteration: fused %.2f, unfused %.2f; want fused <= 2 < unfused", on, off)
	}
}
