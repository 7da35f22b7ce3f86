package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sti/internal/interp"
	"sti/internal/tuple"
)

// runFusion evaluates w under cfg with FusedFilters forced to fused and
// returns everything observable: what the run stored and printed, and every
// source relation's final tuples.
func runFusion(t *testing.T, w *Workload, cfg interp.Config, fused bool) (out map[string][]tuple.Tuple, sizes map[string]int, rels map[string][]tuple.Tuple, prof *interp.Profile) {
	t.Helper()
	rp, st, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg.FusedFilters = fused
	eng := interp.New(rp, st, cfg)
	io := w.NewIO()
	if err := eng.Run(io); err != nil {
		t.Fatal(err)
	}
	rels = map[string][]tuple.Tuple{}
	for _, rd := range rp.Relations {
		if rd.Aux {
			continue
		}
		if rels[rd.Name], err = eng.Tuples(rd.Name); err != nil {
			t.Fatal(err)
		}
	}
	return io.Out, io.Sizes, rels, eng.Profile()
}

// TestFusionDifferential: condition fusion changes no observable result. Every
// shipped example program and every Small-scale suite workload runs fused
// under the static, dynamic-adapter and legacy interpreters; what each run
// stores and prints, and the final contents of every relation, must be
// byte-identical to the unfused run. The unfused reference is evaluated once,
// under the static interpreter: the unfused variants agree with each other by
// TestConfigLatticeEquivalence, and one shared reference makes this a
// cross-configuration check as well at two thirds of the cost.
func TestFusionDifferential(t *testing.T) {
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
	configs := map[string]interp.Config{
		"static":  interp.DefaultConfig(),
		"dynamic": interp.DynamicAdapterConfig(),
		"legacy":  interp.LegacyConfig(),
	}
	for _, w := range workloads {
		w := w
		t.Run(w.FullName(), func(t *testing.T) {
			t.Parallel()
			wantOut, wantSizes, wantRels, _ := runFusion(t, w, interp.DefaultConfig(), false)
			for name, cfg := range configs {
				out, sizes, rels, _ := runFusion(t, w, cfg, true)
				if !reflect.DeepEqual(out, wantOut) {
					t.Errorf("%s: stored relations differ from the unfused run", name)
				}
				if !reflect.DeepEqual(sizes, wantSizes) {
					t.Errorf("%s: printed sizes differ: fused %v, unfused %v", name, sizes, wantSizes)
				}
				for rel, want := range wantRels {
					if !reflect.DeepEqual(rels[rel], want) {
						t.Errorf("%s: relation %s differs: fused %d tuples, unfused %d", name, rel, len(rels[rel]), len(want))
					}
				}
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
		_, _, _, prof := runFusion(t, wl, cfg, fused)
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
