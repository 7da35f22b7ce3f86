package sti

import (
	"math/rand"
	"testing"
	"time"

	"sti/internal/bench"
	"sti/internal/value"
)

// applyDeleteBatch is the number of input facts each step retracts.
const applyDeleteBatch = 5

// BenchmarkApplyDelete times incremental deletion (DRed) on a resident
// database. Each step applies one batch retracting applyDeleteBatch input
// facts picked at random, then re-inserts them untimed, so every step starts
// from the same database. Two legs:
//
//   - reach: transitive closure over 8 dense strongly connected components
//     of 16 nodes chained by bridges (sccEdges), where one retracted edge
//     overdeletes every path through its component and most of them rederive
//     over several rounds;
//   - components: transitive closure over 400 small dense components (10
//     nodes, 30 random edges each), the shape of perfbench's serve_mem, where
//     most paths a retracted edge threatens still have their own edge, so the
//     overdelete survival test stops at them;
//   - points-to: the DOOP suite's Andersen points-to program (vpt and hpt
//     mutually recursive through three-atom bodies) on its antlr input at
//     the Small scale.
//
// It reports ms/delete, the wall time of one delete batch, and fails if any
// apply falls back to recomputation or a step does not restore the database.
//
//	go test -run '^$' -bench ApplyDelete -benchtime 20x .
func BenchmarkApplyDelete(b *testing.B) {
	var reach []fact
	for _, e := range sccEdges(8, 16) {
		reach = append(reach, fact{"edge", []any{e[0], e[1]}})
	}
	var components []fact
	for _, e := range componentEdges(400, 10, 30, 1) {
		components = append(components, fact{"edge", []any{e[0], e[1]}})
	}
	var pointsTo []fact
	doop := bench.DoopSuite(bench.Small)[0]
	for _, rel := range []string{"alloc", "move", "store", "load"} {
		for _, t := range doop.Facts[rel] {
			args := make([]any, len(t))
			for i, v := range t {
				args[i] = int(value.AsInt(v))
			}
			pointsTo = append(pointsTo, fact{rel, args})
		}
	}
	legs := []struct {
		name   string
		src    string
		facts  []fact
		output string
	}{
		{"reach", applyStreamSrc, reach, "path"},
		{"components", applyStreamSrc, components, "path"},
		{"points-to", doop.Src, pointsTo, "vpt"},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			prog, err := Parse(leg.src)
			if err != nil {
				b.Fatal(err)
			}
			db, err := prog.Open()
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			base := db.NewBatch()
			for _, f := range leg.facts {
				base.Add(f.rel, f.args...)
			}
			if err := db.Apply(base); err != nil {
				b.Fatal(err)
			}
			size, err := db.Size(leg.output)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				del, ins := db.NewBatch(), db.NewBatch()
				for _, k := range rng.Perm(len(leg.facts))[:applyDeleteBatch] {
					f := leg.facts[k]
					del.Delete(f.rel, f.args...)
					ins.Add(f.rel, f.args...)
				}
				b.StartTimer()
				if err := db.Apply(del); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := db.Apply(ins); err != nil {
					b.Fatal(err)
				}
				if n, err := db.Size(leg.output); err != nil || n != size {
					b.Fatalf("step %d: %s holds %d tuples after re-inserting, want %d (%v)", i, leg.output, n, size, err)
				}
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed())/float64(time.Millisecond)/float64(b.N), "ms/delete")
			if st := db.Stats(); st.AppliesFallback != 0 {
				b.Fatalf("%d of %d applies fell back to recomputation", st.AppliesFallback, st.Applies)
			}
		})
	}
}

// componentEdges draws edges distinct random edges without self-loops inside
// each of comps components of nodes nodes.
func componentEdges(comps, nodes, edges int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	var out [][2]int
	for c := 0; c < comps; c++ {
		seen := map[[2]int]bool{}
		for len(seen) < edges {
			e := [2]int{c*nodes + rng.Intn(nodes), c*nodes + rng.Intn(nodes)}
			if e[0] != e[1] && !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
		}
	}
	return out
}
