package bench

import (
	"runtime"
	"slices"
	"testing"
)

// TestParallelSweep keeps the sweep well-formed: its axis starts at the
// serial baseline, has no duplicates and reaches every CPU, and both parallel
// models compute the same closure of the TC workload.
func TestParallelSweep(t *testing.T) {
	counts := ParallelCounts()
	if counts[0] != 1 || !slices.IsSorted(counts) || len(slices.Compact(slices.Clone(counts))) != len(counts) {
		t.Fatalf("axis %v must start at 1 and be strictly increasing", counts)
	}
	if !slices.Contains(counts, runtime.NumCPU()) {
		t.Fatalf("axis %v lacks NumCPU=%d", counts, runtime.NumCPU())
	}
	wl := TCWorkload(Small)
	tuples := map[string]int{}
	for _, model := range parallelModels {
		_, eng, _, err := wl.timeRun(parallelConfig(model, 2))
		if err != nil {
			t.Fatal(err)
		}
		tuples[model] = eng.TotalTuples()
	}
	if tuples["workers"] <= len(wl.Facts["edge"]) || tuples["workers"] != tuples["shards"] {
		t.Fatalf("2 workers and 2 shards disagree or the closure did not grow: %v (%d edges)", tuples, len(wl.Facts["edge"]))
	}
}
