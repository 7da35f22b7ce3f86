package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"sti/internal/interp"
)

// TCWorkload generates the transitive-closure workload of the parallel
// sweep: a dense random graph whose closure is insert-dominated, so
// throughput tracks how well parallel inserts scale. TC is the canonical
// recursive benchmark and the one workload where the staging-buffer merge
// discipline is stressed hardest (most tuples per scan iteration).
func TCWorkload(scale Scale) *Workload {
	n := []int{220, 500, 900}[scale]
	m := 3 * n
	src := `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.input edge
.printsize path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
`
	rng := rand.New(rand.NewSource(42))
	facts := map[string][]tupleT{}
	for _, e := range randGraph(rng, n, m, false) {
		facts["edge"] = append(facts["edge"], tupleT{num(e[0]), num(e[1])})
	}
	return &Workload{
		Suite: "Scaling",
		Name:  fmt.Sprintf("tc-%d", n),
		Src:   src,
		Facts: facts,
	}
}

// ParallelCounts is the axis of the parallel sweep: 1, 2, 4 and all CPUs,
// de-duplicated and ordered.
func ParallelCounts() []int {
	counts := []int{1, 2, 4, runtime.NumCPU()}
	slices.Sort(counts)
	return slices.Compact(counts)
}

// parallelModels are the two parallel models the sweep compares: n workers
// over unsharded relations (partitioned scans and staging merges), or n
// hash shards with one worker per shard.
var parallelModels = []string{"workers", "shards"}

// parallelConfig is the sweep's configuration for n-way parallelism under
// model.
func parallelConfig(model string, n int) interp.Config {
	cfg := interp.DefaultConfig()
	cfg.Workers = n
	if model == "shards" {
		cfg.Shards = n
	}
	return cfg
}

// Parallel sweeps the TC workload and the Table 1 suite over ParallelCounts
// under both parallel models and reports wall time and tuple throughput per
// cell, labelled "N-workers" or "N-shards". The minimum over repeats is
// reported, as in the paper's methodology. Rows with more workers than CPUs
// are tagged oversubscribed: they measure contention for cores that do not
// exist, so no speed-up may be read off them.
func Parallel(scale Scale, repeats int, w io.Writer) ([]BenchRecord, error) {
	fmt.Fprintf(w, "parallel sweep (scale=%s, cpus=%d; wall time and tuples/s per worker and shard count)\n", scale, runtime.NumCPU())
	fmt.Fprintf(w, "%-22s %10s %12s %12s %14s\n", "benchmark", "variant", "wall", "tuples", "tuples/s")
	var records []BenchRecord
	for _, wl := range append([]*Workload{TCWorkload(scale)}, Table1Suite()...) {
		for _, n := range ParallelCounts() {
			for _, model := range parallelModels {
				tuples := 0
				wall, err := repeat(repeats, func() (time.Duration, error) {
					d, eng, _, err := wl.timeRun(parallelConfig(model, n))
					if err == nil {
						tuples = eng.TotalTuples()
					}
					return d, err
				})
				if err != nil {
					return nil, err
				}
				r := BenchRecord{
					Workload:     wl.FullName(),
					Variant:      fmt.Sprintf("%d-%s", n, model),
					Workers:      n,
					WallNs:       wall.Nanoseconds(),
					Tuples:       tuples,
					TuplesPerSec: float64(tuples) / wall.Seconds(),
				}
				tag := ""
				if n > runtime.NumCPU() {
					tag = "  oversubscribed"
				}
				fmt.Fprintf(w, "%-22s %10s %12v %12d %14.0f%s\n",
					r.Workload, r.Variant, wall.Round(time.Microsecond), r.Tuples, r.TuplesPerSec, tag)
				records = append(records, r)
			}
		}
	}
	return records, nil
}
