package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"sti/internal/interp"
)

// TCWorkload generates the transitive-closure workload of the worker-scaling
// experiment: a dense random graph whose closure is insert-dominated, so
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

// ScalingWorkloads is the worker-scaling benchmark set: the TC workload
// plus the Table 1 suite, so the scaling numbers cover both the
// insert-dominated extreme and the paper's realistic load profiles.
func ScalingWorkloads(scale Scale) []*Workload {
	return append([]*Workload{TCWorkload(scale)}, Table1Suite()...)
}

// ScalingWorkerCounts is the worker axis of the scaling benchmark:
// 1, 2, 4, and all CPUs, de-duplicated and ordered.
func ScalingWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	return counts
}

// ScalingRow is one worker-scaling measurement.
type ScalingRow struct {
	Workload     string
	Workers      int
	Wall         time.Duration
	Tuples       int // total tuples across all relations after the run
	TuplesPerSec float64
}

// Scaling sweeps the scaling workloads over the worker axis and reports
// wall time and tuple throughput per (workload, worker-count) cell; the
// minimum over repeats is reported, as in the paper's methodology. Rows with
// more workers than CPUs are tagged (see oversubscribed).
func Scaling(scale Scale, repeats int, w io.Writer) ([]ScalingRow, error) {
	fmt.Fprintf(w, "worker scaling (scale=%s, cpus=%d; wall time and tuples/s per worker count)\n", scale, runtime.NumCPU())
	fmt.Fprintf(w, "%-22s %8s %12s %12s %14s\n", "benchmark", "workers", "wall", "tuples", "tuples/s")
	var rows []ScalingRow
	for _, wl := range ScalingWorkloads(scale) {
		for _, workers := range ScalingWorkerCounts() {
			cfg := interp.DefaultConfig()
			cfg.Workers = workers
			var best ScalingRow
			for rep := 0; rep < repeats || rep == 0; rep++ {
				rp, st, err := wl.Compile()
				if err != nil {
					return nil, err
				}
				io := wl.NewIO()
				start := time.Now()
				eng := interp.New(rp, st, cfg)
				if err := eng.Run(io); err != nil {
					return nil, err
				}
				elapsed := time.Since(start)
				if best.Wall == 0 || elapsed < best.Wall {
					best = ScalingRow{
						Workload: wl.FullName(),
						Workers:  workers,
						Wall:     elapsed,
						Tuples:   eng.TotalTuples(),
					}
				}
			}
			best.TuplesPerSec = float64(best.Tuples) / best.Wall.Seconds()
			rows = append(rows, best)
			fmt.Fprintf(w, "%-22s %8d %12v %12d %14.0f%s\n",
				best.Workload, best.Workers, best.Wall.Round(time.Microsecond), best.Tuples, best.TuplesPerSec, oversubscribed(best.Workers))
		}
	}
	return rows, nil
}

// oversubscribed is the row tag of the parallel sweeps for a run with more
// workers than this host has CPUs: such a row measures contention for cores
// that do not exist, so no speed-up may be read off it.
func oversubscribed(workers int) string {
	if workers > runtime.NumCPU() {
		return "  oversubscribed"
	}
	return ""
}
