// Command perfbench is the repository's benchmark: `sti run` wall, CPU and
// memory on the DOOP, DDisasm and VPC programs, and `sti serve` script wall
// and request latency on the in-memory and the durable tier, with a traced
// run that breaks each workload down layer by layer. README.md explains the
// workloads, the metrics and how they were sized.
//
//	sh perfbench/run.sh --workload doop_join --seed 1 --seconds 30 --trace 0
//	sh perfbench/run.sh --workload serve_mem --seed 1 --seconds 30 --trace 1
//	sh perfbench/run.sh --aa 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome. metrics go into the final JSON line; infos are
// printed beside them (sample counts, class latencies, build time) but are
// not part of the contract.
type result struct {
	workload  string
	attempted int
	failed    int
	problems  []string
	notes     []string
	metrics   []metric
	infos     []metric
}

func (r *result) metric(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *result) info(name string, v float64, unit string) {
	r.infos = append(r.infos, metric{name, v, unit})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) get(name string) (float64, bool) {
	for _, m := range append(append([]metric(nil), r.metrics...), r.infos...) {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// print writes every metric as "name value unit" and, last, the one JSON
// object the driver reads.
func (r *result) print() error {
	for _, n := range r.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Printf("# FAILED: %s\n", p)
	}
	for _, m := range r.infos {
		fmt.Printf("%s %v %s\n", m.name, m.value, m.unit)
	}
	for _, m := range r.metrics {
		fmt.Printf("%s %v %s\n", m.name, m.value, m.unit)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]jm{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = jm{m.value, m.unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// runOne runs one workload once, untraced (end-to-end metrics) or traced
// (per-layer metrics).
func runOne(e *env, w *workload, sc *scale, seed int64, seconds int, trace bool) (*result, error) {
	var res *result
	var err error
	switch {
	case trace:
		res, err = runTraced(e, w, sc, seed, seconds)
	case w.serve:
		res, err = runServe(e, w, sc, seed, seconds)
	default:
		res, err = runBatch(e, w, sc, seed, seconds)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.info("build_s", e.buildS, "s")
	return res, nil
}

func main() {
	name := flag.String("workload", "", "workload to run: doop_join, disasm_filter, serve_mem, serve_durable (and vpc_par, which BENCHMARK.json does not list)")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", nominalSeconds, "length of the timed region; the frozen sizes are calibrated to 30")
	// An int, not a bool: the driver passes "--trace 0" and "--trace 1" as
	// two arguments.
	trace := flag.Int("trace", 0, "1 runs the traced in-process replay and prints the per-layer metrics")
	aa := flag.Int("aa", 0, "run two interleaved sets of N runs per workload and compare their medians against the bounds")
	golden := flag.Bool("golden", false, "re-record golden/ for seeds 1 and 2 from the compiled backend")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace != 0, *aa, *golden); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, trace bool, aa int, golden bool) error {
	e, err := newEnv()
	if err != nil {
		return err
	}
	if golden {
		return recordGolden(filepath.Join(e.benchDir, "golden"))
	}
	if aa > 0 {
		return runAA(e, name, aa, seconds)
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	sc := &full
	if trace {
		sc = &traced
	}
	res, err := runOne(e, w, sc, seed, seconds, trace)
	if err != nil {
		return err
	}
	if err := res.print(); err != nil {
		return err
	}
	if !res.correct() {
		// The JSON line already says correct=false; the exit code stays 0 so
		// the driver reads it instead of treating the run as crashed.
		fmt.Fprintln(os.Stderr, "perfbench: outputs were not correct")
	}
	return nil
}
