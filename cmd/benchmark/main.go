// Command benchmark regenerates the paper's tables and figures (see
// DESIGN.md §5 for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured results).
//
//	benchmark -fig 15          STI & legacy slowdown vs compiled (Fig 15)
//	benchmark -fig 16          per-rule slowdown case study (Fig 16)
//	benchmark -fig 18          static instruction generation ablation
//	benchmark -fig 19          super-instruction ablation
//	benchmark -fig reorder     static tuple reordering ablation (§5.5)
//	benchmark -fig dispatch    lean dispatch ablation (§5.5)
//	benchmark -fig portfolio   B-tree vs brie on dense data (§2)
//	benchmark -fig parallel    1/2/4/NumCPU workers vs as many hash shards
//	benchmark -table 1         first-run compile+execute ratios (Table 1)
//	benchmark -all             everything
//
// An unknown -fig or -table value is a usage error (exit 2). Flags: -scale
// small|medium|large, -repeat N, -no-legacy, and -json DIR to also write each
// experiment's results as machine-readable BENCH_<name>.json (workloads, wall
// times, tuple throughput, worker counts, git revision).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"sti/internal/bench"
)

// params are the measurement settings every experiment receives.
type params struct {
	scale   bench.Scale
	repeats int
	legacy  bool
	w       io.Writer
}

// experiment is one selectable figure or table; name is its BENCH_<name>.json.
type experiment struct {
	flag, value, name string
	run               func(p params) ([]bench.BenchRecord, error)
}

var experiments = []experiment{
	{"fig", "15", "fig15", func(p params) ([]bench.BenchRecord, error) {
		rows, err := bench.Fig15(p.scale, p.repeats, p.legacy, p.w)
		return bench.Fig15Records(rows), err
	}},
	{"fig", "16", "fig16", func(p params) ([]bench.BenchRecord, error) {
		rows, err := bench.Fig16(p.scale, p.w)
		return bench.Fig16Records(rows), err
	}},
	{"fig", "18", "fig18", func(p params) ([]bench.BenchRecord, error) {
		rows, err := bench.Fig18(p.scale, p.repeats, p.w)
		return bench.AblationRecords(rows), err
	}},
	{"fig", "19", "fig19", func(p params) ([]bench.BenchRecord, error) {
		rows, err := bench.Fig19(p.scale, p.repeats, p.w)
		return bench.AblationRecords(rows), err
	}},
	{"fig", "reorder", "reorder", func(p params) ([]bench.BenchRecord, error) {
		rows, err := bench.FigReorder(p.scale, p.repeats, p.w)
		return bench.AblationRecords(rows), err
	}},
	{"fig", "dispatch", "dispatch", func(p params) ([]bench.BenchRecord, error) {
		rows, err := bench.FigDispatch(p.scale, p.repeats, p.w)
		return bench.AblationRecords(rows), err
	}},
	{"fig", "portfolio", "portfolio", func(p params) ([]bench.BenchRecord, error) {
		return bench.FigPortfolio(p.scale, p.repeats, p.w)
	}},
	{"fig", "parallel", "parallel", func(p params) ([]bench.BenchRecord, error) {
		return bench.Parallel(p.scale, p.repeats, p.w)
	}},
	{"table", "1", "table1", func(p params) ([]bench.BenchRecord, error) {
		root, err := moduleRoot()
		if err != nil {
			return nil, err
		}
		rows, err := bench.Table1(p.scale, root, p.w)
		return bench.Table1Records(rows), err
	}},
}

// values lists the accepted values of one selector flag, for its help text.
func values(flagName string) string {
	var vs []string
	for _, e := range experiments {
		if e.flag == flagName {
			vs = append(vs, e.value)
		}
	}
	return strings.Join(vs, " | ")
}

func main() {
	fig := flag.String("fig", "", "figure to reproduce: "+values("fig"))
	table := flag.String("table", "", "table to reproduce: "+values("table"))
	all := flag.Bool("all", false, "run every experiment")
	scaleFlag := flag.String("scale", "small", "workload scale: small | medium | large")
	repeats := flag.Int("repeat", 1, "measurement repetitions (minimum is reported)")
	noLegacy := flag.Bool("no-legacy", false, "skip the slow legacy-interpreter runs in Fig 15")
	jsonDir := flag.String("json", "", "directory to write machine-readable BENCH_<experiment>.json results")
	flag.Parse()

	scale, err := bench.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	selected := map[string]string{"fig": *fig, "table": *table}
	var run []experiment
	matched := map[string]bool{}
	for _, e := range experiments {
		chosen := selected[e.flag] == e.value
		matched[e.flag] = matched[e.flag] || chosen
		if *all || chosen {
			run = append(run, e)
		}
	}
	for flagName, v := range selected {
		if v != "" && !matched[flagName] {
			fmt.Fprintf(os.Stderr, "benchmark: unknown -%s %q\n", flagName, v)
			flag.Usage()
			os.Exit(2)
		}
	}
	if len(run) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	p := params{scale: scale, repeats: *repeats, legacy: !*noLegacy, w: os.Stdout}
	for _, e := range run {
		records, err := e.run(p)
		if err != nil {
			fatal(fmt.Errorf("%s: %v", e.name, err))
		}
		fmt.Fprintln(p.w)
		if *jsonDir == "" {
			continue
		}
		log := bench.NewBenchLog(e.name, scale, *repeats)
		log.Records = records
		path, err := log.WriteJSON(*jsonDir)
		if err != nil {
			fatal(fmt.Errorf("%s: writing json: %v", e.name, err))
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("benchmark must run inside the sti module (go.mod not found)")
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
