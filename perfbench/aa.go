package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// spec is the part of BENCHMARK.json the A/A check and the tests read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

// lists reports whether BENCHMARK.json names the workload. vpc_par is kept
// runnable but unlisted: see README.md, "Workloads".
func (s *spec) lists(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func loadSpec(repoDir string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(repoDir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	return &s, nil
}

// exactCounts are the per-layer counts that must repeat exactly between two
// traced runs of the same seed.
var exactCounts = []string{"interp.dispatches", "interp.tuples_derived", "ram.nodes"}

// unbounded are the serve workloads' printed figures the A/A record lists
// beside the bounded metrics.
var unbounded = []string{
	"insert_p50_ms", "delete_p50_ms", "query_p50_ms",
	"insert_p95_ms", "delete_p95_ms", "query_p95_ms", "applies_per_s", "recovery_s",
}

// selfRun runs this binary once more as the driver would — a fresh process
// per run, so that no run inherits the heap of the one before — and returns
// every "name value unit" line it printed.
func selfRun(e *env, w *workload, seed int64, seconds int, trace bool) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", traceArg)
	cmd.Dir = e.benchDir
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %v", w.name, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var last struct {
		Correct bool `json:"correct"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || !last.Correct {
		return nil, fmt.Errorf("%s seed %d: outputs not correct:\n%s", w.name, seed, out)
	}
	vals := map[string]float64{}
	for _, line := range lines[:len(lines)-1] {
		if f := strings.Fields(line); len(f) == 3 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				vals[f[0]] = v
			}
		}
	}
	return vals, nil
}

// runAA measures the benchmark against itself: two sets of n runs per
// workload BENCHMARK.json lists (or of the one workload named) on the same
// binary, every run a process of its own, both sets on
// the same seeds 1..n and interleaved, so that the sets differ in nothing but
// the moment they ran. For each workload and end-to-end metric it prints both
// medians and interquartile ranges, each set's spread (interquartile range
// over median), the relative difference of the medians, and the bound. It
// fails when a difference, in either direction, exceeds its bound, or when an
// exact count differs between two traced runs of one seed. From ten runs a
// set on it applies the driver's spread rule too; below ten, Python's
// quartiles lie between the two outermost pairs of values, so that a single
// slow run sets the spread, and a spread beyond its bound is only marked.
func runAA(e *env, only string, n, seconds int) error {
	sp, err := loadSpec(e.repoDir)
	if err != nil {
		return err
	}
	if only != "" {
		if _, err := findWorkload(only); err != nil {
			return err
		}
	}
	bad := 0
	fmt.Printf("%-14s %-12s %11s %11s %11s %11s %8s %8s %8s %6s\n",
		"workload", "metric", "median_a", "median_b", "iqr_a", "iqr_b", "spread_a", "spread_b", "diff", "bound")
	for _, w := range workloads {
		if only != w.name && (only != "" || !sp.lists(w.name)) {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := 0; s < 2; s++ {
				vals, err := selfRun(e, w, int64(1+i), seconds, false)
				if err != nil {
					return err
				}
				for name, v := range vals {
					sets[s][name] = append(sets[s][name], v)
				}
			}
		}
		for _, m := range sp.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			if len(a) != n || len(b) != n {
				return fmt.Errorf("%s did not report %s on every run", w.name, m.Name)
			}
			ma, mb := median(a), median(b)
			q1a, q3a := quartiles(a)
			q1b, q3b := quartiles(b)
			diff := (mb - ma) / ma
			spreadA, spreadB := (q3a-q1a)/ma, (q3b-q1b)/mb
			verdict := ""
			// setup_s is exempt from the spread rule, as in the driver.
			wide := m.Name != "setup_s" && math.Max(spreadA, spreadB) > m.Bound
			switch {
			case math.Abs(diff) > m.Bound || (wide && n >= 10):
				verdict = "  EXCEEDS"
				bad++
			case wide:
				verdict = "  (spread)"
			}
			fmt.Printf("%-14s %-12s %11.4f %11.4f %11.4f %11.4f %7.2f%% %7.2f%% %+7.2f%% %5.0f%%%s\n",
				w.name, m.Name, ma, mb, q3a-q1a, q3b-q1b, 100*spreadA, 100*spreadB, 100*diff, 100*m.Bound, verdict)
		}
		for _, name := range unbounded {
			if a, b := sets[0][name], sets[1][name]; len(a) > 0 && len(b) > 0 {
				fmt.Printf("%-14s %-14s %9.4f %11.4f %59s\n", w.name, name, median(a), median(b), "(no bound)")
			}
		}
		var counts [2]map[string]float64
		for s := range counts {
			if counts[s], err = selfRun(e, w, 1, seconds, true); err != nil {
				return err
			}
		}
		for _, name := range exactCounts {
			a, b := counts[0][name], counts[1][name]
			verdict := "identical"
			if a != b || a == 0 {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Printf("%-14s %-22s %14.0f %14.0f  %s\n", w.name, name, a, b, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d checks exceed their bound or differ", bad)
	}
	return nil
}
