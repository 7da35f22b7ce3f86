package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// writeFacts writes <rel>.facts TSV files, one per input relation.
func writeFacts(dir string, d *dataset) error {
	for _, rel := range d.rels {
		f, err := os.Create(filepath.Join(dir, rel+".facts"))
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		for _, r := range d.facts[rel] {
			w.WriteString(r.tsv())
			w.WriteByte('\n')
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// minBatchReps is the least number of timed repetitions a median is taken
// over, however slow the machine.
const minBatchReps = 3

// runBatch times the real CLI: facts on disk, then `sti run prog.dl -F in -D
// out` as a subprocess. Set-up is generating the inputs, writing them and a
// warm-up run of the same program on the unit-test-sized input, which faults
// the binary in (the facts just written are in the page cache already); it is
// repeated sc.batchSetups times and setup_s is the median. Then the timed
// repetitions, all on the one input, for as long as another one is expected
// to end within --seconds: the machine's speed wanders by a quarter over tens
// of seconds, and a median over half a minute of repetitions moves far less
// than one over five of them. Every timed run's printed sizes and written
// files are checked against the expectation.
func runBatch(e *env, w *workload, sc *scale, seed int64, seconds int) (*result, error) {
	work, err := e.workDir(w.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	in, out, warm := filepath.Join(work, "in"), filepath.Join(work, "out"), filepath.Join(work, "warm")
	prog := filepath.Join(work, w.program)
	flags := func(in, out string) []string {
		args := []string{"run", prog, "-F", in, "-D", out}
		if w.workers > 1 {
			args = append(args, "-j", strconv.Itoa(w.workers))
		}
		return args
	}
	res := &result{workload: w.name}

	var d *dataset
	var setups []float64
	for i := 0; i < sc.batchSetups; i++ {
		t0 := time.Now()
		d = w.gen(seed, sc, 0)
		for _, dir := range []string{in, out, warm} {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
		}
		if err := os.WriteFile(prog, []byte(w.source()), 0o644); err != nil {
			return nil, err
		}
		if err := writeFacts(in, d); err != nil {
			return nil, err
		}
		if err := writeFacts(warm, w.gen(seed, &tiny, 0)); err != nil {
			return nil, err
		}
		if _, _, err := runToExit(e.sti, work, flags(warm, warm)...); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	want, source, err := expected(w, sc, seed, seconds, d.facts)
	if err != nil {
		return nil, err
	}
	res.note("expected results from the %s", source)
	check := func(stdout string) {
		sums := map[string]string{}
		for rel := range want.Checksums {
			s, err := fileSum(filepath.Join(out, rel+".csv"))
			if err != nil {
				s = err.Error()
			}
			sums[rel] = s
		}
		if diffs := want.diff(parsePrintSize(stdout), sums); len(diffs) > 0 {
			res.failed++
			res.problems = append(res.problems, diffs...)
		}
	}

	var walls, cpus, rss []float64
	budget := time.Duration(seconds) * time.Second
	t0 := time.Now()
	for i := 0; i < sc.batchReps; i++ {
		// elapsed/i is what a repetition has cost so far, checks included.
		if elapsed := time.Since(t0); i >= minBatchReps && elapsed+elapsed/time.Duration(i) > budget {
			break
		}
		res.attempted++
		u, stdout, err := runToExit(e.sti, work, flags(in, out)...)
		if err != nil {
			res.failed++
			res.problems = append(res.problems, err.Error())
			continue
		}
		check(stdout)
		walls, cpus, rss = append(walls, u.wallS), append(cpus, u.cpuS), append(rss, u.rssMB)
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("%s: no timed run succeeded: %v", w.name, res.problems)
	}
	res.metric("setup_s", median(setups), "s")
	res.metric("wall_s", median(walls), "s")
	res.metric("cpu_s", median(cpus), "s")
	// The largest of the repetitions' peaks: what has to be provisioned. With
	// -j 2 a run's peak depends on when the collector happens to run (343-380
	// MB on vpc_par), and the largest of several is far steadier than any one.
	res.metric("peak_rss_mb", maxOf(rss), "MB")
	res.info("timed_runs", float64(len(walls)), "count")
	res.info("timed_s", time.Since(t0).Seconds(), "s")
	res.info("rss_median_mb", median(rss), "MB")
	res.info("wall_fastest_s", minOf(walls), "s")
	res.info("wall_slowest_s", maxOf(walls), "s")
	return res, nil
}
