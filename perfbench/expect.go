package main

import (
	"bufio"
	"embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"sti"
)

// expect is what a correct run leaves behind: the size of every relation the
// program prints and an order-independent checksum of every relation it
// writes. It never comes from the interpreter under test: seeds 1 and 2 have
// committed goldens, every other input is evaluated by the closure-compiled
// backend during set-up.
type expect struct {
	Sizes     map[string]int    `json:"sizes"`
	Checksums map[string]string `json:"checksums"`
}

//go:embed golden/*.json
var goldenFS embed.FS

// goldenSeeds are the seeds with committed expectations (at the full scale
// and nominalSeconds only: a serve workload's final state depends on the
// script length).
var goldenSeeds = []int64{1, 2}

func goldenPath(w *workload) string { return "golden/" + w.name + ".json" }

// loadGolden returns the committed expectation for seed, or nil.
func loadGolden(w *workload, seed int64) (*expect, error) {
	raw, err := goldenFS.ReadFile(goldenPath(w))
	if err != nil {
		return nil, nil // no golden recorded for this workload
	}
	var all map[string]*expect
	if err := json.Unmarshal(raw, &all); err != nil {
		return nil, fmt.Errorf("%s: %v", goldenPath(w), err)
	}
	return all[strconv.FormatInt(seed, 10)], nil
}

// directives lists the relations named by one directive (".printsize",
// ".output") of a program, in source order.
func directives(src, directive string) []string {
	var out []string
	for _, line := range strings.Split(src, "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == directive {
			out = append(out, f[1])
		}
	}
	return out
}

// rowSum hashes one tab-separated row; a relation's checksum is the wrapping
// sum of its rows' hashes, so it does not depend on row order.
func rowSum(line string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(line))
	return h.Sum64()
}

func sumHex(s uint64) string { return fmt.Sprintf("%016x", s) }

// reference evaluates the program on facts with the closure-compiled backend.
func reference(w *workload, facts map[string][]row) (*expect, error) {
	src := w.source()
	prog, err := sti.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", w.program, err)
	}
	in := prog.NewInput()
	for rel, rows := range facts {
		for _, r := range rows {
			vals := make([]any, len(r))
			for i, v := range r {
				vals[i] = v
			}
			in.Add(rel, vals...)
		}
	}
	res, err := prog.Run(in, sti.WithBackend(sti.Compiled))
	if err != nil {
		return nil, fmt.Errorf("%s: compiled backend: %v", w.program, err)
	}
	e := &expect{Sizes: map[string]int{}, Checksums: map[string]string{}}
	for _, rel := range directives(src, ".printsize") {
		e.Sizes[rel] = res.Size(rel)
	}
	for _, rel := range directives(src, ".output") {
		var sum uint64
		for _, r := range res.Rows(rel) {
			fields := make([]string, len(r))
			for i, v := range r {
				fields[i] = strconv.Itoa(int(v.(int32)))
			}
			sum += rowSum(strings.Join(fields, "\t"))
		}
		e.Checksums[rel] = sumHex(sum)
	}
	return e, nil
}

// expected returns the committed golden when one covers this exact input,
// and the compiled backend's answer otherwise.
func expected(w *workload, sc *scale, seed int64, seconds int, facts map[string][]row) (*expect, string, error) {
	if sc == &full && seconds == nominalSeconds {
		g, err := loadGolden(w, seed)
		if err != nil {
			return nil, "", err
		}
		if g != nil {
			return g, "golden", nil
		}
	}
	e, err := reference(w, facts)
	return e, "compiled backend", err
}

// diff lists how observed sizes and checksums depart from the expectation.
func (e *expect) diff(sizes map[string]int, sums map[string]string) []string {
	var out []string
	for rel, want := range e.Sizes {
		if got, ok := sizes[rel]; !ok || got != want {
			out = append(out, fmt.Sprintf("size of %s = %d, want %d", rel, got, want))
		}
	}
	for rel, want := range e.Checksums {
		if got := sums[rel]; got != want {
			out = append(out, fmt.Sprintf("checksum of %s = %s, want %s", rel, got, want))
		}
	}
	return out
}

// parsePrintSize reads the "rel<TAB>size" lines `sti run` prints.
func parsePrintSize(stdout string) map[string]int {
	sizes := map[string]int{}
	for _, line := range strings.Split(stdout, "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 2 {
			continue
		}
		if n, err := strconv.Atoi(f[1]); err == nil {
			sizes[f[0]] = n
		}
	}
	return sizes
}

// fileSum checksums one <rel>.csv output file.
func fileSum(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var sum uint64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		sum += rowSum(sc.Text())
	}
	return sumHex(sum), sc.Err()
}

// recordGolden evaluates seeds 1 and 2 of every workload with the compiled
// backend and rewrites golden/. Run it only after changing a frozen program,
// generator or size.
func recordGolden(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, w := range workloads {
		all := map[string]*expect{}
		for _, seed := range goldenSeeds {
			// As runBatch and runServe generate them: no script, no pool.
			facts := w.gen(seed, &full, 0).facts
			if n := w.scriptLen(&full, nominalSeconds); n > 0 {
				d := w.gen(seed, &full, poolFor(n))
				facts = finalFacts(d, buildScript(seed, d.pool, n))
			}
			e, err := reference(w, facts)
			if err != nil {
				return err
			}
			all[strconv.FormatInt(seed, 10)] = e
		}
		raw, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, w.name+".json"), append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
