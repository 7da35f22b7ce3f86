package main

import (
	"embed"
	"fmt"
)

//go:embed programs/*.dl
var programFS embed.FS

// workload is one benchmark scenario: a frozen program, a seeded input
// generator, and the way the program is driven.
type workload struct {
	name    string
	program string // file under programs/
	// serve workloads drive `sti serve -http` with the apply script; the
	// others time `sti run` processes.
	serve   bool
	durable bool // sti serve -data DIR -snapshot-every N
	workers int  // sti run -j N
	// hot is the relation whose final contents the tree, adapter and store
	// probes of a traced run replay: the one the program's most expensive
	// rule fills.
	hot string
	gen func(seed int64, sc *scale, pool int) *dataset
	// applies is the script length per nominalSeconds (serve workloads).
	applies func(sc *scale) int
}

var workloads = []*workload{
	{
		name: "doop_join", program: "doop_join.dl", workers: 1, hot: "vpt",
		gen: func(seed int64, sc *scale, pool int) *dataset { return genDoop(seed, sc.doop) },
	},
	{
		name: "disasm_filter", program: "disasm_filter.dl", workers: 1, hot: "moved_label",
		gen: func(seed int64, sc *scale, pool int) *dataset { return genDisasm(seed, sc.disasm) },
	},
	{
		name: "vpc_par", program: "vpc_par.dl", workers: 2, hot: "canReach",
		gen: func(seed int64, sc *scale, pool int) *dataset { return genVPC(seed, sc.vpc) },
	},
	{
		name: "serve_mem", program: "serve_reach.dl", serve: true, workers: 1, hot: "path",
		gen:     func(seed int64, sc *scale, pool int) *dataset { return genReach(seed, sc.reach, pool) },
		applies: func(sc *scale) int { return sc.memApplies },
	},
	{
		name: "serve_durable", program: "serve_reach.dl", serve: true, durable: true, workers: 1, hot: "path",
		gen:     func(seed int64, sc *scale, pool int) *dataset { return genReach(seed, sc.reach, pool) },
		applies: func(sc *scale) int { return sc.durableApplies },
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) source() string {
	src, err := programFS.ReadFile("programs/" + w.program)
	if err != nil {
		panic(err) // embedded at build time
	}
	return string(src)
}

// scriptLen is the number of scripted applies a run of the given length
// replays: the frozen per-nominalSeconds count scaled by --seconds. Batch
// workloads have no script outside traced runs.
func (w *workload) scriptLen(sc *scale, seconds int) int {
	if !w.serve {
		return 0
	}
	n := w.applies(sc) * seconds / nominalSeconds
	if n < 1 {
		n = 1
	}
	return n
}
