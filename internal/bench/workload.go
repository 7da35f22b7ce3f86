// Package bench provides the benchmark suites and measurement harness that
// regenerate the paper's evaluation (§5): Fig 15 (interpreter vs
// synthesized slowdown), Table 1 (first-run compile+execute ratios), Fig 16
// (per-rule slowdown histogram), Figs 18/19 and §5.5 (optimization
// ablations).
//
// The paper's workloads are proprietary or external (Amazon VPC configs,
// SpecCPU binaries through DDisasm, DaCapo through DOOP); this package
// substitutes synthetic workloads with the same rule shapes and load
// profiles — see DESIGN.md §4 for the substitution rationale.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"sti/internal/ast2ram"
	"sti/internal/compile"
	"sti/internal/eio"
	"sti/internal/interp"
	"sti/internal/parser"
	"sti/internal/ram"
	"sti/internal/sema"
	"sti/internal/symtab"
	"sti/internal/tuple"
	"sti/internal/value"
)

// Scale selects workload sizes. Small keeps every figure's full sweep under
// a minute; Medium approaches the paper's relative load profile.
type Scale int

// Available scales.
const (
	Small Scale = iota
	Medium
	Large
)

// ParseScale converts a flag value.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want small, medium, or large)", s)
}

func (s Scale) String() string {
	return [...]string{"small", "medium", "large"}[s]
}

// Workload is one benchmark: a Datalog program plus its input facts.
type Workload struct {
	Suite string // "VPC", "DDisasm", "DOOP"
	Name  string
	Src   string
	Facts map[string][]tuple.Tuple
}

// FullName is "Suite/Name".
func (w *Workload) FullName() string { return w.Suite + "/" + w.Name }

// NewIO builds a fresh in-memory I/O handler with the workload's facts.
func (w *Workload) NewIO() *eio.Mem {
	io := eio.NewMem()
	io.Facts = w.Facts
	return io
}

// Suites generates every workload of all three suites at the given scale.
func Suites(scale Scale) []*Workload {
	var out []*Workload
	out = append(out, VPCSuite(scale)...)
	out = append(out, DisasmSuite(scale)...)
	out = append(out, DoopSuite(scale)...)
	return out
}

// Compile builds the RAM program for a workload.
//
// Named exception to "sti.Parse is the only code that chains the stages":
// the paper's figures measure the unoptimized translation, so the harness
// stops before ramopt and the Fig 15/16/18/19, §5.5 and Table 1 numbers in
// EXPERIMENTS.md keep meaning what they meant.
func (w *Workload) Compile() (*ram.Program, *symtab.Table, error) {
	astProg, err := parser.Parse(w.Src)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: parse: %v", w.FullName(), err)
	}
	semProg, errs := sema.Analyze(astProg)
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("%s: sema: %v", w.FullName(), errs[0])
	}
	st := symtab.New()
	rp, err := ast2ram.Translate(semProg, st)
	if err != nil {
		return nil, nil, err
	}
	return rp, st, nil
}

// TimeInterp measures the interpreter on a workload. Following the paper,
// the measured time includes interpreter-tree generation (engine
// construction) plus execution, but not parsing/RAM translation (common to
// both engines).
func (w *Workload) TimeInterp(cfg interp.Config) (time.Duration, *interp.Profile, error) {
	rp, st, err := w.Compile()
	if err != nil {
		return 0, nil, err
	}
	io := w.NewIO()
	start := time.Now()
	eng := interp.New(rp, st, cfg)
	if err := eng.Run(io); err != nil {
		return 0, nil, err
	}
	elapsed := time.Since(start)
	return elapsed, eng.Profile(), nil
}

// TimeCompiled measures the closure-compiled engine's execution time
// (closure construction excluded, mirroring the paper's exclusion of
// synthesis+compilation from Fig 15).
func (w *Workload) TimeCompiled() (time.Duration, []compile.RuleTime, error) {
	rp, st, err := w.Compile()
	if err != nil {
		return 0, nil, err
	}
	m := compile.New(rp, st)
	io := w.NewIO()
	start := time.Now()
	if err := m.Run(io); err != nil {
		return 0, nil, err
	}
	return time.Since(start), m.RuleTimes(), nil
}

// randGraph emits m random edges over n nodes, optionally skewed so that a
// few hub nodes concentrate traffic (rough power-law shape like real
// configurations).
func randGraph(rng *rand.Rand, n, m int, hubby bool) [][2]int {
	edges := make([][2]int, 0, m)
	pick := func() int {
		if hubby && rng.Intn(4) == 0 {
			return rng.Intn(1 + n/10)
		}
		return rng.Intn(n)
	}
	for i := 0; i < m; i++ {
		edges = append(edges, [2]int{pick(), pick()})
	}
	return edges
}

func num(i int) value.Value { return value.FromInt(int32(i)) }

// tupleT abbreviates tuple.Tuple in generator literals.
type tupleT = tuple.Tuple
