package sti

import (
	"fmt"
	"strings"

	"sti/internal/codegen"
	"sti/internal/compile"
	"sti/internal/eio"
	"sti/internal/interp"
	"sti/internal/obsv"
	"sti/internal/ram"
	"sti/internal/relation"
	"sti/internal/tuple"
)

// Backend selects the execution engine.
type Backend int

// Available backends.
const (
	// Interpreter is the Soufflé Tree Interpreter (the paper's system).
	Interpreter Backend = iota
	// Compiled is the closure-compiled engine (the "synthesized" baseline).
	Compiled
)

// InterpreterConfig exposes the interpreter's optimization switches (see
// the paper's §4 and this repo's DESIGN.md).
type InterpreterConfig = interp.Config

// Profile is the interpreter's profiling report.
type Profile = interp.Profile

// Option adjusts a run.
type Option func(*runOptions)

type runOptions struct {
	backend    Backend
	cfg        InterpreterConfig
	profile    bool
	provenance bool
	workers    int
	shards     int
	// obs is the request-scoped observability hub, built by
	// WithObservability (observe.go). Open-only; one-shot runs ignore it.
	obs *obsv.Observer
	// persist selects the durable tier and data directory, built by
	// WithPersistence (persist.go). Open-only; one-shot runs ignore it.
	persist *PersistenceConfig
}

// WithBackend selects the execution engine (default Interpreter).
func WithBackend(b Backend) Option {
	return func(o *runOptions) { o.backend = b }
}

// WithInterpreterConfig overrides the interpreter configuration (default:
// all optimizations enabled).
func WithInterpreterConfig(cfg InterpreterConfig) Option {
	return func(o *runOptions) { o.cfg = cfg }
}

// WithLegacyInterpreter selects the pre-STI legacy interpreter (§5.1).
func WithLegacyInterpreter() Option {
	return func(o *runOptions) { o.cfg = interp.LegacyConfig() }
}

// WithProfiling enables the built-in profiler (interpreter backend only).
func WithProfiling() Option {
	return func(o *runOptions) { o.profile = true }
}

// WithWorkers sets the interpreter's parallelism degree: the outermost scan
// of each rule is partitioned across n workers with thread-local contexts.
func WithWorkers(n int) Option {
	return func(o *runOptions) { o.workers = n }
}

// WithShards hash-partitions every shardable relation into n shards on its
// analysis-derived join-key column, so the interpreter runs shard-parallel
// semi-naive fixpoints with delta exchange at the scan barriers
// (interpreter backend only). Workers is raised to at least n so worker i
// evaluates shard i. For a resident Database, sharding accelerates Open's
// initial evaluation; Apply always recomputes (the incremental entry points
// run unsharded), recorded in Stats().FallbackReason.
func WithShards(n int) Option {
	return func(o *runOptions) { o.shards = n }
}

// resolveOptions applies opts over the defaults (every optimization on).
func resolveOptions(opts []Option) runOptions {
	o := runOptions{cfg: interp.DefaultConfig()}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// interpConfig is the interpreter configuration the options select: the base
// configuration with the WithProfiling / WithProvenance / WithWorkers /
// WithShards overrides merged in. Run, RunDir and Open all build their
// engine from it.
func (o *runOptions) interpConfig() InterpreterConfig {
	cfg := o.cfg
	cfg.Profile = cfg.Profile || o.profile
	cfg.Provenance = cfg.Provenance || o.provenance
	if o.workers > 0 {
		cfg.Workers = o.workers
	}
	if o.shards > 0 {
		cfg.Shards = o.shards
	}
	return cfg
}

// Result is a handle on a completed run: relations are read from the
// finished backend on demand.
type Result struct {
	prog *Program
	// rel looks a runtime relation up by name in the finished backend.
	rel func(name string) *relation.Relation
	eng *interp.Engine // nil on the compiled backend
	// provenance records that eng ran with WithProvenance, so Explain works.
	provenance bool
}

// Run executes the program on the given input (nil for none).
func (p *Program) Run(in *Input, opts ...Option) (*Result, error) {
	if in == nil {
		return p.run(interp.NewMemIO(), opts)
	}
	if in.err != nil {
		return nil, in.err
	}
	return p.run(in.mem, opts)
}

// RunDir executes the program reading <rel>.facts files from inDir and
// writing <rel>.csv files to outDir (the Soufflé file convention);
// .printsize lines go to standard output.
func (p *Program) RunDir(inDir, outDir string, opts ...Option) (*Result, error) {
	return p.run(&interp.DirIO{InputDir: inDir, OutputDir: outDir, Symbols: p.st}, opts)
}

// run is the one place a one-shot backend is built and executed.
func (p *Program) run(io eio.Handler, opts []Option) (*Result, error) {
	o := resolveOptions(opts)
	res := &Result{prog: p}
	var err error
	if o.backend == Compiled {
		m := compile.New(p.ram, p.st)
		res.rel, err = m.Relation, m.Run(io)
	} else {
		cfg := o.interpConfig()
		res.eng, res.provenance = interp.New(p.ram, p.st, cfg), cfg.Provenance
		res.rel, err = res.eng.Relation, res.eng.Run(io)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// relation resolves a declared (non-auxiliary) relation of the finished run.
func (r *Result) relation(name string) (*ram.Relation, *relation.Relation) {
	decl, err := r.prog.decl(name)
	if err != nil {
		return nil, nil
	}
	return decl, r.rel(name)
}

// Size reports the number of tuples in a relation after the run.
func (r *Result) Size(name string) int {
	if _, rel := r.relation(name); rel != nil {
		return rel.Size()
	}
	return 0
}

// Contains reports whether the relation holds the given tuple (values
// converted like Input.Add).
func (r *Result) Contains(name string, values ...any) bool {
	probe, err := r.prog.encodeTuple(name, values)
	return err == nil && r.rel(name).Contains(probe)
}

// Rows returns a relation's tuples decoded to Go values (int32, uint32,
// float32, or string per attribute type), in primary-index order.
func (r *Result) Rows(name string) [][]any {
	decl, rel := r.relation(name)
	if rel == nil {
		return nil
	}
	out := make([][]any, 0, rel.Size())
	for it := rel.Scan(); ; {
		t, ok := it.Next()
		if !ok {
			return out
		}
		row := make([]any, len(t))
		for i, w := range t {
			row[i] = r.prog.decode(decl.Types[i], w)
		}
		out = append(out, row)
	}
}

// Profile returns the interpreter's profiling report (nil unless
// WithProfiling was used with the interpreter backend).
func (r *Result) Profile() *Profile {
	if r.eng == nil {
		return nil
	}
	return r.eng.Profile()
}

// EmitGo emits the synthesized standalone Go source for the program (see
// internal/codegen for the toolchain workflow).
func (p *Program) EmitGo() ([]byte, error) { return codegen.Emit(p.ram, p.st) }

// WithProvenance records every tuple's first derivation so the result can
// explain how tuples were derived (interpreter backend only; implies the
// dynamic-adapter configuration).
func WithProvenance() Option {
	return func(o *runOptions) { o.provenance = true }
}

// ProofNode is one node of a derivation tree with decoded values. Leaves
// (input facts) have an empty Rule.
type ProofNode struct {
	Relation string
	Values   []any
	Rule     string
	Premises []*ProofNode
}

// String renders the proof as an indented tree.
func (p *ProofNode) String() string {
	var b strings.Builder
	p.render(&b, 0)
	return b.String()
}

func (p *ProofNode) render(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(b, "%s%v", p.Relation, p.Values)
	if p.Rule == "" {
		b.WriteString("  [fact]")
	} else {
		fmt.Fprintf(b, "  [%s]", p.Rule)
	}
	b.WriteByte('\n')
	for _, prem := range p.Premises {
		prem.render(b, depth+1)
	}
}

// Explain reconstructs the derivation of a tuple (values converted like
// Input.Add). The run must have used WithProvenance on the interpreter
// backend.
func (r *Result) Explain(name string, values ...any) (*ProofNode, error) {
	t, err := r.prog.encodeTuple(name, values)
	if err != nil {
		return nil, err
	}
	return r.explain(name, t)
}

// ExplainText is Explain with text fields, parsed by attribute type with the
// fact-file conventions (quoted symbols allowed). It backs `sti run
// -explain`.
func (r *Result) ExplainText(name string, fields []string) (*ProofNode, error) {
	t, _, err := r.prog.parseTuple(name, fields)
	if err != nil {
		return nil, fmt.Errorf("sti: relation %s: %v", name, err)
	}
	return r.explain(name, t)
}

func (r *Result) explain(name string, t tuple.Tuple) (*ProofNode, error) {
	if !r.provenance {
		return nil, fmt.Errorf("sti: run without WithProvenance cannot explain")
	}
	proof, err := r.eng.Explain(name, t)
	if err != nil {
		return nil, err
	}
	return r.decodeProof(proof), nil
}

func (r *Result) decodeProof(p *interp.Proof) *ProofNode {
	out := &ProofNode{Relation: p.Relation, Rule: p.Rule}
	if decl, err := r.prog.decl(p.Relation); err == nil {
		for i, w := range p.Tuple {
			out.Values = append(out.Values, r.prog.decode(decl.Types[i], w))
		}
	}
	for _, prem := range p.Premises {
		out.Premises = append(out.Premises, r.decodeProof(prem))
	}
	return out
}
