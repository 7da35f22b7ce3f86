package sti

import (
	"fmt"
	"strings"

	"sti/internal/codegen"
	"sti/internal/compile"
	"sti/internal/interp"
	"sti/internal/obsv"
	"sti/internal/ram"
	"sti/internal/symtab"
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

// Result holds the relations of a completed run.
type Result struct {
	prog    *Program
	tuples  map[string][]tuple.Tuple
	profile *Profile
	eng     *interp.Engine // retained for Explain (provenance runs only)
}

// Run executes the program on the given input (nil for none).
func (p *Program) Run(in *Input, opts ...Option) (*Result, error) {
	o := resolveOptions(opts)
	if in != nil && in.err != nil {
		return nil, in.err
	}
	io := interp.NewMemIO()
	if in != nil {
		io = in.mem
	}

	res := &Result{prog: p, tuples: map[string][]tuple.Tuple{}}
	switch o.backend {
	case Compiled:
		m := compile.New(p.ram, p.st)
		if err := m.Run(io); err != nil {
			return nil, err
		}
		for _, rd := range p.ram.Relations {
			if rd.Aux {
				continue
			}
			ts, err := m.Tuples(rd.Name)
			if err != nil {
				return nil, err
			}
			res.tuples[rd.Name] = ts
		}
	default:
		cfg := o.interpConfig()
		eng := interp.New(p.ram, p.st, cfg)
		if err := eng.Run(io); err != nil {
			return nil, err
		}
		if cfg.Provenance {
			res.eng = eng
		}
		for _, rd := range p.ram.Relations {
			if rd.Aux {
				continue
			}
			ts, err := eng.Tuples(rd.Name)
			if err != nil {
				return nil, err
			}
			res.tuples[rd.Name] = ts
		}
		res.profile = eng.Profile()
	}
	return res, nil
}

// RunDir executes the program reading <rel>.facts files from inDir and
// writing <rel>.csv files to outDir (the Soufflé file convention), using
// the interpreter backend.
func (p *Program) RunDir(inDir, outDir string, opts ...Option) error {
	o := resolveOptions(opts)
	io := &interp.DirIO{InputDir: inDir, OutputDir: outDir, Symbols: p.st}
	if o.backend == Compiled {
		return compile.New(p.ram, p.st).Run(io)
	}
	return interp.New(p.ram, p.st, o.interpConfig()).Run(io)
}

// Size reports the number of tuples in a relation after the run.
func (r *Result) Size(name string) int { return len(r.tuples[name]) }

// Contains reports whether the relation holds the given tuple (values
// converted like Input.Add).
func (r *Result) Contains(name string, values ...any) bool {
	decl, err := r.prog.decl(name)
	if err != nil || len(values) != decl.Arity {
		return false
	}
	probe := make(tuple.Tuple, decl.Arity)
	for i, v := range values {
		w, err := r.prog.encode(decl.Types[i], v)
		if err != nil {
			return false
		}
		probe[i] = w
	}
	for _, t := range r.tuples[name] {
		if tuple.Equal(t, probe) {
			return true
		}
	}
	return false
}

// Rows returns a relation's tuples decoded to Go values (int32, uint32,
// float32, or string per attribute type).
func (r *Result) Rows(name string) [][]any {
	decl, err := r.prog.decl(name)
	if err != nil {
		return nil
	}
	out := make([][]any, 0, len(r.tuples[name]))
	for _, t := range r.tuples[name] {
		row := make([]any, len(t))
		for i, w := range t {
			row[i] = r.prog.decode(decl.Types[i], w)
		}
		out = append(out, row)
	}
	return out
}

// Profile returns the interpreter's profiling report (nil unless
// WithProfiling was used with the interpreter backend).
func (r *Result) Profile() *Profile { return r.profile }

// codegenEmit indirection keeps sti.go free of the codegen import cycle
// concerns and makes the dependency explicit.
func codegenEmit(rp *ram.Program, st *symtab.Table) ([]byte, error) {
	return codegen.Emit(rp, st)
}

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
// Input.Add). The run must have used WithProvenance.
func (r *Result) Explain(name string, values ...any) (*ProofNode, error) {
	if r.eng == nil {
		return nil, fmt.Errorf("sti: run without WithProvenance cannot explain")
	}
	decl, err := r.prog.decl(name)
	if err != nil {
		return nil, err
	}
	if len(values) != decl.Arity {
		return nil, fmt.Errorf("sti: relation %s has arity %d, got %d values", name, decl.Arity, len(values))
	}
	t := make(tuple.Tuple, decl.Arity)
	for i, v := range values {
		w, err := r.prog.encode(decl.Types[i], v)
		if err != nil {
			return nil, err
		}
		t[i] = w
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
