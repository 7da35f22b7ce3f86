// Package interp implements the Soufflé Tree Interpreter (STI), the paper's
// core contribution (§3): a recursive tree interpreter over RAM programs
// that uses de-specialized relational data structures (internal/relation)
// and five interpreter optimizations (§4, §5.2):
//
//  1. static access and instruction generation — opcodes specialized per
//     {structure × arity} bind the concrete B-tree type statically
//     (specialized_gen.go, the Go analog of the paper's C++ macros);
//  2. static tuple reordering — the interpreter tree is generated in encoded
//     index coordinates so scans never decode tuples at runtime;
//  3. lean dispatch — the hot recursive execute path avoids per-dispatch
//     allocation and interface boxing (the Go analog of the paper's
//     register-pressure trick, whose effect class is fixed per-dispatch
//     overhead);
//  4. super-instructions — constant and tuple-element sub-expressions of
//     inserts, scans, and existence checks are folded into their parent
//     instruction, eliminating their dispatches;
//  5. condition fusion — every constraint-only condition (and every maximal
//     constraint-only part of a mixed one) is built into one stateless
//     closure at tree-generation time (fuse.go), generalizing the
//     hand-crafted super-instruction of the §5.2 case study: one dispatch
//     per condition instead of one per sub-expression.
//
// Each optimization is independently switchable so the paper's ablation
// experiments (Figs 16, 18, 19 and §5.5) can be reproduced. The Legacy mode
// reproduces the pre-STI interpreter (§5.1): relations stored in
// runtime-comparator B-trees with no specialization at all.
//
// Who may switch them: the product does not. The root sti package builds
// every engine from DefaultConfig plus Workers, Shards, Profile/Metrics and
// Provenance, and neither it nor cmd/sti re-exports Config. Because this
// package is internal, the ablations and the legacy store are reachable only
// from code inside the module that asks for them by name — the figure
// harness (internal/bench, cmd/benchmark), perfbench's per-layer probes, and
// tests such as TestConfigLatticeEquivalence. CI's "The product runs one
// engine configuration" step keeps it that way.
package interp

import (
	"sti/internal/metrics"
)

// Config selects the interpreter variant.
type Config struct {
	// StaticDispatch enables the specialized instruction set (§4.1). When
	// false, every relational operation goes through the dynamic Index
	// adapter with buffered iterators (§3).
	StaticDispatch bool
	// SuperInstructions folds Constant/TupleElement children into parent
	// instructions (§4.4).
	SuperInstructions bool
	// StaticReordering generates the interpreter tree in encoded index
	// coordinates, eliminating runtime tuple reordering (§4.2).
	StaticReordering bool
	// LeanDispatch keeps the recursive dispatch path allocation-free (the
	// §4.3 analog). When false, every dispatch round-trips its operands
	// through heap-allocated boxes, modelling the fixed per-dispatch
	// overhead the paper removes with its lambda trick.
	LeanDispatch bool
	// FusedFilters turns on condition fusion, the paper's §5.2 "hand-crafted
	// super-instruction" generalized: a condition that probes no relation
	// (And/Not/Constraint over constants, tuple elements and intrinsics) is
	// built into a single closure at tree-generation time, so it costs one
	// dispatch instead of one per sub-expression. It covers filters (a chain
	// of pure filters collapses into one node, which a specialized B-tree
	// scan directly above evaluates inside its own tuple loop), the
	// conditions of choices and aggregates, and the constraint part of a
	// conjunction that also holds existence checks. The closures are
	// stateless, so the switch is honoured under Workers > 1, Shards and
	// Provenance alike. On in DefaultConfig; FusedFilters=false is the
	// paper's STI and the baseline of Fig 16.
	FusedFilters bool
	// Legacy switches relation storage to runtime-comparator B-trees (the
	// legacy interpreter of §5.1). Implies dynamic dispatch and runtime
	// reordering.
	Legacy bool
	// Profile enables the built-in profiler: per-rule wall time, dispatch
	// counts, and iteration counts (§5.2). Counters are kept per worker
	// context and folded at query barriers, so profiling composes with
	// parallel execution.
	Profile bool
	// Provenance records the first derivation of every tuple so that
	// Engine.Explain can reconstruct proof trees — the debugging workflow
	// that motivates interpreters in the paper's §1. Provenance implies the
	// dynamic-adapter path, runtime reordering, and serial execution. It does
	// not touch FusedFilters: constraints are not premises, and the existence
	// checks that are stay ordinary nodes.
	Provenance bool
	// Workers sets the parallelism degree for the outermost scans of rule
	// evaluations (paper §3: thread-local context copies per worker).
	// Values below 2 mean serial execution.
	Workers int
	// Shards hash-partitions every shardable relation into this many
	// partitions on its shard-plan column (ram.Relation.ShardKey, derived by
	// analysis.ShardKeys), so parallel scans split along shard boundaries
	// and scan-barrier merges route staged tuples to their owning shard —
	// shard-parallel semi-naive evaluation with delta exchange at the
	// barriers. 0 disables sharding; 1 builds the degenerate single-shard
	// wrappers (useful to test the routing path); values above 1 raise
	// Workers to match so worker i evaluates shard i. Sharded relations
	// keep static dispatch through the same specialized opcodes as
	// unsharded ones (specialized.go): a node binds one concrete tree per
	// shard and routes by partition hash when its bound prefix covers the
	// key, the unsharded relation being the one-tree case. Only the
	// order-sensitive instructions (choice, aggregates) drop to the dynamic
	// adapter under sharding. Sharding is disabled under Legacy and
	// Provenance.
	Shards int
	// Metrics attaches a telemetry collector: per-relation and per-index
	// counters, fixpoint convergence curves, parallel-scan statistics, and
	// (when the collector has tracing enabled) span events. nil disables all
	// telemetry; the hot paths then pay a nil check and nothing else.
	Metrics *metrics.Collector
}

// DefaultConfig is the full STI: every optimization enabled.
func DefaultConfig() Config {
	return Config{
		StaticDispatch:    true,
		SuperInstructions: true,
		StaticReordering:  true,
		LeanDispatch:      true,
		FusedFilters:      true,
	}
}

// DynamicAdapterConfig disables only static instruction generation — the
// baseline of Fig 18.
func DynamicAdapterConfig() Config {
	c := DefaultConfig()
	c.StaticDispatch = false
	return c
}

// LegacyConfig reproduces the legacy interpreter of §5.1.
func LegacyConfig() Config {
	return Config{Legacy: true}
}

// normalize resolves implied settings.
func (c Config) normalize() Config {
	if c.Legacy {
		c.StaticDispatch = false
		c.StaticReordering = false
		c.SuperInstructions = false
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Shards < 0 {
		c.Shards = 0
	}
	if c.Legacy {
		c.Shards = 0
	}
	if c.Workers < c.Shards {
		c.Workers = c.Shards
	}
	if c.Provenance {
		c.StaticDispatch = false
		c.StaticReordering = false
		c.Workers = 1
		c.Shards = 0
	}
	return c
}
