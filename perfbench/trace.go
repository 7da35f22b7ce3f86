package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"sti/internal/ast2ram"
	"sti/internal/interp"
	"sti/internal/metrics"
	"sti/internal/parser"
	"sti/internal/ram"
	"sti/internal/ramopt"
	"sti/internal/sema"
	"sti/internal/symtab"
	"sti/internal/tuple"
	"sti/internal/value"
)

// tracer carries what the layer probes of one traced run share.
type tracer struct {
	e    *env
	w    *workload
	sc   *scale
	seed int64
	work string
	rec  *recorder
	res  *result
	d    *dataset
	// script is the apply script a serve workload's incremental, db and http
	// probes replay; a batch workload has none.
	script []apply
	// The serial fixpoint's wall time and the profiled run's scan iterations
	// and insert attempts, from which trees() estimates the tree layer's
	// share of the fixpoint.
	evalS           float64
	iters, attempts uint64
}

func (t *tracer) metric(name string, v float64, unit string) { t.res.metric(name, v, unit) }

// serveMetric reports a metric of a layer only the serve workloads cross. It
// is printed like the others but stays out of the JSON line: BENCHMARK.json
// may list only what every workload reports, and a batch workload has no
// apply script to measure these on.
func (t *tracer) serveMetric(name string, v float64, unit string) { t.res.info(name, v, unit) }

// runTraced replays one workload in process, layer by layer, calling each
// layer's public functions from here and recording a span around every call.
// It prints the per-layer metrics and writes the spans to
// out/trace_<workload>.json. Nothing inside the program is instrumented;
// counts come from the counters the engine already exports.
func runTraced(e *env, w *workload, sc *scale, seed int64, seconds int) (*result, error) {
	work, err := e.workDir(w.name + "-trace")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	t := &tracer{e: e, w: w, sc: sc, seed: seed, work: work, rec: newRecorder(w.name), res: &result{workload: w.name}}
	n := 0
	if w.serve {
		n = max(1, sc.traceApplies*seconds/nominalSeconds)
	}
	t.d = w.gen(seed, sc, poolFor(n))
	t.script = buildScript(seed, t.d.pool, n)

	hot, err := t.pipeline()
	if err != nil {
		return nil, err
	}
	if err := t.variants(); err != nil {
		return nil, err
	}
	if len(hot) == 0 {
		return nil, fmt.Errorf("hot relation %s is empty", w.hot)
	}
	probe := sample(hot, sc.probeTuples, seed)
	if err := t.trees(probe); err != nil {
		return nil, err
	}
	if err := t.storage(probe); err != nil {
		return nil, err
	}
	// The entry points behind /apply and /query, the resident database and
	// HTTP: layers only the serve workloads cross.
	if w.serve {
		if err := t.incremental(); err != nil {
			return nil, err
		}
		if err := t.database(); err != nil {
			return nil, err
		}
	}
	t.res.attempted++ // the traced replay as a whole; its parts count their own checks
	path := filepath.Join(e.outDir, "trace_"+w.name+".json")
	if err := t.rec.write(path); err != nil {
		return nil, err
	}
	t.res.note("%d spans written to %s", len(t.rec.spans), path)
	return t.res, nil
}

// compiled is one fresh translation of the workload's program.
type compiled struct {
	prog *ram.Program
	st   *symtab.Table
}

func compileSource(src string) (*compiled, error) {
	astProg, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	semProg, errs := sema.Analyze(astProg)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	st := symtab.New()
	rp, err := ast2ram.Translate(semProg, st)
	if err != nil {
		return nil, err
	}
	return &compiled{rp, st}, nil
}

// writeInputs writes the workload's facts where the replay's DirIO reads
// them, the way `sti run -F in -D out` finds them.
func (t *tracer) writeInputs() error {
	for _, dir := range []string{"in", "out"} {
		if err := os.MkdirAll(filepath.Join(t.work, dir), 0o755); err != nil {
			return err
		}
	}
	return writeFacts(filepath.Join(t.work, "in"), t.d)
}

func (t *tracer) dirIO(st *symtab.Table) *interp.DirIO {
	return &interp.DirIO{
		InputDir: filepath.Join(t.work, "in"), OutputDir: filepath.Join(t.work, "out"),
		Symbols: st, W: io.Discard,
	}
}

// phases are the wall times of one `sti run` replayed in process.
type phases struct {
	parse, sema, translate, treegen, load, eval, store, total float64
	eng                                                       *interp.Engine
}

// replay performs what `sti run` does between exec and exit, one layer call
// per span: parse, analyze, translate, generate the interpreter tree, load
// the facts, evaluate, write the outputs.
func (t *tracer) replay(rec *recorder) (*phases, error) {
	p := &phases{}
	step := func(name string) func() float64 {
		id, t0 := rec.begin(name), time.Now()
		return func() float64 {
			dt := time.Since(t0)
			rec.end(id)
			return dt.Seconds()
		}
	}
	total := step("cli.run")
	done := step("parser.parse")
	astProg, err := parser.Parse(t.w.source())
	p.parse = done()
	if err != nil {
		return nil, err
	}
	done = step("sema.analyze")
	semProg, errs := sema.Analyze(astProg)
	p.sema = done()
	if len(errs) > 0 {
		return nil, errs[0]
	}
	st := symtab.New()
	done = step("ast2ram.translate")
	rp, err := ast2ram.Translate(semProg, st)
	p.translate = done()
	if err != nil {
		return nil, err
	}
	done = step("interp.treegen")
	eng := interp.New(rp, st, interp.DefaultConfig())
	p.treegen = done()
	dio := t.dirIO(st)
	done = step("interp.load")
	err = eng.Load(dio)
	p.load = done()
	if err != nil {
		return nil, err
	}
	done = step("interp.eval")
	err = eng.Eval()
	p.eval = done()
	if err != nil {
		return nil, err
	}
	done = step("interp.store")
	err = eng.Store(dio)
	p.store = done()
	if err != nil {
		return nil, err
	}
	p.total = total()
	p.eng = eng
	return p, nil
}

// pipeline replays the run untraced and traced, reports the front-end and
// phase metrics of the traced replay and the overhead of tracing, and returns
// the hot relation's final tuples for the structure probes.
func (t *tracer) pipeline() ([]tuple.Tuple, error) {
	if err := t.writeInputs(); err != nil {
		return nil, err
	}
	// One discarded replay first, so that neither measured replay pays for
	// cold files and a cold heap.
	if _, err := t.replay(nil); err != nil {
		return nil, err
	}
	plain, err := t.replay(nil)
	if err != nil {
		return nil, err
	}
	p, err := t.replay(t.rec)
	if err != nil {
		return nil, err
	}
	rows := 0
	for _, rel := range t.d.rels {
		rows += len(t.d.facts[rel])
	}
	t.metric("trace.overhead_x", p.total/plain.total, "x")
	t.metric("parser.parse_ms", p.parse*1e3, "ms")
	t.metric("sema.analyze_ms", p.sema*1e3, "ms")
	t.metric("ast2ram.translate_ms", p.translate*1e3, "ms")
	t.metric("interp.treegen_ms", p.treegen*1e3, "ms")
	t.metric("eio.load_rows_per_s", float64(rows)/p.load, "1/s")
	t.metric("interp.load_s", p.load, "s")
	t.metric("interp.eval_s", p.eval, "s")
	t.metric("interp.store_s", p.store, "s")

	// `sti run` optimizes only under -O; the pass pipeline is timed on a
	// translation of its own and its result discarded.
	c, err := compileSource(t.w.source())
	if err != nil {
		return nil, err
	}
	var stats ramopt.Stats
	optS := t.rec.in("ramopt.optimize", func() { stats = ramopt.OptimizeStats(c.prog, c.st, ramopt.All()) })
	t.metric("ramopt.optimize_ms", optS*1e3, "ms")
	t.metric("ram.nodes", float64(stats.StatementsBefore), "count")

	// Every printed and written relation of the in-process run must agree
	// with the independent expectation too.
	want, _, err := expected(t.w, t.sc, t.seed, 0, t.d.facts)
	if err != nil {
		return nil, err
	}
	sizes := map[string]int{}
	for rel := range want.Sizes {
		ts, err := p.eng.Tuples(rel)
		if err != nil {
			return nil, err
		}
		sizes[rel] = len(ts)
	}
	sums := map[string]string{}
	for rel := range want.Checksums {
		s, err := fileSum(filepath.Join(t.work, "out", rel+".csv"))
		if err != nil {
			return nil, err
		}
		sums[rel] = s
	}
	t.res.attempted++
	if diffs := want.diff(sizes, sums); len(diffs) > 0 {
		t.res.failed++
		t.res.problems = append(t.res.problems, diffs...)
	}
	return p.eng.Tuples(t.w.hot)
}

// evalWith evaluates the program under cfg on a fresh translation and returns
// the fixpoint's wall time (the whole run's, under cfg.Profile) and the
// engine.
func (t *tracer) evalWith(name string, cfg interp.Config) (float64, *interp.Engine, error) {
	c, err := compileSource(t.w.source())
	if err != nil {
		return 0, nil, err
	}
	eng := interp.New(c.prog, c.st, cfg)
	dio := t.dirIO(c.st)
	if cfg.Profile {
		// Run is the only entry point that arms the profiler.
		s := t.rec.in(name, func() { err = eng.Run(dio) })
		return s, eng, err
	}
	if err := eng.Load(dio); err != nil {
		return 0, nil, err
	}
	s := t.rec.in(name, func() { err = eng.Eval() })
	return s, eng, err
}

// variants re-evaluates the program under the configurations the paper's
// ablations and the roadmap's parallel models name.
func (t *tracer) variants() error {
	serial, _, err := t.evalWith("interp.eval_static", interp.DefaultConfig())
	if err != nil {
		return err
	}
	dyn, _, err := t.evalWith("interp.eval_dynamic", interp.DynamicAdapterConfig())
	if err != nil {
		return err
	}
	t.evalS = serial
	t.metric("interp.eval_dynamic_s", dyn, "s")
	t.metric("interp.static_gain_x", dyn/serial, "x")

	fusedCfg := interp.DefaultConfig()
	fusedCfg.FusedFilters = true
	fused, _, err := t.evalWith("interp.eval_fused", fusedCfg)
	if err != nil {
		return err
	}
	t.metric("interp.eval_fused_s", fused, "s")

	parCfg := interp.DefaultConfig()
	parCfg.Workers = 2
	parCfg.Metrics = metrics.New()
	par, parEng, err := t.evalWith("interp.eval_par", parCfg)
	if err != nil {
		return err
	}
	t.metric("interp.par_eval_s", par, "s")
	t.metric("interp.par_speedup_x", serial/par, "x")
	skew := 1.0 // no partitioned scan fanned out: one worker did everything
	if p := parEng.Telemetry().Report().Parallel; p != nil && p.MaxSkew > 0 {
		skew = p.MaxSkew
	}
	t.metric("interp.par_skew", skew, "x")

	shardCfg := interp.DefaultConfig()
	shardCfg.Shards = 2
	shard, _, err := t.evalWith("interp.eval_shard", shardCfg)
	if err != nil {
		return err
	}
	t.metric("interp.shard_eval_s", shard, "s")

	profCfg := interp.DefaultConfig()
	profCfg.Profile = true
	_, profEng, err := t.evalWith("interp.run_profiled", profCfg)
	if err != nil {
		return err
	}
	prof := profEng.Profile()
	if prof == nil {
		return errors.New("profiled run returned no profile")
	}
	var iters, derived uint64
	var ruleTime, topTime time.Duration
	for _, r := range prof.Rules {
		iters += r.Iterations
		t.attempts += r.Attempts
		derived += r.Inserts
		ruleTime += r.Time
		if r.Time > topTime {
			topTime = r.Time
		}
	}
	t.metric("interp.dispatches", float64(prof.TotalDispatches), "count")
	t.metric("interp.iterations", float64(iters), "count")
	t.metric("interp.tuples_derived", float64(derived), "count")
	t.metric("interp.top_rule_share", float64(topTime)/float64(ruleTime), "share")
	t.iters = iters
	return nil
}

func encodeRow(r row) tuple.Tuple {
	t := make(tuple.Tuple, len(r))
	for i, v := range r {
		t[i] = value.FromInt(v)
	}
	return t
}

// byRelation groups facts into engine tuples per relation.
func byRelation(facts []fact) map[string][]tuple.Tuple {
	out := map[string][]tuple.Tuple{}
	for _, f := range facts {
		out[f.rel] = append(out[f.rel], encodeRow(f.row))
	}
	return out
}

// incremental replays the apply script against a bare engine the way the
// resident database does: InsertFacts + EvalUpdate for an insert batch,
// DeleteFacts + EvalDelete for a delete batch.
func (t *tracer) incremental() error {
	c, err := compileSource(t.w.source())
	if err != nil {
		return err
	}
	eng := interp.New(c.prog, c.st, interp.DefaultConfig())
	if !eng.Incremental() || !eng.Deletable() {
		return fmt.Errorf("%s has no incremental entry points", t.w.program)
	}
	for rel, ts := range byRelation(t.d.base()) {
		if _, err := eng.InsertFacts(rel, ts); err != nil {
			return err
		}
	}
	if err := eng.Eval(); err != nil {
		return err
	}
	eng.ClearRecents()
	var ins, del []float64
	for _, a := range t.script {
		name := "interp.update"
		if a.del {
			name = "interp.delete"
		}
		var err error
		s := t.rec.in(name, func() {
			for rel, ts := range byRelation(a.facts) {
				if a.del {
					_, err = eng.DeleteFacts(rel, ts)
				} else {
					_, err = eng.InsertFacts(rel, ts)
				}
				if err != nil {
					return
				}
			}
			if a.del {
				err = eng.EvalDelete()
			} else {
				err = eng.EvalUpdate()
			}
		})
		if err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		if a.del {
			del = append(del, s*1e3)
		} else {
			ins = append(ins, s*1e3)
		}
	}
	t.serveMetric("interp.update_ms", median(ins), "ms")
	t.serveMetric("interp.delete_ms", median(del), "ms")
	return nil
}
