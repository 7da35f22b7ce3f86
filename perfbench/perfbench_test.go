package main

import (
	"math"
	"strings"
	"testing"
)

// render serializes everything a seed determines, so that equality of two
// datasets is equality of bytes.
func render(d *dataset, script []apply) string {
	var b strings.Builder
	for _, rel := range d.rels {
		for _, r := range d.facts[rel] {
			b.WriteString(fact{rel, r}.key())
			b.WriteByte('\n')
		}
	}
	for _, a := range script {
		b.WriteString(a.body())
		b.WriteString("apply\n")
	}
	for _, q := range d.queries {
		b.WriteString(q.rel + " " + strings.Join(q.pattern, ",") + "\n")
	}
	return b.String()
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed int64) string {
			n := 0 // a batch workload has no apply script
			if w.serve {
				n = 50
			}
			d := w.gen(seed, &tiny, poolFor(n))
			return render(d, buildScript(seed, d.pool, n))
		}
		if gen(7) != gen(7) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if gen(7) == gen(8) {
			t.Errorf("%s: different seeds gave the same inputs", w.name)
		}
	}
}

// A traced run replays a shorter script than an untraced one and so asks for
// a smaller pool; both must see the same base input.
func TestBaseDoesNotDependOnPoolSize(t *testing.T) {
	if render(genReach(3, tiny.reach, 0), nil) != render(genReach(3, tiny.reach, 200), nil) {
		t.Errorf("base facts or queries change with the pool size")
	}
}

func TestPoolIsDisjointFromBase(t *testing.T) {
	for _, w := range workloads {
		if !w.serve {
			continue
		}
		d := w.gen(3, &tiny, 200)
		seen := map[string]bool{}
		for _, rel := range d.rels {
			for _, r := range d.facts[rel] {
				k := fact{rel, r}.key()
				if seen[k] {
					t.Fatalf("%s: base fact %q repeats", w.name, k)
				}
				seen[k] = true
			}
		}
		for _, f := range d.pool {
			if seen[f.key()] {
				t.Fatalf("%s: pool fact %q is in the base or repeats", w.name, f.key())
			}
			seen[f.key()] = true
		}
	}
}

func TestScriptDeletesOnlyLiveFacts(t *testing.T) {
	d := genReach(5, tiny.reach, poolFor(80))
	script := buildScript(5, d.pool, 80)
	if len(script) != 80 {
		t.Fatalf("script has %d applies, want 80", len(script))
	}
	live := map[string]bool{}
	dels := 0
	for i, a := range script {
		want := insertBatch
		if a.del {
			want = deleteBatch
			dels++
		}
		if len(a.facts) != want {
			t.Fatalf("apply %d has %d facts, want %d", i, len(a.facts), want)
		}
		for _, f := range a.facts {
			if a.del {
				if !live[f.key()] {
					t.Fatalf("apply %d deletes %q, which is not live", i, f.key())
				}
				delete(live, f.key())
			} else {
				if live[f.key()] {
					t.Fatalf("apply %d inserts %q twice", i, f.key())
				}
				live[f.key()] = true
			}
		}
	}
	if dels != len(script)*deleteShare/100 {
		t.Errorf("%d of %d applies delete, want %d%%", dels, len(script), deleteShare)
	}
	if n := len(buildScript(5, d.pool, 4)); n != 4 || !buildScript(5, d.pool, 4)[3].del {
		t.Errorf("a script of four applies must end in a delete")
	}
	// finalFacts must hold the base plus exactly the facts still live.
	final := finalFacts(d, script)
	n := 0
	for _, rows := range final {
		n += len(rows)
	}
	base := len(d.facts["edge"]) + len(d.facts["label"])
	if n != base+len(live) {
		t.Errorf("final EDB has %d facts, want %d base + %d live", n, base, len(live))
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, unsorted
	}
	if p, beyond := percentile(xs, 0.95); p != 95 || beyond != 5 {
		t.Errorf("p95 of 1..100 = %v with %d beyond, want 95 with 5", p, beyond)
	}
	if p, beyond := percentile(xs[:1], 0.95); p != 100 || beyond != 0 {
		t.Errorf("p95 of one sample = %v with %d beyond", p, beyond)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: extrapolates like Python.
	q1, q3 = quartiles([]float64{1, 2})
	if math.Abs(q1-0.75) > 1e-12 || math.Abs(q3-2.25) > 1e-12 {
		t.Errorf("quartiles of two = %v, %v, want 0.75, 2.25", q1, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "run", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "load", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "eval", StartNs: 30, EndNs: 90},
		{ID: 4, Parent: 3, Name: "tree", StartNs: 40, EndNs: 60},
		{ID: 5, Parent: 3, Name: "tree", StartNs: 55, EndNs: 70}, // overlaps span 4
	}
	self := selfTimes(spans)
	want := map[string]int64{"run": 20, "load": 20, "eval": 30, "tree": 35}
	for name, ns := range want {
		if self[name] != ns {
			t.Errorf("self time of %s = %d, want %d", name, self[name], ns)
		}
	}
	var r *recorder
	r.end(r.begin("nothing")) // a nil recorder records nothing and must not panic
	rec := newRecorder("w")
	outer := rec.begin("outer")
	rec.end(rec.begin("inner"))
	rec.end(outer)
	if len(rec.spans) != 2 || rec.spans[1].Parent != rec.spans[0].ID || rec.spans[0].Parent != 0 {
		t.Errorf("recorder nesting wrong: %+v", rec.spans)
	}
}

func TestGoldensCoverBothSeeds(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range goldenSeeds {
			g, err := loadGolden(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			if g == nil {
				t.Errorf("%s: no golden for seed %d", w.name, seed)
				continue
			}
			src := w.source()
			if len(g.Sizes) != len(directives(src, ".printsize")) || len(g.Checksums) != len(directives(src, ".output")) {
				t.Errorf("%s seed %d: golden does not cover every printed and written relation", w.name, seed)
			}
		}
	}
}

// TestTinyEndToEnd drives every workload through the real binary at a scale
// that takes a fraction of a second, untraced and traced, and requires
// correct outputs and every metric BENCHMARK.json names. The full benchmark
// never runs under go test.
func TestTinyEndToEnd(t *testing.T) {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(e.repoDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		res, err := runOne(e, w, &tiny, 11, nominalSeconds, false)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct() || res.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.failed, res.attempted, res.problems)
		}
		for _, m := range sp.EndToEnd {
			if v, ok := res.get(m.Name); !ok || !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v", w.name, m.Name, v)
			}
		}
		if len(res.metrics) != len(sp.EndToEnd) {
			t.Errorf("%s reports %d end-to-end metrics, BENCHMARK.json names %d", w.name, len(res.metrics), len(sp.EndToEnd))
		}
	}
	for _, w := range workloads {
		res, err := runOne(e, w, &tiny, 11, nominalSeconds, true)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct() {
			t.Errorf("%s traced: %v", w.name, res.problems)
		}
		for _, m := range sp.PerLayer {
			if v, ok := res.get(m.Name); !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s traced: per-layer metric %s = %v (reported %v)", w.name, m.Name, v, ok)
			}
		}
		if len(res.metrics) != len(sp.PerLayer) {
			t.Errorf("%s traced reports %d metrics, BENCHMARK.json names %d", w.name, len(res.metrics), len(sp.PerLayer))
		}
		// The layers only a served program crosses are measured on the serve
		// workloads and on no other.
		for _, name := range []string{"interp.update_ms", "interp.delete_ms", "db.apply_insert_us", "db.durable_apply_insert_us", "db.recover_ms", "db.fallback_share", "http.query_overhead_us", "http.apply_p99_ms"} {
			if _, ok := res.get(name); ok != w.serve {
				t.Errorf("%s traced: %s reported = %v, want %v", w.name, name, ok, w.serve)
			}
		}
	}
}
