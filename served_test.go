package sti

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// servedSrc is reachability with a tagged view, the shape sti serve's
// benchmark serves: tagged(_, c) has no order of its own, as tagged's only
// search is a full-key one. hop is an arity-3 relation with one order, so
// most of its bound sets are uncovered.
const servedSrc = `
.decl edge(x:number, y:number)
.decl label(x:number, l:number)
.decl path(x:number, y:number)
.decl tagged(x:number, l:number)
.decl hop(x:number, y:number, z:number)
.input edge
.input label
.output tagged
.output hop
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
tagged(x, l) :- path(x, y), label(y, l).
hop(x, y, z) :- edge(x, y), edge(y, z).
`

const servedNodes, servedLabels = 16, 4

// servedPatterns are the patterns every check asks: every bound set of every
// relation, with values drawn from the node and label ranges.
func servedPatterns(rng *rand.Rand) (pats []servedPattern) {
	node := func() any { return int32(rng.Intn(servedNodes)) }
	for _, rel := range []string{"edge", "path", "tagged", "label"} {
		for bound := 1; bound < 4; bound++ {
			pat := []any{nil, nil}
			if bound&1 != 0 {
				pat[0] = node()
			}
			if bound&2 != 0 {
				pat[1] = node()
				if rel == "tagged" || rel == "label" {
					pat[1] = int32(rng.Intn(servedLabels))
				}
			}
			pats = append(pats, servedPattern{rel, pat})
		}
	}
	for bound := 1; bound < 8; bound++ {
		pat := []any{nil, nil, nil}
		for i := range pat {
			if bound&(1<<i) != 0 {
				pat[i] = node()
			}
		}
		pats = append(pats, servedPattern{"hop", pat})
	}
	return pats
}

type servedPattern struct {
	rel string
	pat []any
}

// servedFacts is the net fact set of a run of batches.
type servedFacts map[[3]int32]bool // {relation (0 edge, 1 label), x, y}

func (f servedFacts) run(t *testing.T, p *Program) *Result {
	t.Helper()
	in := p.NewInput()
	for k := range f {
		in.Add([]string{"edge", "label"}[k[0]], k[1], k[2])
	}
	res, err := p.Run(in)
	if err != nil {
		t.Fatalf("one-shot run: %v", err)
	}
	return res
}

// randomBatch stages a few insertions and deletions of input facts and
// records them in f; with derived set it also deletes a derived tuple, which
// forces the recompute fallback.
func (f servedFacts) randomBatch(db *Database, rng *rand.Rand, derived bool) *Batch {
	b := db.NewBatch()
	for i := 0; i < 1+rng.Intn(4); i++ {
		k := [3]int32{0, int32(rng.Intn(servedNodes)), int32(rng.Intn(servedNodes))}
		if rng.Intn(4) == 0 {
			k = [3]int32{1, k[1], int32(rng.Intn(servedLabels))}
		}
		b.Add([]string{"edge", "label"}[k[0]], k[1], k[2])
		f[k] = true
	}
	// Deletions draw from the rng in key order, not map order, so the seed
	// alone decides every batch.
	keys := make([][3]int32, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [3]int32) int { return slices.Compare(a[:], b[:]) })
	for _, k := range keys {
		if rng.Intn(6) == 0 {
			b.Delete([]string{"edge", "label"}[k[0]], k[1], k[2])
			delete(f, k)
		}
	}
	if derived {
		b.Delete("path", int32(rng.Intn(servedNodes)), int32(rng.Intn(servedNodes)))
	}
	return b
}

// checkServed asks every pattern of the database and of a fresh Run over the
// same facts, which must agree byte for byte and row for row.
func checkServed(t *testing.T, db *Database, res *Result, pats []servedPattern, tag string) {
	t.Helper()
	for _, sp := range pats {
		got, err := db.Query(sp.rel, sp.pat...)
		if err != nil {
			t.Fatalf("%s: query %s%v: %v", tag, sp.rel, sp.pat, err)
		}
		want := slices.DeleteFunc(res.Rows(sp.rel), func(row []any) bool {
			for i, v := range sp.pat {
				if v != nil && row[i] != v {
					return true
				}
			}
			return false
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: %s%v\nresident %v\none-shot %v", tag, sp.rel, sp.pat, got, want)
		}
	}
}

// servedOrdersOf renders Stats().ServedOrders for comparison.
func servedOrdersOf(db *Database) string { return fmt.Sprint(db.Stats().ServedOrders) }

func TestServedQueryOrders(t *testing.T) {
	p, err := Parse(servedSrc)
	if err != nil {
		t.Fatal(err)
	}

	// (a) The first tagged(_, c) scans; the next Apply builds [1 0], and the
	// same pattern is then one prefix scan.
	t.Run("build", func(t *testing.T) {
		db, err := p.Open()
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		facts := servedFacts{}
		rng := rand.New(rand.NewSource(1))
		if err := db.Apply(facts.randomBatch(db, rng, false)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.QueryText("tagged", []string{"_", "1"}); err != nil {
			t.Fatal(err)
		}
		if st := db.Stats(); st.QueryScans != 1 || st.ServedOrders != nil {
			t.Fatalf("after the first tagged(_, 1): %d scans, served %v; want 1 and none", st.QueryScans, st.ServedOrders)
		}
		if err := db.Apply(facts.randomBatch(db, rng, false)); err != nil {
			t.Fatal(err)
		}
		if got := servedOrdersOf(db); got != "map[tagged:[[1 0]]]" {
			t.Fatalf("served orders after the apply: %s", got)
		}
		for c := range servedLabels {
			if _, err := db.Query("tagged", nil, int32(c)); err != nil {
				t.Fatal(err)
			}
		}
		if st := db.Stats(); st.QueryScans != 1 {
			t.Fatalf("tagged(_, c) still scans after its build: %d scans", st.QueryScans)
		}
		checkServed(t, db, facts.run(t, p), servedPatterns(rng), "after build")
	})

	// (b, c, e) Over random insert/delete batches every answer matches a
	// fresh Run, before and after the builds, on the incremental path (Update
	// derives and Delete rederives into the served orders), on the recompute
	// fallback (Main regenerated), and under every option a served database
	// takes.
	for _, v := range []struct {
		name    string
		opts    []Option
		derived bool
	}{
		{"incremental", nil, false},
		{"fallback", nil, true},
		{"observability", []Option{WithObservability(ObservabilityConfig{SlowRequest: time.Minute})}, false},
		{"profiling", []Option{WithProfiling()}, false},
		{"workers", []Option{WithWorkers(2)}, false},
		{"shards", []Option{WithShards(2)}, false},
	} {
		t.Run(v.name, func(t *testing.T) {
			db, err := p.Open(v.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			facts := servedFacts{}
			rng := rand.New(rand.NewSource(2))
			for i := 0; i < 24; i++ {
				if err := db.Apply(facts.randomBatch(db, rng, v.derived && i%3 == 2)); err != nil {
					t.Fatal(err)
				}
				checkServed(t, db, facts.run(t, p), servedPatterns(rng), fmt.Sprintf("batch %d", i))
			}
			st := db.Stats()
			if v.derived != (st.AppliesFallback > 0) || st.AppliesIncremental == 0 {
				t.Fatalf("paths: %d incremental, %d fallback applies", st.AppliesIncremental, st.AppliesFallback)
			}
			if len(st.ServedOrders) == 0 && v.name != "shards" {
				t.Fatal("no served order was built")
			}
			if v.name == "observability" {
				var buf bytes.Buffer
				if err := db.WriteMetrics(&buf); err != nil {
					t.Fatal(err)
				}
				for _, want := range []string{
					fmt.Sprintf("sti_db_query_scans_total %d\n", st.QueryScans),
					fmt.Sprintf("sti_db_served_orders{rel=\"tagged\"} %d\n", len(st.ServedOrders["tagged"])),
					fmt.Sprintf("sti_db_overdeleted_total %d\n", st.Overdeleted),
					fmt.Sprintf("sti_db_rederived_total %d\n", st.Rederived),
				} {
					if !strings.Contains(buf.String(), want) {
						t.Errorf("/metrics lacks %q", want)
					}
				}
				edges, err := db.Size("edge")
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%d overdeleted, %d rederived, %d edges", st.Overdeleted, st.Rederived, edges)
				if st.Overdeleted == 0 || st.Rederived > st.Overdeleted {
					t.Errorf("%d overdeleted, %d rederived: want some deletes, and rederived a share of them", st.Overdeleted, st.Rederived)
				}
			}
			for name, orders := range st.ServedOrders {
				rel := db.eng.Relation(name)
				if rel.Sharded() || len(orders) > maxServedOrders || rel.NumIndexes() < len(orders)+1 {
					t.Fatalf("%s: served orders %v on a relation with %d indexes (sharded %v)",
						name, orders, rel.NumIndexes(), rel.Sharded())
				}
			}
		})
	}

	// (d) Served orders are not persisted: a reopened durable database
	// answers the same, scans again, and builds the same orders on demand.
	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		opt := WithPersistenceConfig(PersistenceConfig{Dir: dir, SnapshotEvery: 4})
		db, err := p.Open(opt)
		if err != nil {
			t.Fatal(err)
		}
		facts := servedFacts{}
		rng := rand.New(rand.NewSource(3))
		pats := servedPatterns(rng)
		for i := 0; i < 6; i++ {
			if err := db.Apply(facts.randomBatch(db, rng, false)); err != nil {
				t.Fatal(err)
			}
			checkServed(t, db, facts.run(t, p), pats, fmt.Sprintf("batch %d", i))
		}
		built := servedOrdersOf(db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = p.Open(opt); err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if st := db.Stats(); st.ServedOrders != nil || st.QueryScans != 0 {
			t.Fatalf("reopened with served orders %v, %d scans", st.ServedOrders, st.QueryScans)
		}
		checkServed(t, db, facts.run(t, p), pats, "reopened")
		if db.Stats().QueryScans == 0 {
			t.Fatal("reopened database answered every pattern without a scan")
		}
		if err := db.Apply(facts.randomBatch(db, rng, false)); err != nil {
			t.Fatal(err)
		}
		if got := servedOrdersOf(db); got != built {
			t.Fatalf("rebuilt served orders %s, want %s", got, built)
		}
		checkServed(t, db, facts.run(t, p), pats, "rebuilt")
	})

	// (f) Querying every bound set of hop builds at most maxServedOrders
	// orders; the rest keep scanning, and every answer stays correct.
	t.Run("cap", func(t *testing.T) {
		db, err := p.Open()
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		facts := servedFacts{}
		rng := rand.New(rand.NewSource(4))
		var hops []servedPattern
		for _, sp := range servedPatterns(rng) {
			if sp.rel == "hop" {
				hops = append(hops, sp)
			}
		}
		for i := 0; i < 4; i++ {
			if err := db.Apply(facts.randomBatch(db, rng, false)); err != nil {
				t.Fatal(err)
			}
			checkServed(t, db, facts.run(t, p), hops, fmt.Sprintf("batch %d", i))
		}
		if orders := db.Stats().ServedOrders["hop"]; len(orders) != maxServedOrders {
			t.Fatalf("hop served orders %v, want %d", orders, maxServedOrders)
		}
		before := db.Stats().QueryScans
		checkServed(t, db, facts.run(t, p), hops, "over the cap")
		if db.Stats().QueryScans == before {
			t.Fatal("every hop bound set was covered despite the cap")
		}
	})
}

// Readers querying uncovered patterns while applies build their orders see,
// within each snapshot, exactly the filtered rows of that snapshot's
// relation. Run under -race this also checks the wanted set and the builds
// for data races.
func TestServedOrdersConcurrentReaders(t *testing.T) {
	p, err := Parse(servedSrc)
	if err != nil {
		t.Fatal(err)
	}
	db, err := p.Open(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				sp := servedPatterns(rng)[rng.Intn(19)]
				s := db.Snapshot()
				got, err := s.Query(sp.rel, sp.pat...)
				all, err2 := s.Query(sp.rel)
				s.Release()
				if err != nil || err2 != nil {
					t.Errorf("query %s%v: %v, %v", sp.rel, sp.pat, err, err2)
					return
				}
				want := slices.DeleteFunc(all, func(row []any) bool {
					for i, v := range sp.pat {
						if v != nil && row[i] != v {
							return true
						}
					}
					return false
				})
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s%v: got %v, want %v", sp.rel, sp.pat, got, want)
					return
				}
			}
		}(int64(r + 1))
	}
	facts := servedFacts{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		if err := db.Apply(facts.randomBatch(db, rng, false)); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if db.Stats().ServedOrders == nil {
		t.Fatal("no served order was built while readers ran")
	}
}

// BenchmarkServedQuery times one QueryText on a resident reachability
// database of many small components (the shape of sti serve's benchmark):
// path(x, _), which an Open-time order covers; tagged(_, c) before its served
// order exists, a filtered scan of all of tagged; and tagged(_, c) after one
// Apply built it. Each answer has at most one component's rows.
//
//	go test -run '^$' -bench ServedQuery .
func BenchmarkServedQuery(b *testing.B) {
	const comps, nodes = 400, 16
	p, err := Parse(servedSrc)
	if err != nil {
		b.Fatal(err)
	}
	for _, leg := range []struct {
		name    string
		rel     string
		build   bool
		pattern func(c, n int) []string
	}{
		{"covered", "path", false, func(c, n int) []string { return []string{fmt.Sprint(c*nodes + n), "_"} }},
		{"uncovered", "tagged", false, func(c, _ int) []string { return []string{"_", fmt.Sprint(c)} }},
		{"served", "tagged", true, func(c, _ int) []string { return []string{"_", fmt.Sprint(c)} }},
	} {
		b.Run(leg.name, func(b *testing.B) {
			db, err := p.Open()
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			rng := rand.New(rand.NewSource(1))
			batch := db.NewBatch()
			for c := 0; c < comps; c++ {
				for i := 0; i < nodes; i++ {
					batch.Add("edge", c*nodes+rng.Intn(nodes), c*nodes+rng.Intn(nodes))
				}
				batch.Add("label", c*nodes+rng.Intn(nodes), c)
			}
			if err := db.Apply(batch); err != nil {
				b.Fatal(err)
			}
			if leg.build {
				if _, err := db.QueryText(leg.rel, leg.pattern(0, 0)); err != nil {
					b.Fatal(err)
				}
				if err := db.Apply(db.NewBatch()); err != nil {
					b.Fatal(err)
				}
			}
			scans := db.Stats().QueryScans
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.QueryText(leg.rel, leg.pattern(i%comps, i%nodes)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if scanned := db.Stats().QueryScans > scans; scanned != (leg.name == "uncovered") {
				b.Fatalf("%s: scanned = %v", leg.name, scanned)
			}
		})
	}
}
