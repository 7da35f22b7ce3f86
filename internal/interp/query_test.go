package interp

import (
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"sti/internal/metrics"
	"sti/internal/relation"
	"sti/internal/tuple"
	"sti/internal/value"
)

// filtered is the reference answer of a pattern: the relation's rows in
// primary order, keeping those that match.
func filtered(t *testing.T, eng *Engine, name string, pattern tuple.Tuple, mask []bool) []tuple.Tuple {
	t.Helper()
	var out []tuple.Tuple
	for _, tp := range tuplesOf(t, eng, name) {
		if matches(tp, pattern, mask) {
			out = append(out, tp)
		}
	}
	return out
}

func checkQuery(t *testing.T, eng *Engine, name string, pattern tuple.Tuple, mask []bool, wantCovered bool) {
	t.Helper()
	got, covered, err := eng.Query(name, pattern, mask)
	if err != nil {
		t.Fatalf("query %s%v: %v", name, pattern, err)
	}
	if covered != wantCovered {
		t.Errorf("query %s%v mask %v: covered = %v, want %v", name, pattern, mask, covered, wantCovered)
	}
	if want := filtered(t, eng, name, pattern, mask); !slices.EqualFunc(got, want, tuple.Equal) {
		t.Errorf("query %s%v mask %v:\n got %v\nwant %v", name, pattern, mask, got, want)
	}
}

func tripleFacts() map[string][]tuple.Tuple {
	var ts []tuple.Tuple
	for i := 0; i < 200; i++ {
		ts = append(ts, tuple.Tuple{value.Value(i % 5), value.Value(i % 7), value.Value(i % 11)})
	}
	return map[string][]tuple.Tuple{"r": ts}
}

// A bound set no order covers is answered by a prefix scan of the primary on
// its longest bound prefix, filtered on the other bound positions: r(a, _, c)
// on [0 1 2] range-scans a and never scans all of r. Rows keep primary order.
func TestQueryNarrowsByPrimaryPrefix(t *testing.T) {
	for _, rep := range []string{"btree", "brie"} {
		t.Run(rep, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Metrics = metrics.New()
			src := ".decl r(a:number, b:number, c:number) " + rep + "\n.input r\n.output r\n"
			eng, _ := run(t, src, tripleFacts(), cfg)
			ops := eng.Relation("r").Stats().Ops[0]
			before := ops.View()
			if _, covered, err := eng.Query("r", tuple.Tuple{3, 0, 4}, []bool{true, false, true}); covered || err != nil {
				t.Fatalf("r(3, _, 4): covered %v, err %v", covered, err)
			}
			after := ops.View()
			if after.Scans != before.Scans || after.RangeScans != before.RangeScans+1 {
				t.Errorf("r(3, _, 4): %d full scans and %d prefix scans, want 0 and 1",
					after.Scans-before.Scans, after.RangeScans-before.RangeScans)
			}
			checkQuery(t, eng, "r", tuple.Tuple{3, 0, 4}, []bool{true, false, true}, false)
			checkQuery(t, eng, "r", tuple.Tuple{3, 1, 0}, []bool{true, true, false}, true)
			checkQuery(t, eng, "r", tuple.Tuple{0, 2, 4}, []bool{false, true, true}, false)
			checkQuery(t, eng, "r", tuple.Tuple{1, 1, 1}, []bool{true, true, true}, true)
			checkQuery(t, eng, "r", tuple.Tuple{9, 9, 9}, []bool{true, false, true}, false)
		})
	}
}

// AddOrder builds the served order, and the pattern it serves is covered from
// then on with the same answer. The order is maintained by later inserts of
// every entry point: Update's and Delete's trees, generated after the build,
// and Main's, regenerated from scratch.
func TestAddOrderServesAndRegenerates(t *testing.T) {
	src := `
.decl e(x:number, y:number, z:number)
.decl p(x:number, y:number, z:number)
.input e
.output p
p(x, y, z) :- e(x, y, z).
p(x, y, z) :- p(x, y, w), e(w, y, z).
`
	facts := map[string][]tuple.Tuple{"e": {{1, 2, 3}, {3, 2, 4}, {5, 6, 7}}}
	eng, _ := run(t, src, facts, DefaultConfig())
	mask := []bool{false, true, false}
	pattern := tuple.Tuple{0, 2, 0}
	// Generate every tree before the build.
	step := func(ins, del tuple.Tuple) {
		t.Helper()
		if _, err := eng.InsertFacts("e", []tuple.Tuple{ins}); err != nil {
			t.Fatal(err)
		}
		if err := eng.EvalUpdate(); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.DeleteFacts("e", []tuple.Tuple{del}); err != nil {
			t.Fatal(err)
		}
		if err := eng.EvalDelete(); err != nil {
			t.Fatal(err)
		}
	}
	step(tuple.Tuple{8, 2, 1}, tuple.Tuple{8, 2, 1})
	checkQuery(t, eng, "p", pattern, mask, false)
	if got := eng.AddOrder("p", mask); !slices.Equal(got, tuple.Order{1, 0, 2}) {
		t.Fatalf("AddOrder = %v, want [1 0 2]", got)
	}
	if got := eng.AddOrder("p", mask); got != nil {
		t.Fatalf("second AddOrder = %v, want nil", got)
	}
	checkQuery(t, eng, "p", pattern, mask, true)

	step(tuple.Tuple{4, 2, 9}, tuple.Tuple{3, 2, 4})
	checkQuery(t, eng, "p", pattern, mask, true)
	step(tuple.Tuple{3, 2, 4}, tuple.Tuple{1, 2, 3})
	checkQuery(t, eng, "p", pattern, mask, true)
	eng.Reset(func(r *relation.Relation) bool { return r == eng.Relation("e") })
	if err := eng.Eval(); err != nil {
		t.Fatal(err)
	}
	checkQuery(t, eng, "p", pattern, mask, true)
}

// An eqrel takes no second order, so (_, b) is answered through symmetry: the
// (b, _) prefix scan with its columns swapped, in the same row order as the
// filtered primary.
func TestEqrelQueryThroughSymmetry(t *testing.T) {
	src, err := os.ReadFile("../../examples/samegen.dl")
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := run(t, string(src), nil, DefaultConfig())
	rows := tuplesOf(t, eng, "gen")
	if len(rows) == 0 {
		t.Fatal("gen is empty")
	}
	for _, row := range rows {
		checkQuery(t, eng, "gen", tuple.Tuple{0, row[1]}, []bool{false, true}, true)
		checkQuery(t, eng, "gen", tuple.Tuple{row[0], 0}, []bool{true, false}, true)
	}
	checkQuery(t, eng, "gen", tuple.Tuple{0, value.Value(1 << 20)}, []bool{false, true}, true)
}

// ScanRange range-scans a primary that leads with the ranged attribute on
// the storage interval of [lo, hi], and filters under the attribute's type:
// rows come back exactly as the full-scan filter returns them, in primary
// order, for bounds that straddle zero on a number column, sit at the int32
// extremes, or lie at and above 2^31 on an unsigned column.
func TestScanRangeNarrowsPrimary(t *testing.T) {
	n := func(i int32) value.Value { return value.FromInt(i) }
	nums := []value.Value{n(math.MinInt32), n(-2147483647), n(-5), n(-1), 0, 1, 5, n(math.MaxInt32 - 1), n(math.MaxInt32)}
	uns := []value.Value{0, 1, 7, math.MaxInt32, 1 << 31, 3000000000, math.MaxUint32 - 1, math.MaxUint32}
	var rs, us []tuple.Tuple
	for i, v := range nums {
		rs = append(rs, tuple.Tuple{v, value.Value(i)}, tuple.Tuple{v, value.Value(i + 100)})
	}
	for i, v := range uns {
		us = append(us, tuple.Tuple{v, value.Value(i)})
	}
	cases := []struct {
		rel    string
		typ    value.Type
		lo, hi value.Value
	}{
		{"r", value.Number, n(-5), 5}, // straddles zero: the whole domain, filtered
		{"r", value.Number, n(math.MinInt32), n(-1)},
		{"r", value.Number, 0, n(math.MaxInt32)},
		{"r", value.Number, n(math.MinInt32), n(math.MaxInt32)},
		{"r", value.Number, n(-1), n(-1)},
		{"r", value.Number, 5, n(-5)}, // empty
		{"u", value.Unsigned, 1 << 31, math.MaxUint32},
		{"u", value.Unsigned, 0, math.MaxInt32},
		{"u", value.Unsigned, 3000000000, 3000000000},
	}
	src := `.decl r(a:number, b:number) %[1]s
.decl u(a:unsigned, b:number) %[1]s
.input r
.input u
.output r
.output u
`
	for _, rep := range []string{"btree", "brie"} {
		for _, shards := range []int{0, 2} {
			cfg := DefaultConfig()
			cfg.Shards = shards
			cfg.Metrics = metrics.New()
			eng, _ := run(t, fmt.Sprintf(src, rep), map[string][]tuple.Tuple{"r": rs, "u": us}, cfg)
			for _, c := range cases {
				var want []tuple.Tuple
				for it := eng.Relation(c.rel).Scan(); ; {
					tp, ok := it.Next()
					if !ok {
						break
					}
					if value.Compare(c.typ, tp[0], c.lo) >= 0 && value.Compare(c.typ, tp[0], c.hi) <= 0 {
						want = append(want, tuple.Clone(tp))
					}
				}
				ops := eng.Relation(c.rel).Stats().Ops[0]
				before := ops.View()
				got, err := eng.ScanRange(c.rel, c.lo, c.hi)
				if err != nil {
					t.Fatal(err)
				}
				if ops.View().Scans != before.Scans {
					t.Errorf("%s shards=%d: ScanRange(%s) scanned the whole primary", rep, shards, c.rel)
				}
				if !slices.EqualFunc(got, want, tuple.Equal) {
					t.Errorf("%s shards=%d: ScanRange(%s, %#x, %#x)\n got %v\nwant %v", rep, shards, c.rel, c.lo, c.hi, got, want)
				}
			}
		}
	}
}

// rowSink keeps the reference rows of TestCoveredQueryAllocatesItsRows on the
// heap, as Query's are.
var rowSink []tuple.Tuple

// A covered query allocates the rows it returns and the slice that holds
// them, plus its one visitor, and nothing for the search or per tuple: its
// allocations are those of appending as many fresh rows to a nil slice, plus
// one, whether it returns 1 row of r's 10 000 or 100. The primary is not in
// natural order, so every row is decoded.
func TestCoveredQueryAllocatesItsRows(t *testing.T) {
	src := ".decl r(a:number, b:number, c:number)\n.input r\n.output r\nr2(a) :- r(a, 7, _).\n.decl r2(a:number)\n"
	var ts []tuple.Tuple
	for i := 0; i < 10_000; i++ {
		ts = append(ts, tuple.Tuple{value.Value(i), value.Value(i % 100), value.Value(i / 100)})
	}
	eng, _ := run(t, src, map[string][]tuple.Tuple{"r": ts}, DefaultConfig())
	if eng.Relation("r").Primary().Order().IsIdentity() {
		t.Fatalf("r's primary is in natural order: %v", eng.Relation("r").Primary().Order())
	}
	for _, c := range []struct {
		pattern tuple.Tuple
		mask    []bool
		rows    int
	}{
		{tuple.Tuple{307, 7, 0}, []bool{true, true, false}, 1},
		{tuple.Tuple{0, 7, 0}, []bool{false, true, false}, 100},
	} {
		rows, covered, err := eng.Query("r", c.pattern, c.mask)
		if err != nil || !covered || len(rows) != c.rows {
			t.Fatalf("r%v: %d rows, covered %v, err %v; want %d covered rows", c.pattern, len(rows), covered, err, c.rows)
		}
		want := testing.AllocsPerRun(20, func() {
			rowSink = nil
			for i := 0; i < c.rows; i++ {
				rowSink = append(rowSink, make(tuple.Tuple, 3))
			}
		}) + 1
		got := testing.AllocsPerRun(20, func() {
			if _, _, err := eng.Query("r", c.pattern, c.mask); err != nil {
				t.Fatal(err)
			}
		})
		if got != want {
			t.Errorf("r%v, %d rows: %v allocations per query, want %v", c.pattern, c.rows, got, want)
		}
	}
}
