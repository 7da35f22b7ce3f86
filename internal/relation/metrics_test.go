package relation

import (
	"testing"

	"sti/internal/metrics"
	"sti/internal/tuple"
)

// hotPathAllocs measures the steady-state duplicate-insert and membership
// paths (the fixpoint hot loop) for one relation.
func hotPathAllocs(r *Relation) (insert, contains float64) {
	tup := tuple.Tuple{1, 2}
	r.Insert(tup)
	insert = testing.AllocsPerRun(200, func() { r.Insert(tup) })
	contains = testing.AllocsPerRun(200, func() { r.Contains(tup) })
	return insert, contains
}

// The duplicate-insert and membership paths allocate nothing, with telemetry
// off (the bare adapters) and on (the counting paths are plain increments and
// atomic adds on pre-allocated blocks).
func TestTelemetryHotPathAllocs(t *testing.T) {
	orders := []tuple.Order{{0, 1}, {1, 0}}
	baseIns, baseCon := hotPathAllocs(New("edge", BTree, 2, orders))

	c := metrics.New()
	r := New("edge", BTree, 2, orders)
	rs := c.BindRelation(0, "edge", "btree", 2, false, 0, []string{"[0 1]", "[1 0]"})
	r.AttachMetrics(rs)
	telIns, telCon := hotPathAllocs(r)

	for _, c := range []struct {
		name string
		got  float64
	}{{"Insert", baseIns}, {"Contains", baseCon}, {"Insert with telemetry", telIns}, {"Contains with telemetry", telCon}} {
		if c.got != 0 {
			t.Errorf("%s: %v allocations per op, want 0", c.name, c.got)
		}
	}
	if rs.DedupHits < 200 {
		t.Fatalf("dedup hits = %d, want >= 200", rs.DedupHits)
	}
}

// The adapter counters must see traffic on every index, and agree with the
// relation-level insert counters.
func TestAdapterCounters(t *testing.T) {
	c := metrics.New()
	r := New("edge", BTree, 2, []tuple.Order{{0, 1}, {1, 0}})
	rs := c.BindRelation(0, "edge", "btree", 2, false, 0, []string{"[0 1]", "[1 0]"})
	r.AttachMetrics(rs)
	if r.Stats() != rs {
		t.Fatal("Stats() does not return the bound block")
	}

	r.Insert(tuple.Tuple{1, 2})
	r.Insert(tuple.Tuple{2, 3})
	r.Insert(tuple.Tuple{1, 2}) // duplicate
	r.Contains(tuple.Tuple{1, 2})
	it := r.Index(0).Scan()
	for _, ok := it.Next(); ok; _, ok = it.Next() {
	}

	if rs.Inserts != 2 || rs.DedupHits != 1 {
		t.Fatalf("relation counters: ins=%d dup=%d, want 2 and 1", rs.Inserts, rs.DedupHits)
	}
	primary := rs.Ops[0].View()
	if primary.Inserts != 3 || primary.Fresh != 2 {
		t.Fatalf("primary index: %+v", primary)
	}
	if primary.Lookups == 0 {
		t.Fatalf("primary index saw no lookups: %+v", primary)
	}
	if primary.Scans != 1 {
		t.Fatalf("primary index scans = %d, want 1", primary.Scans)
	}
	// Secondary indexes receive every fresh tuple; a duplicate stops at
	// the primary.
	secondary := rs.Ops[1].View()
	if secondary.Inserts != 2 {
		t.Fatalf("secondary index inserts = %d, want 2", secondary.Inserts)
	}
}

// Counters work for every implementer, and the wrapper is transparent: the
// contract script passes through a countedIndex and every operation it calls
// is counted once. Under sharding the wrappers sit on the sub-indexes, so an
// operation routed by the shard key still counts once and one that fans out
// counts once per shard it reaches.
func TestAdapterCountersAllReps(t *testing.T) {
	for _, im := range implementers() {
		order, src := tuple.Identity(2), []tuple.Tuple{{5, 1}, {3, 2}, {4, 1}, {3, 9}, {5, 1}, {9, 3}, {3, 2}, {7, 7}}
		if im.name == "nullary" {
			order, src = tuple.Order{}, []tuple.Tuple{{}, {}}
		}
		t.Run(im.name, func(t *testing.T) {
			ops := &metrics.IndexOps{}
			want, nparts := coreScript(t, counted(im.mk(t, order), ops), order, src)
			got := ops.View()
			if got.Inserts != want.Inserts || got.Fresh != want.Fresh || got.Lookups != want.Lookups {
				t.Errorf("routed operations: counted %+v, script called %+v", got, want)
			}
			// A partition request answered with one partition is a full
			// scan and counts as one too.
			wantScans := want.Scans
			if nparts == 1 {
				wantScans++
			}
			n := uint64(1)
			if im.shards > 0 {
				// A sharded index partitions along its shards by itself:
				// no sub-index sees the request, each is scanned instead.
				n = uint64(im.shards)
				wantScans, want.Partitions = n*want.Scans+uint64(nparts), 0
			}
			if got.Scans != wantScans || got.Partitions != want.Partitions {
				t.Errorf("scans/partitions: counted %d/%d, want %d/%d", got.Scans, got.Partitions, wantScans, want.Partitions)
			}
			if got.RangeScans < want.RangeScans || got.RangeScans > n*want.RangeScans ||
				got.Probes < want.Probes || got.Probes > n*want.Probes {
				t.Errorf("searches: counted %+v, script called %+v on %d shards", got, want, n)
			}
		})
	}

	// The relation-level counters agree with the primary index's.
	for _, rep := range []Rep{BTree, Brie, EqRel, Legacy} {
		c := metrics.New()
		r := New("r", rep, 2, []tuple.Order{{0, 1}})
		rs := c.BindRelation(0, "r", rep.String(), 2, false, 0, []string{"[0 1]"})
		r.AttachMetrics(rs)
		r.Insert(tuple.Tuple{1, 2})
		r.Insert(tuple.Tuple{1, 2})
		ops := rs.Ops[0].View()
		if ops.Inserts != 2 || ops.Fresh != 1 {
			t.Errorf("%v: inserts=%d fresh=%d, want 2 and 1", rep, ops.Inserts, ops.Fresh)
		}
		if rs.Inserts != 1 || rs.DedupHits != 1 {
			t.Errorf("%v: relation ins=%d dup=%d, want 1 and 1", rep, rs.Inserts, rs.DedupHits)
		}
		if r.Deletable() != (rep != EqRel) {
			t.Errorf("%v: Deletable() = %v with telemetry attached", rep, r.Deletable())
		}
	}
}
