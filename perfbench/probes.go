package main

import (
	"fmt"
	"os"
	"path/filepath"

	"sti/internal/brie"
	"sti/internal/btree"
	"sti/internal/relation"
	"sti/internal/store"
	"sti/internal/tuple"
	"sti/internal/value"
)

// sample picks at most n of the hot relation's tuples, evenly spread over
// its index order, and returns them in a seeded shuffle: the engine derives
// tuples in join order, not in key order, so a sorted replay would flatter
// every insert path.
func sample(ts []tuple.Tuple, n int, seed int64) []tuple.Tuple {
	if len(ts) > n {
		picked := make([]tuple.Tuple, n)
		for i := range picked {
			picked[i] = ts[i*len(ts)/n]
		}
		ts = picked
	} else {
		ts = append([]tuple.Tuple(nil), ts...)
	}
	r := newRNG(seed, 6)
	for i := len(ts) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		ts[i], ts[j] = ts[j], ts[i]
	}
	return ts
}

// perOp times fn, which performs n operations, inside a span and returns
// nanoseconds per operation.
func (t *tracer) perOp(name string, n int, fn func()) float64 {
	return t.rec.in(name, fn) * 1e9 / float64(n)
}

// sink keeps probe results alive so the compiler cannot drop the probed
// calls.
var sink int

// treeProbe replays keys against a bare specialized B-tree: the layer under
// the adapter, as the specialized opcodes use it.
func treeProbe[K btree.Key[K]](t *tracer, keys []K, lo, hi func(K) K) (insert, contains, rng, scan float64) {
	tree := btree.New[K]()
	n := len(keys)
	insert = t.perOp("btree.insert", n, func() {
		for _, k := range keys {
			tree.Insert(k)
		}
	})
	contains = t.perOp("btree.contains", n, func() {
		for _, k := range keys {
			if tree.Contains(k) {
				sink++
			}
		}
	})
	// One range scan per key on its first column, drained: the shape of a
	// join's inner prefix search.
	rng = t.perOp("btree.range", n, func() {
		for _, k := range keys {
			it := tree.Range(lo(k), hi(k))
			for _, ok := it.Next(); ok; _, ok = it.Next() {
				sink++
			}
		}
	})
	scan = t.perOp("btree.scan", n, func() {
		it := tree.Iter()
		for _, ok := it.Next(); ok; _, ok = it.Next() {
			sink++
		}
	})
	return
}

const maxWord = ^value.Value(0)

// trees measures the three layers a relational operation crosses — concrete
// tree, de-specialized adapter, staging merge — on the workload's own hottest
// relation.
func (t *tracer) trees(ts []tuple.Tuple) error {
	n, arity := len(ts), len(ts[0])
	t.res.info("probe.tuples", float64(n), "count")

	var bIns, bHas, bRange, bScan float64
	switch arity {
	case 2:
		keys := make([]relation.Tup2, n)
		for i, tp := range ts {
			keys[i] = relation.ToTup2(tp)
		}
		bIns, bHas, bRange, bScan = treeProbe(t, keys,
			func(k relation.Tup2) relation.Tup2 { return relation.Tup2{k[0], 0} },
			func(k relation.Tup2) relation.Tup2 { return relation.Tup2{k[0], maxWord} })
	case 3:
		keys := make([]relation.Tup3, n)
		for i, tp := range ts {
			keys[i] = relation.ToTup3(tp)
		}
		bIns, bHas, bRange, bScan = treeProbe(t, keys,
			func(k relation.Tup3) relation.Tup3 { return relation.Tup3{k[0], 0, 0} },
			func(k relation.Tup3) relation.Tup3 { return relation.Tup3{k[0], maxWord, maxWord} })
	default:
		return fmt.Errorf("hot relation %s has arity %d; the tree probe covers 2 and 3", t.w.hot, arity)
	}
	t.metric("btree.insert_ns", bIns, "ns")
	t.metric("btree.contains_ns", bHas, "ns")
	t.metric("btree.range_ns", bRange, "ns")
	t.metric("btree.scan_ns_per_tuple", bScan, "ns")

	trie := brie.New(arity)
	t.metric("brie.insert_ns", t.perOp("brie.insert", n, func() {
		for _, tp := range ts {
			trie.Insert(tp)
		}
	}), "ns")
	t.metric("brie.contains_ns", t.perOp("brie.contains", n, func() {
		for _, tp := range ts {
			if trie.Contains(tp) {
				sink++
			}
		}
	}), "ns")
	t.metric("brie.scan_ns_per_tuple", t.perOp("brie.scan", n, func() {
		it := trie.Iter()
		for _, ok := it.Next(); ok; _, ok = it.Next() {
			sink++
		}
	}), "ns")

	// The same operations through the dynamic adapter (paper section 3).
	idx := relation.NewIndex(relation.BTree, tuple.Identity(arity))
	t.metric("relation.insert_ns", t.perOp("relation.insert", n, func() {
		for _, tp := range ts {
			idx.Insert(tp)
		}
	}), "ns")
	t.metric("relation.contains_ns", t.perOp("relation.contains", n, func() {
		for _, tp := range ts {
			if idx.Contains(tp) {
				sink++
			}
		}
	}), "ns")
	rScan := t.perOp("relation.scan", n, func() {
		it := idx.Scan()
		for _, ok := it.Next(); ok; _, ok = it.Next() {
			sink++
		}
	})
	t.metric("relation.scan_ns_per_tuple", rScan, "ns")
	t.metric("relation.scan_overhead_x", rScan/bScan, "x")

	// The scan-barrier merge of the parallel model: two workers' staging
	// buffers into a relation with a primary and a reversed secondary index.
	reversed := make(tuple.Order, arity)
	for i := range reversed {
		reversed[i] = arity - 1 - i
	}
	rel := relation.New("probe", relation.BTree, arity, []tuple.Order{tuple.Identity(arity), reversed})
	bufs := []*relation.StagingBuffer{relation.NewStagingBuffer(arity), relation.NewStagingBuffer(arity)}
	for i, tp := range ts {
		bufs[i%2].Add(tp)
	}
	mergeS := t.rec.in("relation.staging_merge", func() { sink += rel.InsertAll(bufs...) })
	t.metric("relation.insertall_ns_per_tuple", mergeS*1e9/float64(n), "ns")
	t.metric("relation.staging_merge_ms", mergeS*1e3, "ms")

	// How much of the fixpoint the tree layer explains: the profiled run's
	// scan iterations and insert attempts priced at the probes' unit costs.
	// An estimate from counts, not a measurement inside the program.
	if t.evalS > 0 {
		treeS := (float64(t.iters)*bScan + float64(t.attempts)*bIns) / 1e9
		t.metric("interp.tree_share", treeS/t.evalS, "share")
	}
	return nil
}

// probeTier hands store tables to relation.NewPersistent.
type probeTier struct {
	st  *store.Store
	err error
}

func (p *probeTier) Table(rel string, idx int, order tuple.Order) *store.Table {
	tab, err := p.st.Table(fmt.Sprintf("%s-%d", rel, idx), tuple.KeySize(len(order)))
	if err != nil {
		p.err = err
		return nil
	}
	return tab
}

func (p *probeTier) Gate(rel, reason string) {}

// segmentBytes adds the size of every segment file under dir that seen does
// not hold yet. Segment names are never reused, so the sum over all calls is
// the number of bytes the store has written.
func segmentBytes(dir string, seen map[string]int64) {
	filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() && filepath.Ext(path) == ".seg" {
			if fi.Size() > seen[path] {
				seen[path] = fi.Size()
			}
		}
		return nil
	})
}

// storage measures the durable tier bottom up on the hot relation's tuples:
// key codec, LSM table, WAL, snapshot file, and the persistent adapter.
func (t *tracer) storage(ts []tuple.Tuple) error {
	n, arity := len(ts), len(ts[0])
	keyLen := tuple.KeySize(arity)

	keys := make([][]byte, n)
	flat := make([]byte, 0, n*keyLen)
	t.metric("tuple.encode_ns", t.perOp("tuple.encode", n, func() {
		for i, tp := range ts {
			start := len(flat)
			flat = tuple.AppendKey(flat, tp)
			keys[i] = flat[start:len(flat):len(flat)]
		}
	}), "ns")
	scratch := make(tuple.Tuple, arity)
	t.metric("tuple.decode_ns", t.perOp("tuple.decode", n, func() {
		for _, k := range keys {
			tuple.DecodeKey(scratch, k)
			sink += int(scratch[0] & 1)
		}
	}), "ns")

	// A table that flushes sixteen times over the replay, so several
	// compactions run (the store compacts above four segments).
	dir := filepath.Join(t.work, "store")
	st, err := store.Open(dir, store.Options{FlushKeys: n + 1})
	if err != nil {
		return err
	}
	tab, err := st.Table("probe", keyLen)
	if err != nil {
		st.Close()
		return err
	}
	written := map[string]int64{}
	every := n/16 + 1
	var flushErr error
	t.metric("store.table_put_ns", t.perOp("store.table_put", n, func() {
		for i, k := range keys {
			tab.Insert(k)
			if (i+1)%every == 0 {
				segmentBytes(dir, written)
				if err := tab.Flush(); err != nil {
					flushErr = err
				}
			}
		}
	}), "ns")
	if flushErr != nil {
		st.Close()
		return flushErr
	}
	t.metric("store.table_get_ns", t.perOp("store.table_get", n, func() {
		for _, k := range keys {
			if tab.Contains(k) {
				sink++
			}
		}
	}), "ns")
	t.metric("store.table_scan_ns_per_key", t.perOp("store.table_scan", n, func() {
		c := tab.Range(nil, nil)
		for _, ok := c.Next(); ok; _, ok = c.Next() {
			sink++
		}
	}), "ns")
	segmentBytes(dir, written)
	if err := st.Close(); err != nil { // waits for the compactor
		return err
	}
	segmentBytes(dir, written)
	var bytesWritten int64
	for _, b := range written {
		bytesWritten += b
	}
	t.metric("store.compactions", float64(st.Stats().Compactions), "count")
	t.metric("store.write_amp", float64(bytesWritten)/float64(n*keyLen), "x")

	// WAL records the size of one scripted insert batch.
	walPath := filepath.Join(t.work, "probe.wal")
	wal, err := store.CreateWAL(walPath, false)
	if err != nil {
		return err
	}
	records := n / insertBatch
	if records == 0 {
		records = 1
	}
	var walErr error
	appendS := t.rec.in("store.wal_append", func() {
		for i := 0; i < records; i++ {
			lo := (i * insertBatch) % n
			hi := min(lo+insertBatch, n)
			if err := wal.Append(flat[lo*keyLen : hi*keyLen]); err != nil {
				walErr = err
			}
		}
	})
	if err := wal.Close(); err != nil {
		return err
	}
	if walErr != nil {
		return walErr
	}
	t.metric("store.wal_append_us", appendS*1e6/float64(records), "us")
	var replayed int
	replayS := t.rec.in("store.wal_replay", func() {
		replayed, err = store.ReplayWAL(walPath, func(p []byte) error { sink += len(p); return nil })
	})
	if err != nil {
		return err
	}
	if replayed != records {
		return fmt.Errorf("WAL replay delivered %d of %d records", replayed, records)
	}
	t.metric("store.wal_replay_ms", replayS*1e3, "ms")
	t.metric("store.snapshot_write_ms", t.rec.in("store.snapshot_write", func() {
		err = store.WriteSnapshot(filepath.Join(t.work, "probe.snap"), flat)
	})*1e3, "ms")
	if err != nil {
		return err
	}

	// The sixth adapter: the same Index contract over durable tables.
	pst, err := store.Open(filepath.Join(t.work, "persist"), store.Options{})
	if err != nil {
		return err
	}
	defer pst.Close()
	tier := &probeTier{st: pst}
	prel := relation.NewPersistent("probe", arity, nil, tier)
	if prel == nil {
		return fmt.Errorf("persistent relation: %v", tier.err)
	}
	t.metric("relation.persist_insert_ns", t.perOp("relation.persist_insert", n, func() {
		for _, tp := range ts {
			prel.Insert(tp)
		}
	}), "ns")
	t.metric("relation.persist_scan_ns_per_tuple", t.perOp("relation.persist_scan", n, func() {
		it := prel.Scan()
		for _, ok := it.Next(); ok; _, ok = it.Next() {
			sink++
		}
	}), "ns")
	return nil
}
