package relation

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sti/internal/btree"
	"sti/internal/eqrel"
	"sti/internal/metrics"
	"sti/internal/store"
	"sti/internal/tuple"
	"sti/internal/value"
)

func drain(it Iterator) []tuple.Tuple {
	var out []tuple.Tuple
	for {
		t, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, tuple.Clone(t))
	}
}

// reps to exercise uniformly in adapter contract tests.
var allReps = []Rep{BTree, Brie, Legacy}

// implementer builds one kind of Index for the contract tests, or nil when
// the kind cannot maintain the order (eqrel is binary and natural-ordered,
// nullary has no columns, everything else has at least one).
type implementer struct {
	name   string
	shards int // sub-indexes of a shardedIndex, 0 for everything else
	mk     func(t *testing.T, order tuple.Order) Index
}

// implementers lists everything that implements Index: the five reps,
// persist, and shardedIndex at 1 and 3 shards.
func implementers() []implementer {
	wide := func(mk func(*testing.T, tuple.Order) Index) func(*testing.T, tuple.Order) Index {
		return func(t *testing.T, order tuple.Order) Index {
			if len(order) == 0 {
				return nil
			}
			return mk(t, order)
		}
	}
	ofRep := func(rep Rep) func(*testing.T, tuple.Order) Index {
		return wide(func(_ *testing.T, order tuple.Order) Index { return NewIndex(rep, order) })
	}
	sharded := func(n int) func(*testing.T, tuple.Order) Index {
		return wide(func(_ *testing.T, order tuple.Order) Index { return newShardedIndex(BTree, order, n, 0) })
	}
	return []implementer{
		{"btree", 0, ofRep(BTree)},
		{"brie", 0, ofRep(Brie)},
		{"legacy", 0, ofRep(Legacy)},
		{"eqrel", 0, func(_ *testing.T, order tuple.Order) Index {
			if len(order) != 2 || !order.IsIdentity() {
				return nil
			}
			return NewIndex(EqRel, order)
		}},
		{"nullary", 0, func(_ *testing.T, order tuple.Order) Index {
			if len(order) != 0 {
				return nil
			}
			return NewIndex(BTree, order)
		}},
		{"persist", 0, wide(func(t *testing.T, order tuple.Order) Index {
			tier := newTestTier(t, store.Options{FlushKeys: 64, MaxSegments: 2})
			return NewPersistent("r", len(order), []tuple.Order{order}, tier).Primary()
		})},
		{"sharded1", 1, sharded(1)},
		{"sharded3", 3, sharded(3)},
	}
}

// refKey is an encoded tuple flattened into a fixed-size array so it can key
// a map. Slots past the arity stay zero.
type refKey [MaxArity]value.Value

// refSet is the map-backed reference of the contract script: a set of
// encoded tuples. With eq set it is closed under equivalence after every
// insert, which is what an eqrel index stores.
type refSet struct {
	set map[refKey]bool
	eq  bool
}

func refKeyOf(enc tuple.Tuple) refKey {
	var k refKey
	copy(k[:], enc)
	return k
}

func (r *refSet) insert(enc tuple.Tuple) bool {
	before := len(r.set)
	k := refKeyOf(enc)
	r.set[k] = true
	for grew := r.eq; grew; {
		grew = false
		add := func(a, b value.Value) {
			if k := (refKey{a, b}); !r.set[k] {
				r.set[k], grew = true, true
			}
		}
		for p := range r.set {
			add(p[1], p[0])
			add(p[0], p[0])
			for q := range r.set {
				if p[1] == q[0] {
					add(p[0], q[1])
				}
			}
		}
	}
	return len(r.set) > before
}

// prefix lists, in encoded order, the members matching pattern[:k].
func (r *refSet) prefix(pattern tuple.Tuple, k, arity int) []tuple.Tuple {
	var out []tuple.Tuple
	for m := range r.set {
		if tuple.Compare(m[:k], pattern[:k]) == 0 {
			out = append(out, tuple.Clone(m[:arity]))
		}
	}
	sortTuples(out)
	return out
}

// peer returns a second, empty index of im's kind for coreScript's swap
// step, or nil for persist, whose indexes never swap.
func (im implementer) peer(t *testing.T, order tuple.Order) Index {
	if im.name == "persist" {
		return nil
	}
	return im.mk(t, order)
}

// coreScript drives idx through the whole Index core and, through the
// package-level helpers, the bulk-insert and partition capabilities or their
// fallbacks, checking every observable against a refSet. The first half of
// src goes in by Insert, the second by one bulk InsertAll. Then src goes
// into peer, an empty index of the same kind and order (nil skips this), and
// the two swap contents, so that idx holds what peer stored. Every tuple
// re-inserts into idx as a duplicate, a caller's tuple mutated after its
// insert leaves idx as it was, and a Deleter deletes every tuple exactly
// once. It returns how often it called each kind of operation on idx and how
// many partitions its one partition request got, for the counter tests.
func coreScript(t *testing.T, idx, peer Index, order tuple.Order, src []tuple.Tuple) (calls metrics.IndexOpsView, nparts int) {
	t.Helper()
	arity := len(order)
	_, eq := idx.impl().(*eqrel.Rel)
	ref := &refSet{set: map[refKey]bool{}, eq: eq}

	// insert inserts s into idx and the reference, reporting whether it
	// was fresh.
	insert := func(s tuple.Tuple) bool {
		calls.Inserts++
		want := ref.insert(order.Encoded(s))
		if want {
			calls.Fresh++
		}
		if got := idx.Insert(s); got != want {
			t.Fatalf("Insert(%v) = %v, reference says %v", s, got, want)
		}
		return want
	}
	half := len(src) / 2
	for _, s := range src[:half] {
		insert(s)
	}
	var flat []value.Value
	fresh := 0
	for _, s := range src[half:] {
		flat = append(flat, s...)
		if ref.insert(order.Encoded(s)) {
			fresh++
		}
	}
	calls.Inserts += uint64(len(src) - half)
	calls.Fresh += uint64(fresh)
	if got := bulkInserterOf(idx).InsertAll(flat, len(src)-half); got != fresh {
		t.Fatalf("InsertAll added %d, reference says %d", got, fresh)
	}

	all := ref.prefix(nil, 0, arity)
	if idx.Size() != len(all) {
		t.Fatalf("Size = %d, reference has %d", idx.Size(), len(all))
	}
	calls.Scans++
	if got := drain(idx.Scan()); !tuplesEq(got, all) {
		t.Fatalf("Scan = %v, want %v", got, all)
	}
	// A partitioned scan enumerates the same tuples once each; only their
	// order across partitions is the store's business.
	calls.Partitions++
	var parts []tuple.Tuple
	for _, it := range PartitionerOf(idx).PartitionScan(4) {
		nparts++
		parts = append(parts, drain(it)...)
	}
	sortTuples(parts)
	if !tuplesEq(parts, all) {
		t.Fatalf("PartitionScan enumerated %v, want %v", parts, all)
	}

	probes := append([]tuple.Tuple{}, src[:min(len(src), 4)]...)
	absent := make(tuple.Tuple, arity)
	for i := range absent {
		absent[i] = 1000
	}
	probes = append(probes, absent)
	for _, s := range probes {
		enc := order.Encoded(s)
		want := len(ref.prefix(enc, arity, arity)) > 0
		calls.Lookups += 2
		if idx.Contains(s) != want || idx.ContainsEncoded(enc) != want {
			t.Fatalf("Contains(%v)/ContainsEncoded(%v) disagree with reference %v", s, enc, want)
		}
		for k := 0; k <= arity; k++ {
			want := ref.prefix(enc, k, arity)
			calls.RangeScans++
			if got := drain(idx.PrefixScan(enc, k)); !tuplesEq(got, want) {
				t.Fatalf("PrefixScan(%v, %d) = %v, want %v", enc, k, got, want)
			}
			calls.Probes++
			if idx.AnyMatch(enc, k) != (len(want) > 0) {
				t.Fatalf("AnyMatch(%v, %d) disagrees with reference", enc, k)
			}
		}
	}
	// Encoded tuples decode back to source tuples the index contains.
	calls.Scans++
	for _, s := range drain(NewDecoder(idx.Scan(), order)) {
		calls.Lookups++
		if !idx.Contains(s) {
			t.Fatalf("decoded scan yielded %v, which Contains denies", s)
		}
	}

	if peer != nil {
		for _, s := range src {
			peer.Insert(s)
		}
		idx.SwapContents(peer)
		if idx.Size() != len(all) || peer.Size() != len(all) {
			t.Fatalf("SwapContents of equal contents: sizes %d and %d, want %d", idx.Size(), peer.Size(), len(all))
		}
	}
	for _, s := range src {
		calls.Inserts++
		if idx.Insert(s) {
			t.Fatalf("re-insert of %v reported a fresh tuple", s)
		}
	}
	buf := tuple.Clone(absent)
	insert(buf)
	for i := range buf {
		buf[i] = 2000
	}
	all = ref.prefix(nil, 0, arity)
	calls.Lookups += 2
	calls.Scans++
	if !idx.Contains(absent) || idx.Contains(buf) != (arity == 0) || idx.Size() != len(all) || !tuplesEq(drain(idx.Scan()), all) {
		t.Fatalf("mutating the caller's tuple after its insert changed the index")
	}

	if d, ok := idx.(Deleter); ok {
		// In src's order, which for a shuffled src removes keys all over
		// the tree; halfway the survivors still scan in encoded order.
		for i, s := range append(src[:len(src):len(src)], absent) {
			k := refKeyOf(order.Encoded(s))
			want := ref.set[k]
			delete(ref.set, k)
			if want {
				calls.Deletes++
			}
			if got := d.Delete(s); got != want {
				t.Fatalf("Delete(%v) = %v, reference says %v", s, got, want)
			}
			if i == len(src)/2 {
				calls.Scans++
				if got, want := drain(idx.Scan()), ref.prefix(nil, 0, arity); !tuplesEq(got, want) {
					t.Fatalf("Scan after deletes = %v, want %v", got, want)
				}
			}
		}
		if idx.Size() != 0 {
			t.Fatalf("Size = %d after every tuple was deleted", idx.Size())
		}
		for _, s := range src[:half] {
			insert(s)
		}
	}

	idx.Clear()
	calls.Probes++
	if idx.Size() != 0 || idx.AnyMatch(absent, 0) {
		t.Fatal("Clear left tuples behind")
	}
	return calls, nparts
}

func TestFactoryArities(t *testing.T) {
	for _, rep := range allReps {
		for arity := 1; arity <= MaxArity; arity++ {
			idx := NewIndex(rep, tuple.Identity(arity))
			if len(idx.Order()) != arity {
				t.Fatalf("%v arity %d: got %d", rep, arity, len(idx.Order()))
			}
			tup := make(tuple.Tuple, arity)
			for i := range tup {
				tup[i] = value.Value(i + 1)
			}
			if !idx.Insert(tup) || idx.Insert(tup) {
				t.Fatalf("%v arity %d: insert newness wrong", rep, arity)
			}
			if !idx.Contains(tup) {
				t.Fatalf("%v arity %d: contains failed", rep, arity)
			}
			if idx.Size() != 1 {
				t.Fatalf("%v arity %d: size %d", rep, arity, idx.Size())
			}
		}
	}
}

func TestFactoryArityOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arity 17 did not panic")
		}
	}()
	NewIndex(BTree, tuple.Identity(MaxArity+1))
}

func TestNullary(t *testing.T) {
	idx := NewIndex(BTree, tuple.Order{})
	if len(idx.Order()) != 0 || idx.Size() != 0 {
		t.Fatal("bad empty nullary index")
	}
	if idx.Contains(tuple.Tuple{}) {
		t.Fatal("empty nullary contains")
	}
	if !idx.Insert(tuple.Tuple{}) || idx.Insert(tuple.Tuple{}) {
		t.Fatal("nullary insert newness wrong")
	}
	got := drain(idx.Scan())
	if len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("nullary scan: %v", got)
	}
	idx.Clear()
	if idx.Size() != 0 {
		t.Fatal("nullary clear failed")
	}
}

// TestEncodedOrderContract: every implementer keeps the core contract — Scan
// yields tuples in encoded lexicographic order, and encoded tuples decode back
// to the inserted source tuples — for a reversed order, the natural order
// (which admits eqrel) and the empty order (nullary). The 20x5 grid under the
// reversed order spans several tree nodes, and its prefix searches bind
// source column 1 only.
func TestEncodedOrderContract(t *testing.T) {
	var grid []tuple.Tuple
	for a := value.Value(0); a < 20; a++ {
		for b := value.Value(0); b < 5; b++ {
			grid = append(grid, tuple.Tuple{a, b})
		}
	}
	for _, tc := range []struct {
		order tuple.Order
		src   []tuple.Tuple
	}{
		{tuple.Order{1, 0}, []tuple.Tuple{{5, 1}, {3, 2}, {4, 1}, {3, 9}, {5, 1}, {9, 3}}},
		{tuple.Order{1, 0}, grid},
		{tuple.Identity(2), []tuple.Tuple{{5, 1}, {3, 2}, {4, 1}, {3, 9}, {5, 1}, {9, 3}}},
		{tuple.Order{}, []tuple.Tuple{{}, {}}},
	} {
		for _, im := range implementers() {
			idx := im.mk(t, tc.order)
			if idx == nil {
				continue
			}
			t.Run(fmt.Sprintf("%s%v", im.name, tc.order), func(t *testing.T) {
				coreScript(t, idx, im.peer(t, tc.order), tc.order, tc.src)
			})
		}
	}
}

func sortTuples(ts []tuple.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return tuple.Compare(ts[i], ts[j]) < 0 })
}

// TestPrefixScanAllReps: prefix scans return exactly the matching tuples,
// in encoded order, for every implementer and a non-trivial order, at a size
// that crosses iterator buffers, tree nodes and persist segments.
func TestPrefixScanAllReps(t *testing.T) {
	order := tuple.Order{2, 0, 1}
	rng := rand.New(rand.NewSource(21))
	var src []tuple.Tuple
	for i := 0; i < 800; i++ {
		src = append(src, tuple.Tuple{
			value.Value(rng.Intn(8)), value.Value(rng.Intn(8)), value.Value(rng.Intn(8)),
		})
	}
	for _, im := range implementers() {
		idx := im.mk(t, order)
		if idx == nil {
			continue
		}
		t.Run(im.name, func(t *testing.T) { coreScript(t, idx, im.peer(t, order), order, src) })
	}
}

func TestEqrelAdapter(t *testing.T) {
	idx := NewIndex(EqRel, tuple.Identity(2))
	idx.Insert(tuple.Tuple{1, 2})
	idx.Insert(tuple.Tuple{2, 3})
	if idx.Size() != 9 {
		t.Fatalf("eqrel size = %d, want 9", idx.Size())
	}
	if !idx.Contains(tuple.Tuple{3, 1}) {
		t.Fatal("transitive pair missing")
	}
	got := drain(idx.PrefixScan(tuple.Tuple{2, 0}, 1))
	if len(got) != 3 {
		t.Fatalf("prefix scan: %d pairs, want 3", len(got))
	}
	got = drain(idx.PrefixScan(tuple.Tuple{1, 3}, 2))
	if len(got) != 1 {
		t.Fatalf("full prefix: %v", got)
	}
	got = drain(idx.PrefixScan(tuple.Tuple{1, 7}, 2))
	if len(got) != 0 {
		t.Fatalf("absent full prefix: %v", got)
	}
}

func TestBufferedIteratorLargeScan(t *testing.T) {
	// More tuples than one buffer so refills are exercised.
	idx := NewIndex(BTree, tuple.Identity(2))
	const n = BufferSize*3 + 17
	for i := 0; i < n; i++ {
		idx.Insert(tuple.Tuple{value.Value(i), value.Value(i * 2)})
	}
	got := drain(idx.Scan())
	if len(got) != n {
		t.Fatalf("scanned %d tuples, want %d", len(got), n)
	}
	for i, tp := range got {
		if tp[0] != value.Value(i) || tp[1] != value.Value(i*2) {
			t.Fatalf("tuple %d = %v", i, tp)
		}
	}
}

// TestBufferedStability: a tuple yielded by a buffered scan stays intact
// while an inner iterator advances (the nested-loop usage pattern).
func TestBufferedStability(t *testing.T) {
	outer := NewIndex(BTree, tuple.Identity(1))
	inner := NewIndex(BTree, tuple.Identity(1))
	for i := 0; i < 10; i++ {
		outer.Insert(tuple.Tuple{value.Value(i)})
		inner.Insert(tuple.Tuple{value.Value(100 + i)})
	}
	oit := outer.Scan()
	for {
		ot, ok := oit.Next()
		if !ok {
			break
		}
		want := ot[0]
		iit := inner.Scan()
		for {
			if _, ok := iit.Next(); !ok {
				break
			}
			if ot[0] != want {
				t.Fatal("outer tuple mutated during inner scan")
			}
		}
	}
}

func TestRelationMultiIndex(t *testing.T) {
	orders := []tuple.Order{{0, 1}, {1, 0}}
	r := New("edge", BTree, 2, orders)
	if r.NumIndexes() != 2 {
		t.Fatalf("NumIndexes = %d", r.NumIndexes())
	}
	r.Insert(tuple.Tuple{1, 2})
	r.Insert(tuple.Tuple{3, 2})
	if r.Size() != 2 || !r.Contains(tuple.Tuple{3, 2}) {
		t.Fatal("relation basic ops failed")
	}
	if r.Index(1).Size() != 2 {
		t.Fatal("secondary index not populated")
	}
	// Secondary index answers a prefix query on source column 1.
	got := drain(r.Index(1).PrefixScan(tuple.Tuple{2, 0}, 1))
	if len(got) != 2 {
		t.Fatalf("secondary prefix scan: %v", got)
	}
}

func TestRelationSwapAndClear(t *testing.T) {
	mk := func() *Relation {
		return New("r", BTree, 2, []tuple.Order{{0, 1}, {1, 0}})
	}
	a, b := mk(), mk()
	a.Insert(tuple.Tuple{1, 1})
	b.Insert(tuple.Tuple{2, 2})
	b.Insert(tuple.Tuple{3, 3})
	a.SwapContents(b)
	if a.Size() != 2 || b.Size() != 1 {
		t.Fatalf("swap sizes: %d %d", a.Size(), b.Size())
	}
	if !a.Contains(tuple.Tuple{2, 2}) || !b.Contains(tuple.Tuple{1, 1}) {
		t.Fatal("swap contents wrong")
	}
	a.Clear()
	if !a.Empty() || a.Index(1).Size() != 0 {
		t.Fatal("clear missed an index")
	}
}

func TestSwapMismatchPanics(t *testing.T) {
	a := NewIndex(BTree, tuple.Identity(2))
	b := NewIndex(Brie, tuple.Identity(2))
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched swap did not panic")
		}
	}()
	a.SwapContents(b)
}

func TestRelationScanDecodes(t *testing.T) {
	// Primary order is non-natural; Relation.Scan must yield source order.
	r := New("r", BTree, 2, []tuple.Order{{1, 0}})
	r.Insert(tuple.Tuple{7, 1})
	got := drain(r.Scan())
	if len(got) != 1 || got[0][0] != 7 || got[0][1] != 1 {
		t.Fatalf("decoded scan = %v", got)
	}
}

func TestContainsEncoded(t *testing.T) {
	order := tuple.Order{1, 0}
	for _, rep := range allReps {
		idx := NewIndex(rep, order)
		idx.Insert(tuple.Tuple{7, 3}) // encoded as (3,7)
		if !idx.ContainsEncoded(tuple.Tuple{3, 7}) {
			t.Errorf("%v: ContainsEncoded missed", rep)
		}
		if idx.ContainsEncoded(tuple.Tuple{7, 3}) {
			t.Errorf("%v: ContainsEncoded matched source order", rep)
		}
	}
}

// The static path reaches the concrete tree, also through the telemetry
// wrapper: counting never stands between a specialized opcode and its store.
func TestImplExposesConcreteTree(t *testing.T) {
	idx := NewIndex(BTree, tuple.Identity(3))
	tree, ok := Impl(idx).(*btree.Tree[Tup3])
	if !ok {
		t.Fatalf("Impl returned %T", Impl(idx))
	}
	if got := Impl(counted(idx, &metrics.IndexOps{})); got != any(tree) {
		t.Fatalf("Impl through countedIndex returned %T, want the wrapped tree", got)
	}
	stores, keyEnc := Impls(counted(newShardedIndex(BTree, tuple.Identity(3), 2, 0), &metrics.IndexOps{}))
	if len(stores) != 2 || keyEnc != 0 {
		t.Fatalf("Impls of a counted sharded index: %d stores, key %d", len(stores), keyEnc)
	}
	for _, st := range stores {
		if _, ok := st.(*btree.Tree[Tup3]); !ok {
			t.Fatalf("shard store is %T", st)
		}
	}
}

func TestRepString(t *testing.T) {
	for rep, want := range map[Rep]string{BTree: "btree", Brie: "brie", EqRel: "eqrel", Legacy: "legacy"} {
		if rep.String() != want {
			t.Errorf("%d.String() = %q", rep, rep.String())
		}
	}
}

func BenchmarkInsertBTreeAdapter(b *testing.B) {
	for _, arity := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("arity%d", arity), func(b *testing.B) {
			idx := NewIndex(BTree, tuple.Identity(arity))
			tup := make(tuple.Tuple, arity)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tup[0] = value.Value(i)
				tup[arity-1] = value.Value(i >> 8)
				idx.Insert(tup)
			}
		})
	}
}

// TestIndexDeleteContract exercises the Delete seam of every representation:
// hits and misses, size accounting, and iteration after retraction, which
// under the reversed order still yields the survivors in encoded order.
func TestIndexDeleteContract(t *testing.T) {
	for _, order := range []tuple.Order{{0, 1}, {1, 0}} {
		for _, rep := range allReps {
			idx := NewIndex(rep, order).(interface {
				Index
				Deleter
			})
			rng := rand.New(rand.NewSource(7))
			model := map[[2]value.Value]bool{}
			for step := 0; step < 5000; step++ {
				k := [2]value.Value{value.Value(rng.Intn(100)), value.Value(rng.Intn(100))}
				tup := tuple.Tuple{k[0], k[1]}
				if rng.Intn(3) == 0 {
					if idx.Delete(tup) != model[k] {
						t.Fatalf("%v%v step %d: Delete(%v) disagrees with model", rep, order, step, tup)
					}
					delete(model, k)
				} else {
					if idx.Insert(tup) == model[k] {
						t.Fatalf("%v%v step %d: Insert(%v) newness disagrees with model", rep, order, step, tup)
					}
					model[k] = true
				}
			}
			if idx.Size() != len(model) {
				t.Fatalf("%v%v: size %d, model %d", rep, order, idx.Size(), len(model))
			}
			got := drain(NewDecoder(idx.Scan(), order))
			if len(got) != len(model) {
				t.Fatalf("%v%v: scan yielded %d tuples, model has %d", rep, order, len(got), len(model))
			}
			for i, tup := range got {
				if !model[[2]value.Value{tup[0], tup[1]}] {
					t.Fatalf("%v%v: scan yielded deleted tuple %v", rep, order, tup)
				}
				if i > 0 && tuple.Compare(order.Encoded(got[i-1]), order.Encoded(tup)) >= 0 {
					t.Fatalf("%v%v: scan out of order: %v then %v", rep, order, got[i-1], tup)
				}
			}
		}
	}
}

func TestNullaryDelete(t *testing.T) {
	idx := NewIndex(BTree, tuple.Identity(0)).(interface {
		Index
		Deleter
	})
	if idx.Delete(tuple.Tuple{}) {
		t.Fatal("delete from empty nullary reported a hit")
	}
	idx.Insert(tuple.Tuple{})
	if !idx.Delete(tuple.Tuple{}) || idx.Size() != 0 {
		t.Fatal("nullary delete failed")
	}
	if idx.Delete(tuple.Tuple{}) {
		t.Fatal("second nullary delete reported a hit")
	}
}

// TestRelationDelete checks that Relation.Delete removes a tuple from every
// index and reports whether the primary held it.
func TestRelationDelete(t *testing.T) {
	r := New("t", BTree, 2, []tuple.Order{tuple.Identity(2), {1, 0}})
	ab := tuple.Tuple{1, 2}
	r.Insert(ab)
	if !r.Delete(ab) {
		t.Fatal("Delete missed a present tuple")
	}
	if r.Contains(ab) || r.Index(1).Contains(tuple.Tuple{2, 1}) {
		t.Fatal("Delete left the tuple in an index")
	}
	if r.Delete(ab) {
		t.Fatal("second Delete reported a hit")
	}
}

// An index added after the relation is built starts with the primary's
// contents and then follows every mutation.
func TestRelationAddIndex(t *testing.T) {
	for _, rep := range []Rep{BTree, Brie, Legacy} {
		t.Run(rep.String(), func(t *testing.T) {
			r := New("r", rep, 3, []tuple.Order{{0, 1, 2}})
			for i := 0; i < 300; i++ {
				r.Insert(tuple.Tuple{value.Value(i % 7), value.Value(i % 5), value.Value(i)})
			}
			idx := r.AddIndex(tuple.Order{2, 0, 1})
			if r.NumIndexes() != 2 || r.Index(1) != idx || idx.Size() != 300 {
				t.Fatalf("added index: %d indexes, size %d", r.NumIndexes(), idx.Size())
			}
			r.Insert(tuple.Tuple{9, 9, 1000})
			buf := NewStagingBuffer(3)
			buf.Add(tuple.Tuple{8, 8, 1001})
			r.InsertAll(buf)
			r.Delete(tuple.Tuple{0, 0, 0})
			if got := drain(idx.PrefixScan(tuple.Tuple{1001, 0, 0}, 1)); len(got) != 1 {
				t.Fatalf("bulk insert missed the added index: %v", got)
			}
			if idx.Size() != 301 || !idx.Contains(tuple.Tuple{9, 9, 1000}) || idx.Contains(tuple.Tuple{0, 0, 0}) {
				t.Fatalf("added index out of step: size %d", idx.Size())
			}
			r.Clear()
			if idx.Size() != 0 {
				t.Fatal("Clear missed the added index")
			}
		})
	}
	for _, r := range []*Relation{
		New("e", EqRel, 2, nil),
		NewSharded("s", BTree, 2, nil, 2, 0),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AddIndex on a %v relation did not panic", r.Name, r.Rep())
				}
			}()
			r.AddIndex(tuple.Order{1, 0})
		}()
	}
}

// InsertFrom and DeleteFrom move every tuple of the source, in source order,
// whatever the source's primary order and store: the B-tree walk and the
// buffered fallback of the other stores alike. Walk on a prefix yields the
// prefix search's tuples decoded, and stops when the visitor says so.
func TestInsertFromDeleteFrom(t *testing.T) {
	orders := []tuple.Order{{2, 0, 1}, {0, 1, 2}}
	for _, rep := range []Rep{BTree, Brie, Legacy} {
		t.Run(rep.String(), func(t *testing.T) {
			src := New("src", rep, 3, orders)
			dst := New("dst", BTree, 3, []tuple.Order{{1, 2, 0}})
			for i := 0; i < 500; i++ {
				src.Insert(tuple.Tuple{value.Value(i % 7), value.Value(i % 11), value.Value(i)})
			}
			dst.InsertFrom(src)
			if got, want := drain(dst.Scan()), drain(src.Scan()); !sameSet(got, want) {
				t.Fatalf("InsertFrom: dst holds %d tuples, src %d", len(got), len(want))
			}
			dst.Insert(tuple.Tuple{100, 100, 100})
			dst.DeleteFrom(src)
			if got := drain(dst.Scan()); len(got) != 1 || !tuple.Equal(got[0], tuple.Tuple{100, 100, 100}) {
				t.Fatalf("DeleteFrom left %v", got)
			}

			// src's primary leads with column 2: a prefix of 2 encoded
			// elements binds columns 2 and 0.
			var rows walkRows
			Walk(src.Primary(), tuple.Tuple{14, 0, 0}, 2, &rows)
			if len(rows.ts) != 1 || !tuple.Equal(rows.ts[0], tuple.Tuple{0, 3, 14}) {
				t.Fatalf("Walk on a prefix: %v", rows.ts)
			}
			stop := walkRows{limit: 3}
			Walk(src.Primary(), nil, 0, &stop)
			if len(stop.ts) != 3 {
				t.Fatalf("Walk ran on after its visitor stopped it: %d tuples", len(stop.ts))
			}
		})
	}
}

// walkRows is a Visitor keeping a copy of every tuple, up to limit when set.
type walkRows struct {
	ts    []tuple.Tuple
	slot  [MaxArity]value.Value
	limit int
}

func (c *walkRows) Slot() tuple.Tuple { return c.slot[:3] }
func (c *walkRows) Visit(t tuple.Tuple) bool {
	c.ts = append(c.ts, tuple.Clone(t))
	return c.limit == 0 || len(c.ts) < c.limit
}

func sameSet(a, b []tuple.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	in := map[string]bool{}
	for _, t := range a {
		in[fmt.Sprint(t)] = true
	}
	for _, t := range b {
		if !in[fmt.Sprint(t)] {
			return false
		}
	}
	return true
}
