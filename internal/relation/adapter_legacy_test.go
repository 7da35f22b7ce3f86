package relation

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"sti/internal/tuple"
	"sti/internal/value"
)

// sourceScan drains a legacy scan and decodes each tuple back to source
// order.
func sourceScan(a *legacyAdapter, it Iterator) []tuple.Tuple {
	var out []tuple.Tuple
	for _, enc := range drain(it) {
		src := make(tuple.Tuple, len(a.order))
		a.order.Decode(src, enc)
		out = append(out, src)
	}
	return out
}

// checkAscending fails unless the encoded tuples ascend strictly: a legacy
// scan's output order is its index order.
func checkAscending(t *testing.T, enc []tuple.Tuple) {
	t.Helper()
	for i := 1; i < len(enc); i++ {
		if tuple.Compare(enc[i-1], enc[i]) >= 0 {
			t.Fatalf("scan out of order at %d: %v then %v", i, enc[i-1], enc[i])
		}
	}
}

func TestLegacyKeyCmp(t *testing.T) {
	a := newLegacyAdapter(tuple.Order{1, 0})
	cmp := func(x, y tuple.Tuple) int { return a.key(x).Cmp(a.key(y)) }
	// Compares element 1 first.
	if cmp(tuple.Tuple{9, 1}, tuple.Tuple{0, 2}) != -1 {
		t.Error("key comparator ignored the order")
	}
	if cmp(tuple.Tuple{1, 5}, tuple.Tuple{2, 5}) != -1 {
		t.Error("tie-break on second order position failed")
	}
	if cmp(tuple.Tuple{1, 5}, tuple.Tuple{1, 5}) != 0 {
		t.Error("equal tuples not equal")
	}
	// Words compare unsigned, whole: a high byte outweighs every lower one.
	if cmp(tuple.Tuple{0, 1 << 24}, tuple.Tuple{0, 0xffffff}) != 1 {
		t.Error("word comparison is not by value")
	}
}

func TestLegacyInsertContainsIterate(t *testing.T) {
	a := newLegacyAdapter(tuple.Order{1, 0})
	rng := rand.New(rand.NewSource(11))
	model := map[[2]value.Value]bool{}
	for i := 0; i < 3000; i++ {
		k := [2]value.Value{value.Value(rng.Intn(50)), value.Value(rng.Intn(50))}
		if a.Insert(k[:]) == model[k] {
			t.Fatalf("newness mismatch for %v", k)
		}
		model[k] = true
	}
	if a.Size() != len(model) {
		t.Fatalf("size=%d model=%d", a.Size(), len(model))
	}
	for k := range model {
		if !a.Contains(k[:]) {
			t.Fatalf("%v missing", k)
		}
	}
	if a.Contains(tuple.Tuple{50, 0}) {
		t.Fatal("absent tuple reported present")
	}
	enc := drain(a.Scan())
	if len(enc) != len(model) {
		t.Fatalf("enumerated %d", len(enc))
	}
	// Sorted under the runtime order: by element 1, then element 0.
	checkAscending(t, enc)
}

func TestLegacyInsertCopies(t *testing.T) {
	a := newLegacyAdapter(tuple.Identity(2))
	buf := tuple.Tuple{1, 2}
	a.Insert(buf)
	buf[0] = 99
	if !a.Contains(tuple.Tuple{1, 2}) {
		t.Fatal("index aliased the caller's buffer")
	}
	if a.Contains(tuple.Tuple{99, 2}) {
		t.Fatal("mutation leaked into the index")
	}
}

func TestLegacyClearSwap(t *testing.T) {
	a, b := newLegacyAdapter(tuple.Identity(1)), newLegacyAdapter(tuple.Identity(1))
	a.Insert(tuple.Tuple{1})
	b.Insert(tuple.Tuple{2})
	b.Insert(tuple.Tuple{3})
	a.SwapContents(b)
	if a.Size() != 2 || b.Size() != 1 {
		t.Fatalf("swap sizes: %d %d", a.Size(), b.Size())
	}
	// The swapped keys carry the other adapter's order bytes; they must
	// still be found, and found as duplicates.
	if !a.Contains(tuple.Tuple{2}) || a.Insert(tuple.Tuple{3}) || b.Insert(tuple.Tuple{1}) {
		t.Fatal("swapped contents not recognised")
	}
	a.Clear()
	if a.Size() != 0 || a.Contains(tuple.Tuple{2}) {
		t.Fatal("clear failed")
	}
}

func TestLegacyAgainstSortReference(t *testing.T) {
	order := tuple.Order{2, 0, 1}
	a := newLegacyAdapter(order)
	rng := rand.New(rand.NewSource(5))
	var all []tuple.Tuple
	seen := map[[3]value.Value]bool{}
	for i := 0; i < 1000; i++ {
		k := [3]value.Value{value.Value(rng.Intn(9)), value.Value(rng.Intn(9)), value.Value(rng.Intn(9))}
		a.Insert(k[:])
		if !seen[k] {
			seen[k] = true
			all = append(all, tuple.Clone(k[:]))
		}
	}
	sort.Slice(all, func(i, j int) bool { return a.key(all[i]).Cmp(a.key(all[j])) < 0 })
	got := sourceScan(a, a.Scan())
	if len(got) != len(all) {
		t.Fatalf("%d vs %d", len(got), len(all))
	}
	for i := range all {
		if tuple.Compare(got[i], all[i]) != 0 {
			t.Fatalf("position %d: got %v want %v", i, got[i], all[i])
		}
	}
}

func TestLegacyRemoveBasics(t *testing.T) {
	a := newLegacyAdapter(tuple.Order{0, 1})
	if a.Delete(tuple.Tuple{1, 2}) {
		t.Fatal("delete from empty index reported a hit")
	}
	a.Insert(tuple.Tuple{1, 2})
	a.Insert(tuple.Tuple{3, 4})
	if a.Delete(tuple.Tuple{1, 9}) {
		t.Fatal("delete of absent tuple reported a hit")
	}
	if !a.Delete(tuple.Tuple{1, 2}) || a.Size() != 1 {
		t.Fatalf("delete of present tuple failed (size=%d)", a.Size())
	}
	if a.Contains(tuple.Tuple{1, 2}) || !a.Contains(tuple.Tuple{3, 4}) {
		t.Fatal("membership wrong after delete")
	}
	if !a.Delete(tuple.Tuple{3, 4}) || a.Size() != 0 {
		t.Fatal("index not empty after deleting everything")
	}
	if !a.Insert(tuple.Tuple{5, 6}) {
		t.Fatal("insert after emptying failed")
	}
}

// TestLegacyRemoveRespectsOrder deletes under a non-identity order and checks
// the survivors still enumerate in index order (element 1 first).
func TestLegacyRemoveRespectsOrder(t *testing.T) {
	a := newLegacyAdapter(tuple.Order{1, 0})
	rng := rand.New(rand.NewSource(17))
	model := map[[2]value.Value]bool{}
	for step := 0; step < 20000; step++ {
		k := [2]value.Value{value.Value(rng.Intn(300)), value.Value(rng.Intn(300))}
		if rng.Intn(3) == 0 {
			if a.Delete(k[:]) != model[k] {
				t.Fatalf("step %d: delete(%v) disagrees with model", step, k)
			}
			delete(model, k)
		} else {
			if a.Insert(k[:]) == model[k] {
				t.Fatalf("step %d: insert(%v) newness disagrees with model", step, k)
			}
			model[k] = true
		}
	}
	if a.Size() != len(model) {
		t.Fatalf("size %d, model %d", a.Size(), len(model))
	}
	enc := drain(a.Scan())
	if len(enc) != len(model) {
		t.Fatalf("scan yields %d tuples, want %d", len(enc), len(model))
	}
	checkAscending(t, enc)
	for _, tup := range sourceScan(a, a.Scan()) {
		if !model[[2]value.Value{tup[0], tup[1]}] {
			t.Fatalf("scan yielded deleted tuple %v", tup)
		}
	}
}

// TestLegacyRemoveDrainsSequential forces the tree's full rebalancing
// repertoire by deleting a large sequential load in both directions.
func TestLegacyRemoveDrainsSequential(t *testing.T) {
	for _, desc := range []bool{false, true} {
		a := newLegacyAdapter(tuple.Order{0, 1})
		const n = 4000
		for i := 0; i < n; i++ {
			a.Insert(tuple.Tuple{value.Value(i), value.Value(i)})
		}
		for i := 0; i < n; i++ {
			j := i
			if desc {
				j = n - 1 - i
			}
			if !a.Delete(tuple.Tuple{value.Value(j), value.Value(j)}) {
				t.Fatalf("desc=%v: tuple %d missing at step %d", desc, j, i)
			}
		}
		if a.Size() != 0 {
			t.Fatalf("desc=%v: index not drained (size=%d)", desc, a.Size())
		}
	}
}

// TestLegacyKeySortsByItsCmp: a legacyKey is two strings, as wide as a Tup8
// but no word key, so the tree compares it by its Cmp at every site. An
// arity-8 index in a reversed order, with words across the signed boundary,
// scans in that order and answers prefix scans and lookups as a model does.
func TestLegacyKeySortsByItsCmp(t *testing.T) {
	if unsafe.Sizeof(legacyKey{}) != unsafe.Sizeof(Tup8{}) {
		t.Fatalf("legacyKey is %d bytes, Tup8 %d", unsafe.Sizeof(legacyKey{}), unsafe.Sizeof(Tup8{}))
	}
	order := tuple.Order{7, 6, 5, 4, 3, 2, 1, 0}
	a := newLegacyAdapter(order)
	rng := rand.New(rand.NewSource(8))
	word := func() value.Value { return 0x7ffffffe + value.Value(rng.Intn(4)) }
	model := map[[8]value.Value]bool{}
	for i := 0; i < 5000; i++ {
		var k [8]value.Value
		for j := range k {
			k[j] = word()
		}
		if a.Insert(k[:]) == model[k] {
			t.Fatalf("Insert(%x) disagrees with the model", k)
		}
		model[k] = true
	}
	enc := drain(a.Scan())
	checkAscending(t, enc)
	if len(enc) != len(model) {
		t.Fatalf("scan: %d tuples, want %d", len(enc), len(model))
	}
	for p := 0; p < 50; p++ {
		var k [8]value.Value
		for j := range k {
			k[j] = word()
		}
		if a.Contains(k[:]) != model[k] {
			t.Fatalf("Contains(%x) disagrees with the model", k)
		}
		var pattern [8]value.Value
		order.Encode(pattern[:], k[:])
		want := 0
		for _, e := range enc {
			if e[0] == pattern[0] && e[1] == pattern[1] {
				want++
			}
		}
		got := drain(a.PrefixScan(pattern[:], 2))
		checkAscending(t, got)
		if len(got) != want {
			t.Fatalf("prefix %x: %d tuples, want %d", pattern[:2], len(got), want)
		}
	}
}
