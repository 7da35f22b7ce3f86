package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// k2 is a 2-element key for tests.
type k2 [2]uint32

func (a k2) Cmp(b k2) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// WordKey marks k2 as a word key: its Cmp is the unsigned order of its words.
func (k2) WordKey() {}

// Hash is relation.Tup2's: the two words packed into one uint64, times
// 2^64 over the golden ratio.
func (a k2) Hash() uint64 { return (uint64(a[0])<<32 | uint64(a[1])) * 0x9e3779b97f4a7c15 }

func collect(t *Tree[k2]) []k2 {
	var out []k2
	t.ForEach(func(k k2) bool { out = append(out, k); return true })
	return out
}

func collectIter(it Iter[k2]) []k2 { //nolint:gocritic // iterators are value types seeded by the tree
	return drain(&it)
}

func drain(it *Iter[k2]) []k2 {
	var out []k2
	for {
		k, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, k)
	}
}

func sortedUnique(keys []k2) []k2 {
	sort.Slice(keys, func(i, j int) bool { return keys[i].Cmp(keys[j]) < 0 })
	out := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			out = append(out, k)
		}
	}
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := New[k2]()
	if !tr.Empty() || tr.Size() != 0 {
		t.Fatalf("new tree not empty: size=%d", tr.Size())
	}
	if tr.Contains(k2{1, 2}) {
		t.Error("empty tree contains a key")
	}
	if got := collect(tr); len(got) != 0 {
		t.Errorf("ForEach on empty tree yielded %v", got)
	}
	it := tr.Iter()
	if _, ok := it.Next(); ok {
		t.Error("iterator on empty tree yielded a key")
	}
}

func TestInsertReportsNew(t *testing.T) {
	tr := New[k2]()
	if !tr.Insert(k2{1, 2}) {
		t.Error("first insert not reported new")
	}
	if tr.Insert(k2{1, 2}) {
		t.Error("duplicate insert reported new")
	}
	if tr.Size() != 1 {
		t.Errorf("size = %d, want 1", tr.Size())
	}
}

func TestInsertManyAscending(t *testing.T) {
	tr := New[k2]()
	const n = 2000
	for i := 0; i < n; i++ {
		if !tr.Insert(k2{uint32(i), 0}) {
			t.Fatalf("insert %d reported duplicate", i)
		}
	}
	if tr.Size() != n {
		t.Fatalf("size = %d, want %d", tr.Size(), n)
	}
	got := collect(tr)
	for i, k := range got {
		if k != (k2{uint32(i), 0}) {
			t.Fatalf("position %d: got %v", i, k)
		}
	}
}

func TestInsertManyDescending(t *testing.T) {
	tr := New[k2]()
	const n = 2000
	for i := n - 1; i >= 0; i-- {
		tr.Insert(k2{uint32(i), 0})
	}
	got := collect(tr)
	if len(got) != n {
		t.Fatalf("len = %d, want %d", len(got), n)
	}
	for i, k := range got {
		if k[0] != uint32(i) {
			t.Fatalf("position %d: got %v", i, k)
		}
	}
}

func TestRandomAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New[k2]()
	model := map[k2]bool{}
	for i := 0; i < 20000; i++ {
		k := k2{uint32(rng.Intn(500)), uint32(rng.Intn(500))}
		newTree := tr.Insert(k)
		newModel := !model[k]
		model[k] = true
		if newTree != newModel {
			t.Fatalf("insert %v: tree says new=%v, model says %v", k, newTree, newModel)
		}
	}
	if tr.Size() != len(model) {
		t.Fatalf("size = %d, model = %d", tr.Size(), len(model))
	}
	// Membership agrees, including absent keys.
	for i := 0; i < 5000; i++ {
		k := k2{uint32(rng.Intn(600)), uint32(rng.Intn(600))}
		if tr.Contains(k) != model[k] {
			t.Fatalf("contains %v: tree=%v model=%v", k, tr.Contains(k), model[k])
		}
	}
	// Enumeration is sorted and complete.
	got := collect(tr)
	if len(got) != len(model) {
		t.Fatalf("enumerated %d keys, model has %d", len(got), len(model))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Cmp(got[i]) >= 0 {
			t.Fatalf("out of order at %d: %v >= %v", i, got[i-1], got[i])
		}
	}
	for _, k := range got {
		if !model[k] {
			t.Fatalf("enumerated key %v not in model", k)
		}
	}
	// Iter matches ForEach.
	if it := collectIter(tr.Iter()); len(it) != len(got) {
		t.Fatalf("Iter yielded %d keys, ForEach %d", len(it), len(got))
	}
}

// checkShape verifies the B-tree invariants the hinted insert must keep:
// every node but the root holds degree-1..maxKeys keys, an internal node has
// n+1 children, every leaf sits at the same depth, keys ascend in order, and
// Size matches the key count.
func checkShape(t *testing.T, tr *Tree[k2]) {
	t.Helper()
	leafDepth := -1
	count := 0
	var walk func(nd *node[k2], depth int)
	walk = func(nd *node[k2], depth int) {
		if nd != tr.root && (int(nd.n) < degree-1 || int(nd.n) > maxKeys) {
			t.Fatalf("node at depth %d holds %d keys", depth, nd.n)
		}
		count += int(nd.n)
		if nd.leaf() {
			if leafDepth < 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
			}
			return
		}
		if len(nd.children) != int(nd.n)+1 {
			t.Fatalf("internal node with %d keys has %d children", nd.n, len(nd.children))
		}
		for _, c := range nd.children {
			walk(c, depth+1)
		}
	}
	if tr.root != nil {
		if tr.root.n == 0 {
			t.Fatal("the root holds no key")
		}
		walk(tr.root, 0)
	}
	if count != tr.Size() {
		t.Fatalf("tree holds %d keys, Size says %d", count, tr.Size())
	}
	got := collect(tr)
	for i := 1; i < len(got); i++ {
		if got[i-1].Cmp(got[i]) >= 0 {
			t.Fatalf("out of order at %d: %v >= %v", i, got[i-1], got[i])
		}
	}
}

// TestWriterHintAgainstModel runs random sequences of every mutating and
// reading operation over two trees against map models. Sorted runs land in
// the writer's hinted leaf, scattered keys miss it, and "fill" runs grow the
// hinted leaf to maxKeys so the next insert must split it. A writer hint kept
// across Clear, Swap or Remove shows as a wrong answer or a broken shape.
func TestWriterHintAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	trees := [2]*Tree[k2]{New[k2](), New[k2]()}
	models := [2]map[k2]bool{{}, {}}
	scattered := func() k2 { return k2{uint32(rng.Intn(40)), uint32(rng.Intn(1024))} }
	// run returns an ascending run of n keys from a random start, mostly
	// adjacent so that consecutive keys share a leaf.
	run := func(n int) []k2 {
		k := scattered()
		out := make([]k2, n)
		for i := range out {
			out[i] = k
			k[1] += uint32(1 + rng.Intn(2))
		}
		return out
	}
	insert := func(w int, k k2) {
		if got, want := trees[w].Insert(k), !models[w][k]; got != want {
			t.Fatalf("tree %d: Insert(%v) = %v, model says %v", w, k, got, want)
		}
		models[w][k] = true
	}
	contains := func(w int, k k2) {
		if got, want := trees[w].Contains(k), models[w][k]; got != want {
			t.Fatalf("tree %d: Contains(%v) = %v, model says %v", w, k, got, want)
		}
	}
	for step := 0; step < 20000; step++ {
		w := rng.Intn(2)
		switch op := rng.Intn(100); {
		case op < 20:
			insert(w, scattered())
		case op < 40:
			for _, k := range run(1 + rng.Intn(48)) {
				insert(w, k)
			}
		case op < 45:
			// Bracket a fresh range, then fill it in ascending order: every
			// key after the first two lands strictly inside the writer's leaf
			// until that leaf is full.
			a := uint32(100 + rng.Intn(1000))
			insert(w, k2{a, 1000})
			for b := uint32(0); b < 3*maxKeys; b++ {
				insert(w, k2{a, b})
			}
		case op < 52:
			keys := run(1 + rng.Intn(48))
			if rng.Intn(2) == 0 {
				for i := range keys {
					keys[i] = scattered()
				}
			}
			want := 0
			for _, k := range keys {
				if !models[w][k] {
					models[w][k] = true
					want++
				}
			}
			if got := trees[w].InsertAll(keys); got != want {
				t.Fatalf("tree %d: InsertAll added %d, model %d", w, got, want)
			}
		case op < 58:
			// Remove a run of present keys, which merges and rotates the
			// leaves around the hint, then read and refill the same run.
			keys := collect(trees[w])
			if len(keys) == 0 {
				continue
			}
			i := rng.Intn(len(keys))
			keys = keys[i:min(len(keys), i+1+rng.Intn(48))]
			for _, k := range keys {
				trees[w].Remove(k)
				delete(models[w], k)
			}
			for j, k := range keys {
				contains(w, k)
				if j%2 == 0 {
					insert(w, k)
				}
			}
		case op < 62:
			k := scattered()
			if rng.Intn(2) == 0 {
				for mk := range models[w] {
					k = mk
					break
				}
			}
			if got, want := trees[w].Remove(k), models[w][k]; got != want {
				t.Fatalf("tree %d: Remove(%v) = %v, model says %v", w, k, got, want)
			}
			delete(models[w], k)
		case op < 63:
			trees[w].Clear()
			models[w] = map[k2]bool{}
		case op < 66:
			trees[0].Swap(trees[1])
			models[0], models[1] = models[1], models[0]
		case op < 80:
			contains(w, scattered())
		default:
			for _, k := range run(1 + rng.Intn(48)) {
				contains(w, k)
			}
		}
		if step%500 == 0 {
			for i := range trees {
				checkShape(t, trees[i])
				if trees[i].Size() != len(models[i]) {
					t.Fatalf("step %d: tree %d size %d, model %d", step, i, trees[i].Size(), len(models[i]))
				}
			}
		}
	}
	for i := range trees {
		checkShape(t, trees[i])
		for _, k := range collect(trees[i]) {
			if !models[i][k] {
				t.Fatalf("tree %d enumerates %v, not in its model", i, k)
			}
		}
		if trees[i].Size() != len(models[i]) {
			t.Fatalf("tree %d size %d, model %d", i, trees[i].Size(), len(models[i]))
		}
	}
}

// TestWriterHintFollowsItsTree: after Swap, the leaf a tree's last Insert
// ended in belongs to the other tree, and after Clear it belongs to no tree.
// Each step then inserts a key that stale leaf holds, so an Insert that
// still trusted it would report a duplicate the tree does not have.
func TestWriterHintFollowsItsTree(t *testing.T) {
	even, odd := New[k2](), New[k2]()
	for i := uint32(0); i < 200; i += 2 {
		even.Insert(k2{i, 0})
		odd.Insert(k2{i + 1, 0})
	}
	if even.Insert(k2{50, 0}) {
		t.Fatal("Insert(50) on the even tree: want a duplicate")
	}
	even.Swap(odd) // even now holds the odd keys
	if !even.Insert(k2{52, 0}) {
		t.Fatal("after Swap: Insert(52) reported a duplicate from the other tree's leaf")
	}
	if even.Size() != 101 || odd.Size() != 100 {
		t.Fatalf("after Swap and one insert: sizes %d and %d, want 101 and 100", even.Size(), odd.Size())
	}
	if odd.Insert(k2{60, 0}) {
		t.Fatal("Insert(60) on the even keys: want a duplicate")
	}
	odd.Clear()
	if !odd.Insert(k2{60, 0}) || odd.Size() != 1 || !odd.Contains(k2{60, 0}) {
		t.Fatalf("after Clear: Insert(60) must add the tree's only key (size %d)", odd.Size())
	}
}

// TestConcurrentReadersShareTree has goroutines read one tree at once while
// no one writes: the race detector must find nothing. Reads never touch the
// writer hint, which is why it can live in the tree.
func TestConcurrentReadersShareTree(t *testing.T) {
	tr := New[k2]()
	for i := uint32(0); i < 4000; i += 2 {
		tr.Insert(k2{i, 0})
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(start uint32) {
			defer wg.Done()
			for i := start; i < 4000; i++ {
				if got := tr.Contains(k2{i, 0}); got != (i%2 == 0) {
					errs <- fmt.Sprintf("Contains(%d) = %v", i, got)
					return
				}
			}
		}(uint32(g * 100))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestSeek(t *testing.T) {
	tr := New[k2]()
	for i := 0; i < 100; i++ {
		tr.Insert(k2{uint32(2 * i), 0}) // even keys 0..198
	}
	tests := []struct {
		lo    k2
		first k2
		count int
	}{
		{k2{0, 0}, k2{0, 0}, 100},
		{k2{1, 0}, k2{2, 0}, 99}, // between keys
		{k2{2, 0}, k2{2, 0}, 99}, // exact
		{k2{197, 0}, k2{198, 0}, 1},
		{k2{198, 1}, k2{}, 0}, // past the end
		{k2{199, 0}, k2{}, 0},
	}
	for _, tc := range tests {
		got := collectIter(tr.Seek(tc.lo))
		if len(got) != tc.count {
			t.Errorf("Seek(%v): %d keys, want %d", tc.lo, len(got), tc.count)
			continue
		}
		if tc.count > 0 && got[0] != tc.first {
			t.Errorf("Seek(%v): first = %v, want %v", tc.lo, got[0], tc.first)
		}
	}
}

func TestRange(t *testing.T) {
	tr := New[k2]()
	for a := uint32(0); a < 50; a++ {
		for b := uint32(0); b < 4; b++ {
			tr.Insert(k2{a, b})
		}
	}
	// Prefix query a=7: lo={7,0}, hi={7,max}.
	got := collectIter(tr.Range(k2{7, 0}, k2{7, ^uint32(0)}))
	if len(got) != 4 {
		t.Fatalf("range a=7: %d keys, want 4", len(got))
	}
	for i, k := range got {
		if k != (k2{7, uint32(i)}) {
			t.Fatalf("range a=7 position %d: %v", i, k)
		}
	}
	// Empty range.
	if got := collectIter(tr.Range(k2{50, 0}, k2{50, ^uint32(0)})); len(got) != 0 {
		t.Fatalf("range a=50 should be empty, got %v", got)
	}
	// Multi-prefix range.
	got = collectIter(tr.Range(k2{10, 0}, k2{12, ^uint32(0)}))
	if len(got) != 12 {
		t.Fatalf("range 10..12: %d keys, want 12", len(got))
	}
}

func TestClearAndReuse(t *testing.T) {
	tr := New[k2]()
	for i := 0; i < 100; i++ {
		tr.Insert(k2{uint32(i), 0})
	}
	tr.Clear()
	if !tr.Empty() {
		t.Fatal("tree not empty after Clear")
	}
	if tr.Contains(k2{5, 0}) {
		t.Fatal("cleared tree contains a key")
	}
	if !tr.Insert(k2{5, 0}) {
		t.Fatal("insert after clear not reported new")
	}
	if tr.Size() != 1 {
		t.Fatalf("size after clear+insert = %d", tr.Size())
	}
}

func TestSwap(t *testing.T) {
	a, b := New[k2](), New[k2]()
	a.Insert(k2{1, 0})
	a.Insert(k2{2, 0})
	b.Insert(k2{9, 9})
	a.Swap(b)
	if a.Size() != 1 || !a.Contains(k2{9, 9}) {
		t.Errorf("a after swap: size=%d", a.Size())
	}
	if b.Size() != 2 || !b.Contains(k2{1, 0}) || !b.Contains(k2{2, 0}) {
		t.Errorf("b after swap: size=%d", b.Size())
	}
}

func TestForEachEarlyStop(t *testing.T) {
	tr := New[k2]()
	for i := 0; i < 100; i++ {
		tr.Insert(k2{uint32(i), 0})
	}
	n := 0
	tr.ForEach(func(k2) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("ForEach visited %d keys after early stop, want 10", n)
	}
}

// TestQuickSetSemantics drives random batches through the tree and checks
// set semantics against a sorted-unique reference.
func TestQuickSetSemantics(t *testing.T) {
	f := func(raw []uint32) bool {
		tr := New[k2]()
		var keys []k2
		for i := 0; i+1 < len(raw); i += 2 {
			k := k2{raw[i] % 64, raw[i+1] % 64}
			keys = append(keys, k)
			tr.Insert(k)
		}
		want := sortedUnique(keys)
		got := collect(tr)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSeekConsistent checks that Seek(lo) yields exactly the sorted
// keys >= lo.
func TestQuickSeekConsistent(t *testing.T) {
	f := func(raw []uint32, lo0, lo1 uint32) bool {
		tr := New[k2]()
		var keys []k2
		for i := 0; i+1 < len(raw); i += 2 {
			k := k2{raw[i] % 32, raw[i+1] % 32}
			keys = append(keys, k)
			tr.Insert(k)
		}
		lo := k2{lo0 % 32, lo1 % 32}
		var want []k2
		for _, k := range sortedUnique(keys) {
			if k.Cmp(lo) >= 0 {
				want = append(want, k)
			}
		}
		got := collectIter(tr.Seek(lo))
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
