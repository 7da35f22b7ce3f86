package btree

import (
	"math/rand"
	"testing"
)

// TestDedupAgainstModel drives seeded random sequences of Insert, InsertAll,
// Remove, Clear and Swap over two trees against map models and checks every
// result, then each tree's shape and Iter order. Duplicate-heavy phases
// re-insert present keys in scattered order, so the descents that miss the
// writer hint arm the cache; every later phase then runs through it. A cache
// entry that outlived a Clear, a Remove or a Swap shows as a duplicate the
// model does not have.
func TestDedupAgainstModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		trees := [2]*Tree[k2]{New[k2](), New[k2]()}
		models := [2]map[k2]bool{{}, {}}
		key := func() k2 { return k2{uint32(rng.Intn(64)), uint32(rng.Intn(256))} }
		present := func(w int) []k2 {
			keys := collectIter(trees[w].Iter())
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			return keys
		}
		insert := func(w int, k k2) {
			if got, want := trees[w].Insert(k), !models[w][k]; got != want {
				t.Fatalf("seed %d: tree %d: Insert(%v) = %v, model says %v", seed, w, k, got, want)
			}
			models[w][k] = true
		}
		armed := 0
		for step := 0; step < 3000; step++ {
			w := rng.Intn(2)
			switch op := rng.Intn(100); {
			case op < 30:
				for n := rng.Intn(64); n >= 0; n-- {
					insert(w, key())
				}
			case op < 45:
				// Duplicate-heavy: every present key again, scattered.
				for _, k := range present(w) {
					insert(w, k)
				}
			case op < 60:
				// Ascending restarts over a small window of one prefix.
				a := uint32(rng.Intn(64))
				for r := 0; r < 8; r++ {
					for b := uint32(rng.Intn(16)); b < 48; b += uint32(1 + rng.Intn(3)) {
						insert(w, k2{a, b})
					}
				}
			case op < 70:
				keys := make([]k2, rng.Intn(128))
				want := 0
				for i := range keys {
					keys[i] = key()
					if !models[w][keys[i]] {
						models[w][keys[i]] = true
						want++
					}
				}
				if got := trees[w].InsertAll(keys); got != want {
					t.Fatalf("seed %d: tree %d: InsertAll added %d, model %d", seed, w, got, want)
				}
			case op < 85:
				// Remove some present keys and some absent ones, then
				// insert a few of them again.
				keys := present(w)
				keys = keys[:min(len(keys), rng.Intn(32))]
				keys = append(keys, key(), key())
				for _, k := range keys {
					if got, want := trees[w].Remove(k), models[w][k]; got != want {
						t.Fatalf("seed %d: tree %d: Remove(%v) = %v, model says %v", seed, w, k, got, want)
					}
					delete(models[w], k)
				}
				for _, k := range keys[:len(keys)/2] {
					insert(w, k)
				}
			case op < 90:
				trees[w].Clear()
				models[w] = map[k2]bool{}
			default:
				trees[0].Swap(trees[1])
				models[0], models[1] = models[1], models[0]
			}
			for i := range trees {
				if trees[i].Size() != len(models[i]) {
					t.Fatalf("seed %d step %d: tree %d size %d, model %d", seed, step, i, trees[i].Size(), len(models[i]))
				}
				if trees[i].cache != nil {
					armed++
				}
			}
		}
		if armed == 0 {
			t.Fatalf("seed %d: no tree ever armed its cache", seed)
		}
		for i := range trees {
			checkShape(t, trees[i])
			got := collectIter(trees[i].Iter())
			if len(got) != len(models[i]) {
				t.Fatalf("seed %d: tree %d iterates %d keys, model has %d", seed, i, len(got), len(models[i]))
			}
			for j, k := range got {
				if !models[i][k] || j > 0 && got[j-1].Cmp(k) >= 0 {
					t.Fatalf("seed %d: tree %d iterates %v at %d: not in the model or out of order", seed, i, k, j)
				}
			}
		}
	}
}

// armedTree returns a tree holding the keys {a, b} for a < 64, b < 128 whose
// cache has just been armed by re-inserting them in scattered order.
func armedTree(t *testing.T) *Tree[k2] {
	t.Helper()
	tr := New[k2]()
	var keys []k2
	for a := uint32(0); a < 64; a++ {
		for b := uint32(0); b < 128; b++ {
			keys = append(keys, k2{a, b})
			tr.Insert(k2{a, b})
		}
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		if tr.Insert(k) {
			t.Fatalf("re-insert of %v reported new", k)
		}
		if tr.cache != nil {
			return tr
		}
	}
	t.Fatalf("%d scattered duplicates did not arm a %d-slot cache", len(keys), dedupSlots[k2]())
	return nil
}

// TestDedupEpochWrap: Clear invalidates the cache by bumping its epoch, and
// when the epoch wraps the stamps are zeroed. Otherwise an entry stamped in
// epoch 1 would be live again 2^32 Clears later, and the Insert after the
// wrap would report a duplicate of a key the cleared tree does not hold.
func TestDedupEpochWrap(t *testing.T) {
	tr := armedTree(t)
	k := k2{7, 7}
	tr.Clear()
	tr.cache.epoch = 1 // the stamp the entry below will carry
	if !tr.Insert(k) || tr.Insert(k) {
		t.Fatal("Insert after Clear: want new, then a duplicate")
	}
	if s := tr.cache.at(k); s.key != k || s.epoch != 1 {
		t.Fatalf("k's slot holds %v at epoch %d, want %v at 1", s.key, s.epoch, k)
	}
	tr.cache.epoch = ^uint32(0) // as if 2^32-2 Clears had run since
	tr.Clear()
	if tr.cache.epoch != 1 {
		t.Fatalf("epoch after the wrap = %d, want 1", tr.cache.epoch)
	}
	if !tr.Insert(k) {
		t.Fatal("after the wrap: Insert reported a duplicate the cleared tree does not hold")
	}
	if tr.Size() != 1 || !tr.Contains(k) {
		t.Fatalf("after the wrap: size %d, want 1 holding %v", tr.Size(), k)
	}
}

// TestDedupInvalidation: after Remove the removed key is new again, after
// Swap each tree answers from the cache of the contents it now holds, and
// after Clear nothing is a duplicate.
func TestDedupInvalidation(t *testing.T) {
	tr := armedTree(t)
	k := k2{3, 5}
	if tr.Insert(k) {
		t.Fatal("want a duplicate")
	}
	if !tr.Remove(k) || !tr.Insert(k) {
		t.Fatal("Remove then Insert: want the key new again")
	}
	other := New[k2]()
	other.Insert(k2{1000, 0})
	tr.Swap(other)
	if tr.cache != nil || other.cache == nil {
		t.Fatal("the cache did not move with the contents")
	}
	if !tr.Insert(k) || other.Insert(k) {
		t.Fatal("after Swap: want k new in the tree that lost it and a duplicate in the other")
	}
	other.Clear()
	if !other.Insert(k) || other.Size() != 1 {
		t.Fatal("after Clear: want k new")
	}
}

// TestDedupFreshKeysNeverArm: a tree that is only ever fed fresh keys, in
// any order and through either entry point, never allocates its cache, and
// neither does one whose duplicates all land in the hinted leaf. Nor do
// duplicates counted before a Clear carry over.
func TestDedupFreshKeysNeverArm(t *testing.T) {
	tr := New[k2]()
	for _, k := range benchKeys(50_000) {
		tr.Insert(k)
	}
	keys := benchKeys(60_000)[50_000:]
	tr.InsertAll(keys)
	for a := uint32(0); a < 100; a++ {
		for b := uint32(0); b < 100; b++ {
			tr.Insert(k2{a, b})
			tr.Insert(k2{a, b}) // a duplicate the writer hint answers
		}
	}
	if tr.cache != nil {
		t.Fatal("fresh keys and hinted duplicates armed the cache")
	}
	// Scattered re-inserts descend: stop one short of arming, Clear, and
	// re-insert a hundred keys, which would arm the cache if the count
	// survived the Clear.
	n := dedupSlots[k2]()
	rng := rand.New(rand.NewSource(2))
	present := collectIter(tr.Iter())
	for tr.dups < n-1 {
		tr.Insert(present[rng.Intn(len(present))])
	}
	tr.Clear()
	present = benchKeys(5_000)
	for _, k := range present {
		tr.Insert(k)
	}
	for i := 0; i < 100; i++ {
		tr.Insert(present[rng.Intn(len(present))])
	}
	if tr.cache != nil {
		t.Fatal("duplicates counted before Clear armed the cache")
	}
}

// TestDedupColdCacheDisarms: an armed cache that a window of probes finds
// cold (here: fresh keys, every probe a miss) is taken off the insert path,
// and the duplicate count starts again from zero; scattered duplicates then
// arm it again. A warm window keeps it.
func TestDedupColdCacheDisarms(t *testing.T) {
	tr := armedTree(t)
	n := dedupSlots[k2]()
	// Mostly hits: the same few present keys over and over, a fresh key
	// now and then. No window is cold.
	for i := 0; i < 4*n; i++ {
		if i%16 == 0 {
			tr.Insert(k2{1000, uint32(i)})
		} else {
			tr.Insert(k2{uint32(i % 7), uint32(i % 5)})
		}
	}
	if tr.cache == nil {
		t.Fatal("a warm cache disarmed")
	}
	// Fresh keys: the window under way ends (warm or not), the next one is
	// all misses.
	for i := 0; i < 2*n && tr.cache != nil; i++ {
		if !tr.Insert(k2{2000, uint32(i)}) {
			t.Fatalf("fresh key %d reported a duplicate", i)
		}
	}
	if tr.cache != nil || tr.dups != 0 {
		t.Fatalf("a window of misses left the cache armed (dups %d)", tr.dups)
	}
	present := collectIter(tr.Iter())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 16*n && tr.cache == nil; i++ {
		if tr.Insert(present[rng.Intn(len(present))]) {
			t.Fatal("a present key reported new")
		}
	}
	if tr.cache == nil {
		t.Fatal("scattered duplicates did not arm the cache again")
	}
}

// TestDedupColdTreeStopsRearming: a tree whose cache never pays (present
// keys re-inserted in random order, far more of them than the cache has
// slots) disarms at every window, and each disarm doubles the duplicates
// it takes to arm again, so it arms a logarithmic number of times rather
// than once per two windows. Clear forgets the cold windows.
func TestDedupColdTreeStopsRearming(t *testing.T) {
	n := dedupSlots[k2]()
	tr := New[k2]()
	for a := uint32(0); a < 256; a++ {
		for b := uint32(0); b < 256; b++ {
			tr.Insert(k2{a, b})
		}
	}
	rng := rand.New(rand.NewSource(5))
	armings := 0
	for i := 0; i < 64*n; i++ {
		armed := tr.cache != nil
		if tr.Insert(k2{uint32(rng.Intn(256)), uint32(rng.Intn(256))}) {
			t.Fatal("a present key reported new")
		}
		if !armed && tr.cache != nil {
			armings++
		}
	}
	// Without the doubling a window-long arming and a window-long disarm
	// alternate: 32 armings over 64 windows.
	if armings < 2 || armings > 7 {
		t.Fatalf("a steadily cold tree armed %d times over %d duplicates, want 2..7", armings, 64*n)
	}
	tr.Clear()
	if tr.colds != 0 {
		t.Fatalf("Clear left %d cold windows counted", tr.colds)
	}
}
