package btree

import (
	"math/rand"
	"slices"
	"testing"
)

// rev2 has k2's width and shape but is no word key: its Cmp orders the
// words in reverse. A tree must sort it by that Cmp, not by its words.
type rev2 [2]uint32

func (a rev2) Cmp(b rev2) int { return k2(b).Cmp(k2(a)) }

func (a rev2) Hash() uint64 { return k2(a).Hash() }

// k3 is a word key of three words, which lessWords compares word by word.
type k3 [3]uint32

func (a k3) Cmp(b k3) int {
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

func (k3) WordKey() {}

func (a k3) Hash() uint64 {
	return ((uint64(a[0])<<32 | uint64(a[1])) ^ uint64(a[2])) * 0x9e3779b97f4a7c15
}

func TestWordKeyDecision(t *testing.T) {
	if !New[k2]().words || !New[k3]().words {
		t.Error("a marked array of uint32 is not compared as a word key")
	}
	if New[rev2]().words {
		t.Error("an unmarked key is compared as a word key")
	}
}

// checkSortsByCmp runs a random mix of inserts and removes over a small
// domain, so that nodes split, borrow and merge, and checks every search
// against a model sorted by the key's Cmp: iteration order, membership from
// the root and through a finger, Seek, inclusive Range and exclusive
// SeekBefore.
func checkSortsByCmp[K Key[K]](t *testing.T, gen func(*rand.Rand) K) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	tr := New[K]()
	model := map[K]bool{}
	var h Hint[K]
	for step := 0; step < 30000; step++ {
		k := gen(rng)
		if rng.Intn(4) == 0 {
			if tr.Remove(k) != model[k] {
				t.Fatalf("step %d: Remove(%v) disagrees with the model", step, k)
			}
			delete(model, k)
		} else {
			if tr.Insert(k) == model[k] {
				t.Fatalf("step %d: Insert(%v) disagrees with the model", step, k)
			}
			model[k] = true
		}
		if p := gen(rng); tr.ContainsHint(p, &h) != model[p] || tr.Contains(p) != model[p] {
			t.Fatalf("step %d: Contains(%v) disagrees with the model", step, p)
		}
	}
	want := make([]K, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	slices.SortFunc(want, func(a, b K) int { return a.Cmp(b) })
	var got []K
	tr.ForEach(func(k K) bool { got = append(got, k); return true })
	if !slices.Equal(got, want) {
		t.Fatalf("ForEach order differs from Cmp order")
	}
	drain := func(it Iter[K]) []K {
		var out []K
		for k, ok := it.Next(); ok; k, ok = it.Next() {
			out = append(out, k)
		}
		return out
	}
	for q := 0; q < 200; q++ {
		lo, hi := gen(rng), gen(rng)
		if lo.Cmp(hi) > 0 {
			lo, hi = hi, lo
		}
		from := slices.IndexFunc(want, func(k K) bool { return k.Cmp(lo) >= 0 })
		if from < 0 {
			from = len(want)
		}
		upTo := func(incl bool) int {
			i := from
			for i < len(want) && (want[i].Cmp(hi) < 0 || incl && want[i] == hi) {
				i++
			}
			return i
		}
		if g := drain(tr.Seek(lo)); !slices.Equal(g, want[from:]) {
			t.Fatalf("Seek(%v) = %d keys, want %d", lo, len(g), len(want)-from)
		}
		if g := drain(tr.Range(lo, hi)); !slices.Equal(g, want[from:upTo(true)]) {
			t.Fatalf("Range(%v, %v) = %v, want %v", lo, hi, g, want[from:upTo(true)])
		}
		if g := drain(tr.SeekBefore(&lo, &hi)); !slices.Equal(g, want[from:upTo(false)]) {
			t.Fatalf("SeekBefore(%v, %v) = %v, want %v", lo, hi, g, want[from:upTo(false)])
		}
	}
}

// TestTreeSortsByCmp: a runtime-compared key whose Cmp reverses its words
// sorts by that Cmp at every comparison site; word keys of two and three
// words, compared inline, sort as their Cmp does. The words straddle the
// signed boundary.
func TestTreeSortsByCmp(t *testing.T) {
	word := func(rng *rand.Rand) uint32 { return uint32(rng.Intn(40)) + 0x7fffffec }
	t.Run("rev2", func(t *testing.T) {
		checkSortsByCmp(t, func(rng *rand.Rand) rev2 { return rev2{word(rng), word(rng)} })
	})
	t.Run("k2", func(t *testing.T) {
		checkSortsByCmp(t, func(rng *rand.Rand) k2 { return k2{word(rng), word(rng)} })
	})
	t.Run("k3", func(t *testing.T) {
		checkSortsByCmp(t, func(rng *rand.Rand) k3 { return k3{word(rng), word(rng), uint32(rng.Intn(2)) << 31} })
	})
}
