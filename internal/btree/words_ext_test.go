package btree_test

import (
	"math/rand"
	"testing"

	"sti/internal/btree"
	"sti/internal/relation"
	"sti/internal/tuple"
)

// edgeWords are the words a key is drawn from besides uniform ones: the
// signed boundary (0x7fffffff, 0x80000000), where a signed comparison would
// order the other way, and the ends of the range.
var edgeWords = []uint32{0, 1, 0x7fffffff, 0x80000000, 0x80000001, 0xfffffffe, 0xffffffff}

func randWord(rng *rand.Rand) uint32 {
	if rng.Intn(2) == 0 {
		return edgeWords[rng.Intn(len(edgeWords))]
	}
	return rng.Uint32()
}

// checkWordOrder compares the word order of the tree's inline comparison
// with the key's own Cmp on keys of n words: random pairs that share a
// random prefix, so the first difference falls at every position, equal
// pairs among them.
func checkWordOrder[K btree.Key[K]](t *testing.T, n int, conv func(tuple.Tuple) K) {
	t.Helper()
	if !btree.IsWordKey[K]() {
		t.Fatalf("arity %d: the key is not a word key", n)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	x, y := make(tuple.Tuple, n), make(tuple.Tuple, n)
	for trial := 0; trial < 4000; trial++ {
		for i := range x {
			x[i] = randWord(rng)
		}
		copy(y, x)
		if p := rng.Intn(n + 1); p < n {
			for i := p; i < n; i++ {
				y[i] = randWord(rng)
			}
		}
		a, b := conv(x), conv(y)
		got := 0
		switch {
		case btree.LessWords(&a, &b):
			got = -1
		case btree.LessWords(&b, &a):
			got = 1
		}
		want := a.Cmp(b)
		if got != want || (want == 0) != (a == b) {
			t.Fatalf("arity %d: %x vs %x: word order %d, Cmp %d", n, x, y, got, want)
		}
	}
	// The signed boundary on its own: 0x80000000 orders after 1.
	for i := range x {
		x[i], y[i] = 0, 0
	}
	x[n-1], y[n-1] = 0x80000000, 1
	if a, b := conv(x), conv(y); btree.LessWords(&a, &b) || !btree.LessWords(&b, &a) {
		t.Fatalf("arity %d: 0x80000000 ordered before 1 in the last word", n)
	}
}

// TestWordOrderMatchesCmp: for every arity of the engine's tuple keys, the
// tree's inline word comparison orders keys as their Cmp does.
func TestWordOrderMatchesCmp(t *testing.T) {
	checkWordOrder(t, 1, relation.ToTup1)
	checkWordOrder(t, 2, relation.ToTup2)
	checkWordOrder(t, 3, relation.ToTup3)
	checkWordOrder(t, 4, relation.ToTup4)
	checkWordOrder(t, 5, relation.ToTup5)
	checkWordOrder(t, 6, relation.ToTup6)
	checkWordOrder(t, 7, relation.ToTup7)
	checkWordOrder(t, 8, relation.ToTup8)
	checkWordOrder(t, 9, relation.ToTup9)
	checkWordOrder(t, 10, relation.ToTup10)
	checkWordOrder(t, 11, relation.ToTup11)
	checkWordOrder(t, 12, relation.ToTup12)
	checkWordOrder(t, 13, relation.ToTup13)
	checkWordOrder(t, 14, relation.ToTup14)
	checkWordOrder(t, 15, relation.ToTup15)
	checkWordOrder(t, 16, relation.ToTup16)
}
