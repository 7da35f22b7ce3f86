package btree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestHintAgainstModel drives seeded random sequences of Insert, InsertAll,
// Remove, Clear and Swap over two trees, interleaved with ContainsHint
// through four hints, against map models. Each hint is handed to either
// tree at random, so hints move between the trees and are held across every
// detaching operation; inserts between lookups split nodes (the root too)
// under the recorded fingers. Lookups come in near-sorted sweeps, the shape a
// join probes in, and as scattered keys. A finger that outlived a Clear, a
// Swap or a Remove answers from a detached node, which the model catches;
// a finger resting on an inner node would keep a detached subtree alive.
func TestHintAgainstModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		trees := [2]*Tree[k2]{New[k2](), New[k2]()}
		models := [2]map[k2]bool{{}, {}}
		var hints [4]Hint[k2]
		key := func() k2 { return k2{uint32(rng.Intn(64)), uint32(rng.Intn(256))} }
		insert := func(w int, k k2) {
			if got, want := trees[w].Insert(k), !models[w][k]; got != want {
				t.Fatalf("seed %d: tree %d: Insert(%v) = %v, model says %v", seed, w, k, got, want)
			}
			models[w][k] = true
		}
		lookup := func(step, w int, h *Hint[k2], k k2) {
			if got, want := trees[w].ContainsHint(k, h), models[w][k]; got != want {
				t.Fatalf("seed %d step %d: tree %d: ContainsHint(%v) = %v, model says %v", seed, step, w, k, got, want)
			}
			if h.leaf != nil && !h.leaf.leaf() {
				t.Fatalf("seed %d step %d: the finger rests on an inner node", seed, step)
			}
		}
		for step := 0; step < 4000; step++ {
			w := rng.Intn(2)
			switch op := rng.Intn(100); {
			case op < 25:
				for n := rng.Intn(96); n >= 0; n-- {
					insert(w, key())
				}
			case op < 55:
				// A sweep over one prefix, with a hit and a miss mix.
				h := &hints[rng.Intn(len(hints))]
				a := uint32(rng.Intn(64))
				for b := uint32(rng.Intn(64)); b < 256; b += uint32(1 + rng.Intn(8)) {
					lookup(step, w, h, k2{a, b})
				}
			case op < 65:
				h := &hints[rng.Intn(len(hints))]
				for n := rng.Intn(32); n >= 0; n-- {
					lookup(step, w, h, key())
				}
			case op < 72:
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
			case op < 88:
				for n := rng.Intn(48); n >= 0; n-- {
					k := key()
					if got, want := trees[w].Remove(k), models[w][k]; got != want {
						t.Fatalf("seed %d: tree %d: Remove(%v) = %v, model says %v", seed, w, k, got, want)
					}
					delete(models[w], k)
				}
			case op < 92:
				trees[w].Clear()
				models[w] = map[k2]bool{}
			default:
				trees[0].Swap(trees[1])
				models[0], models[1] = models[1], models[0]
			}
		}
		for i := range trees {
			checkShape(t, trees[i])
			for k := range models[i] {
				lookup(-1, i, &hints[0], k)
			}
		}
	}
}

// hinted returns a tree holding {a, b} for a < 64, b < 64 and one hint per
// leaf-sized stretch of it, each recorded by a lookup of its first key.
func hinted() (*Tree[k2], []*Hint[k2], map[k2]bool) {
	tr, model := New[k2](), map[k2]bool{}
	for a := uint32(0); a < 64; a++ {
		for b := uint32(0); b < 64; b++ {
			tr.Insert(k2{a, b})
			model[k2{a, b}] = true
		}
	}
	var hints []*Hint[k2]
	for i := 0; i < 64*64; i += degree {
		h := &Hint[k2]{}
		tr.ContainsHint(k2{uint32(i / 64), uint32(i % 64)}, h)
		hints = append(hints, h)
	}
	return tr, hints, model
}

// checkHints looks keys of the hinted range up through every hint against
// the model, each hint from the key it was recorded at onwards (wrapping
// round), so that its first lookups fall in the stretch its old finger covers.
func checkHints(t *testing.T, what string, tr *Tree[k2], hints []*Hint[k2], model map[k2]bool) {
	t.Helper()
	for i, h := range hints {
		for m := 0; m < 64*64; m += 1 + i%3 {
			j := (i*degree + m) % (64 * 64)
			k := k2{uint32(j / 64), uint32(j % 64)}
			if got := tr.ContainsHint(k, h); got != model[k] {
				t.Fatalf("%s: hint %d: ContainsHint(%v) = %v, model says %v", what, i, k, got, model[k])
			}
		}
		if tr.ContainsHint(k2{64, 0}, h) {
			t.Fatalf("%s: hint %d found a key above every stored one", what, i)
		}
	}
}

// TestHintHeldAcrossDetach records a hint in every leaf, runs one detaching
// operation, and only then looks keys up through the old fingers: each of
// Clear, Swap (on either side) and a run of Removes that merges leaves must
// send the hints back to the root.
func TestHintHeldAcrossDetach(t *testing.T) {
	tr, hints, model := hinted()
	tr.Clear()
	checkHints(t, "Clear", tr, hints, map[k2]bool{})

	tr, hints, _ = hinted()
	other := New[k2]()
	other.Insert(k2{1000, 0})
	tr.Swap(other)
	checkHints(t, "Swap (the tree's side)", tr, hints, map[k2]bool{})

	tr, hints, model = hinted()
	other = New[k2]()
	other.Insert(k2{1000, 0})
	other.Swap(tr)
	checkHints(t, "Swap (the other side)", tr, hints, map[k2]bool{})
	checkHints(t, "Swap (the other side's new contents)", other, hints, model)

	tr, hints, model = hinted()
	for k := range model {
		if k[1]%4 != 0 {
			tr.Remove(k)
			delete(model, k)
		}
	}
	checkShape(t, tr)
	checkHints(t, "Remove", tr, hints, model)
}

// TestHintAcrossRootSplits records hints while the tree is one leaf, then
// grows it by several levels: the recorded fingers now lie below the root
// and still answer, and a hint moved to another tree starts over.
func TestHintAcrossRootSplits(t *testing.T) {
	tr, model := New[k2](), map[k2]bool{}
	var hints [3]Hint[k2]
	for i := uint32(0); i < 3; i++ {
		tr.Insert(k2{i * 4, 0})
		model[k2{i * 4, 0}] = true
		tr.ContainsHint(k2{i * 4, 0}, &hints[i])
	}
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 20_000; n++ {
		k := k2{uint32(rng.Intn(4096)), uint32(rng.Intn(8))}
		tr.Insert(k)
		model[k] = true
	}
	if h := height(tr); h < 4 {
		t.Fatalf("tree height %d: the inserts did not split the root enough", h)
	}
	for i := range hints {
		for a := uint32(0); a < 4200; a += 3 {
			k := k2{a, uint32(i)}
			if got := tr.ContainsHint(k, &hints[i]); got != model[k] {
				t.Fatalf("hint %d: ContainsHint(%v) = %v, model says %v", i, k, got, model[k])
			}
		}
	}
	other := New[k2]()
	other.Insert(k2{5, 5})
	if !other.ContainsHint(k2{5, 5}, &hints[0]) || other.ContainsHint(k2{0, 0}, &hints[0]) {
		t.Fatal("a hint moved to another tree answered from its old tree")
	}
	if !tr.ContainsHint(k2{0, 0}, &hints[0]) {
		t.Fatal("the hint moved back did not find a stored key")
	}
}

// TestHintStartsAtItsLeaf: a lookup leaves the finger on the leaf that
// decided it and its parent, and the next lookup in the same leaf reads that
// leaf alone. After a run of scattered lookups the finger is tried only now
// and then, and the first one it decides resumes it.
func TestHintStartsAtItsLeaf(t *testing.T) {
	tr := New[k2]()
	for a := uint32(0); a < 4096; a++ {
		tr.Insert(k2{a, 0})
	}
	var h Hint[k2]
	if !tr.ContainsHint(k2{1000, 0}, &h) {
		t.Fatal("stored key not found")
	}
	leaf := h.leaf
	if leaf == nil || !leaf.leaf() || h.up == nil || h.up.leaf() {
		t.Fatal("want the finger on a leaf and its parent")
	}
	// Take the root away: only the recorded leaf can answer now.
	root := tr.root
	tr.root = nil
	for i := 0; i < int(leaf.n); i++ {
		if !tr.ContainsHint(leaf.keys[i], &h) {
			t.Fatalf("key %v of the hinted leaf not answered from it", leaf.keys[i])
		}
	}
	tr.root = root
	for i := 0; i < 5*coldRun; i++ {
		tr.ContainsHint(k2{uint32(i * 97 % 4096), 0}, &h)
	}
	if h.misses <= coldRun {
		t.Fatalf("%d scattered lookups left %d misses counted", 5*coldRun, h.misses)
	}
	for i := 0; i < coldRun; i++ {
		tr.ContainsHint(k2{2000, 0}, &h)
	}
	tr.root = nil
	if !tr.ContainsHint(k2{2001, 0}, &h) {
		t.Fatal("the finger did not resume after a lookup it decided")
	}
	tr.root = root
}

func height(tr *Tree[k2]) int {
	h := 0
	for nd := tr.root; nd != nil; h++ {
		if nd.leaf() {
			return h + 1
		}
		nd = nd.children[0]
	}
	return h
}

// TestConcurrentReadersOwnHints has goroutines look keys up in one tree at
// once, each through its own hint: the race detector must find nothing,
// since a lookup writes only its caller's hint.
func TestConcurrentReadersOwnHints(t *testing.T) {
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
			var h Hint[k2]
			for i := start; i < 4000; i++ {
				if got := tr.ContainsHint(k2{i, 0}, &h); got != (i%2 == 0) {
					errs <- fmt.Sprintf("ContainsHint(%d) = %v", i, got)
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
