package relation

import (
	"math/rand"
	"testing"

	"sti/internal/tuple"
	"sti/internal/value"
)

// TestIndexDeleteContract exercises the Delete seam of every representation:
// hits and misses, size accounting, and iteration after retraction.
func TestIndexDeleteContract(t *testing.T) {
	for _, rep := range allReps {
		idx := NewIndex(rep, tuple.Identity(2)).(interface {
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
					t.Fatalf("%v step %d: Delete(%v) disagrees with model", rep, step, tup)
				}
				delete(model, k)
			} else {
				if idx.Insert(tup) == model[k] {
					t.Fatalf("%v step %d: Insert(%v) newness disagrees with model", rep, step, tup)
				}
				model[k] = true
			}
		}
		if idx.Size() != len(model) {
			t.Fatalf("%v: size %d, model %d", rep, idx.Size(), len(model))
		}
		for _, tup := range drain(idx.Scan()) {
			if !model[[2]value.Value{tup[0], tup[1]}] {
				t.Fatalf("%v: scan yielded deleted tuple %v", rep, tup)
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

// TestSupportCounts drives the sidecar through the count-merge/count-delete
// lifecycle: support accumulates across AddCount calls, the physical insert
// happens only on the 0→positive transition, DecCount clamps at zero and
// defers physical removal to Delete.
func TestSupportCounts(t *testing.T) {
	r := New("t", BTree, 2, []tuple.Order{tuple.Identity(2), {1, 0}})
	r.EnableCounting()
	if !r.Counting() {
		t.Fatal("counting not enabled")
	}
	ab := tuple.Tuple{1, 2}

	if !r.AddCount(ab, 2) {
		t.Fatal("first AddCount did not report the unsupported->supported transition")
	}
	if r.AddCount(ab, 3) {
		t.Fatal("second AddCount reported a transition on an already-supported tuple")
	}
	if r.Count(ab) != 5 || r.Size() != 1 {
		t.Fatalf("count=%d size=%d, want 5 and 1", r.Count(ab), r.Size())
	}

	// Losing some support keeps the tuple alive and physically present.
	if r.DecCount(ab, 4) {
		t.Fatal("DecCount reported death with support remaining")
	}
	if r.Count(ab) != 1 || !r.Contains(ab) {
		t.Fatalf("count=%d contains=%v after partial loss", r.Count(ab), r.Contains(ab))
	}

	// Losing the last support reports death but leaves the indexes intact —
	// the delete program still reads the old state until its subtract pass.
	if !r.DecCount(ab, 7) {
		t.Fatal("DecCount missed the last-support transition")
	}
	if r.Count(ab) != 0 {
		t.Fatalf("count=%d, want clamp at 0", r.Count(ab))
	}
	if !r.Contains(ab) || r.Size() != 1 {
		t.Fatal("zero support removed the tuple before the subtract pass")
	}
	if r.DecCount(ab, 1) {
		t.Fatal("DecCount on a dead tuple reported another death")
	}

	// RangeCounts enumerates only supported tuples.
	r.AddCount(tuple.Tuple{3, 4}, 2)
	seen := map[[2]value.Value]int32{}
	r.RangeCounts(func(tp tuple.Tuple, n int32) {
		seen[[2]value.Value{tp[0], tp[1]}] = n
	})
	if len(seen) != 1 || seen[[2]value.Value{3, 4}] != 2 {
		t.Fatalf("RangeCounts yielded %v, want only (3,4)->2", seen)
	}

	// Physical removal clears every index and the sidecar entry.
	if !r.Delete(ab) {
		t.Fatal("Delete missed a physically present tuple")
	}
	if r.Contains(ab) || r.Index(1).Contains(tuple.Tuple{2, 1}) {
		t.Fatal("Delete left the tuple in an index")
	}
	if r.Delete(ab) {
		t.Fatal("second Delete reported a hit")
	}
	// A fresh derivation after death must re-insert physically.
	if !r.AddCount(ab, 1) || !r.Contains(ab) {
		t.Fatal("AddCount after death did not re-insert")
	}
}
