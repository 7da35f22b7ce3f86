package relation

import (
	"fmt"
	"testing"

	"sti/internal/tuple"
	"sti/internal/value"
)

// The B-tree adapter's per-tuple operations allocate nothing: keys are
// encoded into stack arrays that cross the per-arity glue by value, and
// prefix bounds are arrays too. Arity 16 is the widest pre-instantiated key;
// the reversed order makes every call re-encode.
func TestBTreeAdapterAllocatesNothing(t *testing.T) {
	for _, arity := range []int{1, 2, 3, MaxArity} {
		t.Run(fmt.Sprintf("arity%d", arity), func(t *testing.T) {
			order := make(tuple.Order, arity)
			for i := range order {
				order[i] = arity - 1 - i
			}
			idx := NewIndex(BTree, order)
			del := idx.(Deleter)
			for i := 0; i < 1000; i++ {
				tp := make(tuple.Tuple, arity)
				for j := range tp {
					tp[j] = value.Value(i * (j + 1))
				}
				idx.Insert(tp)
			}
			present := make(tuple.Tuple, arity)
			absent := make(tuple.Tuple, arity)
			for j := range present {
				present[j] = value.Value(7 * (j + 1))
				absent[j] = value.Value(1 << 30)
			}
			encoded := order.Encoded(present)
			cases := []struct {
				name string
				fn   func()
			}{
				{"Insert present", func() { idx.Insert(present) }},
				{"Contains", func() { idx.Contains(present) }},
				{"ContainsEncoded", func() { idx.ContainsEncoded(encoded) }},
				{"AnyMatch prefix", func() { idx.AnyMatch(encoded, (arity+1)/2) }},
				{"AnyMatch full", func() { idx.AnyMatch(encoded, arity) }},
				{"Delete absent", func() { del.Delete(absent) }},
			}
			for _, c := range cases {
				if got := testing.AllocsPerRun(100, c.fn); got != 0 {
					t.Errorf("%s: %v allocations per call, want 0", c.name, got)
				}
			}
			if !idx.Contains(present) || !idx.AnyMatch(encoded, arity) || idx.Contains(absent) {
				t.Fatal("membership answers changed under the allocation runs")
			}
		})
	}
}

// MERGE and SUBTRACT walk a B-tree source without a scan buffer: InsertFrom
// into a relation that already holds the source, DeleteFrom from one that
// lacks it, and either from an empty source allocate nothing. Both
// relations have a second index and a non-natural primary, so every tuple is
// decoded and then re-encoded for each index.
func TestInsertFromDeleteFromAllocateNothing(t *testing.T) {
	for _, arity := range []int{1, 2, 3, MaxArity} {
		t.Run(fmt.Sprintf("arity%d", arity), func(t *testing.T) {
			reversed := make(tuple.Order, arity)
			for i := range reversed {
				reversed[i] = arity - 1 - i
			}
			orders := []tuple.Order{reversed, tuple.Identity(arity)}
			src, held, lacking, empty := New("src", BTree, arity, orders), New("held", BTree, arity, orders),
				New("lacking", BTree, arity, orders), New("empty", BTree, arity, orders)
			for i := 0; i < 1000; i++ {
				tp := make(tuple.Tuple, arity)
				for j := range tp {
					tp[j] = value.Value(i * (j + 1))
				}
				src.Insert(tp)
				held.Insert(tp)
				tp[0] += 1 << 30
				lacking.Insert(tp)
			}
			cases := []struct {
				name string
				fn   func()
			}{
				{"InsertFrom held", func() { held.InsertFrom(src) }},
				{"DeleteFrom lacking", func() { lacking.DeleteFrom(src) }},
				{"InsertFrom empty", func() { held.InsertFrom(empty) }},
				{"DeleteFrom empty", func() { held.DeleteFrom(empty) }},
			}
			for _, c := range cases {
				if got := testing.AllocsPerRun(20, c.fn); got != 0 {
					t.Errorf("%s: %v allocations per call, want 0", c.name, got)
				}
			}
			if held.Size() != 1000 || lacking.Size() != 1000 {
				t.Fatalf("sizes changed under the allocation runs: %d, %d", held.Size(), lacking.Size())
			}
		})
	}
}
