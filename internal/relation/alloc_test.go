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
