package relation

import (
	"testing"

	"sti/internal/btree"
	"sti/internal/tuple"
	"sti/internal/value"
)

// These micro-benchmarks quantify the gap the paper's §4.1 closes: the same
// scan through the dynamic adapter (interface + buffered iterator) vs the
// concrete specialized tree.

func populated(n int) Index {
	idx := NewIndex(BTree, tuple.Identity(2))
	t := make(tuple.Tuple, 2)
	for i := 0; i < n; i++ {
		t[0] = value.Value(i % 251)
		t[1] = value.Value(i)
		idx.Insert(t)
	}
	return idx
}

func BenchmarkScanDynamicAdapter(b *testing.B) {
	idx := populated(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := idx.Scan()
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}
}

func BenchmarkScanStaticTree(b *testing.B) {
	idx := populated(1 << 16)
	tree := Impl(idx).(*btree.Tree[Tup2])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := tree.Iter()
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}
}

func BenchmarkInsertDynamicAdapter(b *testing.B) {
	t := make(tuple.Tuple, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		idx := NewIndex(BTree, tuple.Identity(2))
		b.StartTimer()
		for j := 0; j < 1<<14; j++ {
			t[0] = value.Value(j % 251)
			t[1] = value.Value(j)
			idx.Insert(t)
		}
	}
}

func BenchmarkInsertStaticTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tree := btree.New[Tup2]()
		b.StartTimer()
		for j := 0; j < 1<<14; j++ {
			tree.Insert(Tup2{value.Value(j % 251), value.Value(j)})
		}
	}
}

func BenchmarkContainsDynamicAdapter(b *testing.B) {
	idx := populated(1 << 16)
	t := make(tuple.Tuple, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (1<<16 - 1)
		t[0], t[1] = value.Value(j%251), value.Value(j)
		idx.Contains(t)
	}
}

// BenchmarkPrefixScanDynamicAdapter is a join's inner search through the
// adapter: bind the first column, drain the ~261 matches.
func BenchmarkPrefixScanDynamicAdapter(b *testing.B) {
	idx := populated(1 << 16)
	pat := make(tuple.Tuple, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pat[0] = value.Value(i % 251)
		it := idx.PrefixScan(pat, 1)
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}
}

func BenchmarkAnyMatch(b *testing.B) {
	idx := populated(1 << 16)
	pat := tuple.Tuple{100, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.AnyMatch(pat, 1)
	}
}
