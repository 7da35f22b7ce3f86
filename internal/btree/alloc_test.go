package btree

import "testing"

// The tree's read path is allocation-free: iterators are values with a
// fixed-depth traversal stack, so seeking, range-bounding and draining one
// allocates nothing, whatever the tree's height.
func TestReadPathAllocatesNothing(t *testing.T) {
	tr := New[k2]()
	for _, k := range benchKeys(100_000) {
		tr.Insert(k)
	}
	lo, hi := k2{1 << 30, 0}, k2{1 << 31, 0}
	drainAll := func(it Iter[k2]) {
		for _, ok := it.Next(); ok; _, ok = it.Next() {
		}
	}
	cases := []struct {
		name string
		fn   func()
	}{
		{"Iter", func() { drainAll(tr.Iter()) }},
		{"Seek", func() { drainAll(tr.Seek(lo)) }},
		{"Range", func() { drainAll(tr.Range(lo, hi)) }},
		{"SeekBefore", func() { drainAll(tr.SeekBefore(&lo, &hi)) }},
		{"SeekBefore/unbounded", func() { drainAll(tr.SeekBefore(nil, nil)) }},
		{"Contains", func() { tr.Contains(lo) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(20, c.fn); got != 0 {
			t.Errorf("%s: %v allocations per run, want 0", c.name, got)
		}
	}
}
