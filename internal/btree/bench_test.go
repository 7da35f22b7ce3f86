package btree

import (
	"math/rand"
	"testing"
)

func benchKeys(n int) []k2 {
	rng := rand.New(rand.NewSource(1))
	keys := make([]k2, n)
	for i := range keys {
		keys[i] = k2{rng.Uint32(), rng.Uint32()}
	}
	return keys
}

func BenchmarkInsertRandom(b *testing.B) {
	keys := benchKeys(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New[k2]()
		for _, k := range keys {
			tr.Insert(k)
		}
	}
}

func BenchmarkInsertSequential(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := New[k2]()
		for j := 0; j < 1<<16; j++ {
			tr.Insert(k2{uint32(j), 0})
		}
	}
}

func BenchmarkContainsHit(b *testing.B) {
	keys := benchKeys(1 << 16)
	tr := New[k2]()
	for _, k := range keys {
		tr.Insert(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Contains(keys[i&(1<<16-1)])
	}
}

// sweepKeys returns the 64 k keys {a, c} for a, c < 256 in ascending order:
// the order a join's inner loop emits them in.
func sweepKeys() []k2 {
	keys := make([]k2, 0, 1<<16)
	for a := uint32(0); a < 256; a++ {
		for c := uint32(0); c < 256; c++ {
			keys = append(keys, k2{a, c})
		}
	}
	return keys
}

// BenchmarkInsertDupSweep is the shape of a self-join like
// aliased(a,b) :- vpt(a,h), vpt(b,h): ascending sweeps of keys of which
// almost all are already present. The tree starts without every 32nd key,
// which the first sweep adds; an insert costs one leaf search when the
// writer hint covers the key.
func BenchmarkInsertDupSweep(b *testing.B) {
	keys := sweepKeys()
	tr := New[k2]()
	for i, k := range keys {
		if i%32 != 0 {
			tr.Insert(k)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(keys[i&(1<<16-1)])
	}
}

// restartKeys returns 64 k keys in the order the self-join
// aliased(a,b) :- vpt(a,h), vpt(b,h), a < b derives them: for every outer a,
// ascending sweeps over a's window of 64 second columns that restart for
// every h, each sweep from a random start with a random stride.
func restartKeys() []k2 {
	rng := rand.New(rand.NewSource(1))
	keys := make([]k2, 0, 1<<16)
	for a := uint32(0); len(keys) < 1<<16; a = (a + 1) % 1024 {
		for h := 0; h < 8; h++ {
			for c := uint32(rng.Intn(32)); c < 64 && len(keys) < 1<<16; c += uint32(1 + rng.Intn(4)) {
				keys = append(keys, k2{a, c})
			}
		}
	}
	return keys
}

// BenchmarkInsertDupRestart is the shape of the self-join above: each
// restart leaves the leaf the writer hint holds, so without the duplicate
// cache almost every insert descends from the root to a key it finds. The
// tree holds the 64 k keys {a, c} for a < 1024, c < 64 but every 32nd.
func BenchmarkInsertDupRestart(b *testing.B) {
	tr := New[k2]()
	for a := uint32(0); a < 1024; a++ {
		for c := uint32(0); c < 64; c++ {
			if (a*64+c)%32 != 0 {
				tr.Insert(k2{a, c})
			}
		}
	}
	keys := restartKeys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(keys[i&(1<<16-1)])
	}
}

func BenchmarkIterate(b *testing.B) {
	keys := benchKeys(1 << 16)
	tr := New[k2]()
	for _, k := range keys {
		tr.Insert(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := tr.Iter()
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}
}

// BenchmarkScanShortRange is the shape of a join's inner prefix search: a
// range holding a couple of keys in a tree of 64 k, drained.
func BenchmarkScanShortRange(b *testing.B) {
	keys := benchKeys(1 << 16)
	tr := New[k2]()
	for _, k := range keys {
		tr.Insert(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(1<<16-1)]
		it := tr.Range(k2{k[0], 0}, k2{k[0], ^uint32(0)})
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}
}

func BenchmarkRangeQuery(b *testing.B) {
	tr := New[k2]()
	for a := uint32(0); a < 1024; a++ {
		for c := uint32(0); c < 64; c++ {
			tr.Insert(k2{a, c})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := tr.Range(k2{uint32(i) & 1023, 0}, k2{uint32(i) & 1023, ^uint32(0)})
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}
}
