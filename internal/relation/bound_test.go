package relation

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sti/internal/metrics"
	"sti/internal/tuple"
	"sti/internal/value"
)

func TestBoundKeys(t *testing.T) {
	n := func(i int32) value.Value { return value.FromInt(i) }
	const max = math.MaxUint32
	for _, c := range []struct {
		name   string
		b      Bound
		lo, hi value.Value
		ok     bool
	}{
		{"unsigned exact", Bound{Type: value.Unsigned, Lo: 3, Hi: 3000000000, HasLo: true, HasHi: true}, 3, 3000000000, true},
		{"unsigned strict", Bound{Type: value.Unsigned, Lo: 3, Hi: 3000000000, HasLo: true, HasHi: true, LoStrict: true, HiStrict: true}, 4, 2999999999, true},
		{"unsigned open", Bound{Type: value.Unsigned, Lo: 1 << 31, HasLo: true}, 1 << 31, max, true},
		{"unsigned above max", Bound{Type: value.Unsigned, Lo: max, HasLo: true, LoStrict: true}, 0, 0, false},
		{"unsigned below zero", Bound{Type: value.Unsigned, Hi: 0, HasHi: true, HiStrict: true}, 0, 0, false},
		{"number non-negative", Bound{Type: value.Number, Lo: n(5), HasLo: true, LoStrict: true}, 6, math.MaxInt32, true},
		{"number from zero", Bound{Type: value.Number, Lo: n(0), HasLo: true}, 0, math.MaxInt32, true},
		{"number negative", Bound{Type: value.Number, Lo: n(-7), Hi: n(-1), HasLo: true, HasHi: true}, n(-7), n(-1), true},
		{"number below zero", Bound{Type: value.Number, Hi: n(0), HasHi: true, HiStrict: true}, n(math.MinInt32), n(-1), true},
		{"number straddles zero", Bound{Type: value.Number, Lo: n(-1), Hi: n(1), HasLo: true, HasHi: true}, 0, max, true},
		{"number upper only", Bound{Type: value.Number, Hi: n(5), HasHi: true}, 0, max, true},
		{"number above MaxInt32", Bound{Type: value.Number, Lo: n(math.MaxInt32), HasLo: true, LoStrict: true}, 0, 0, false},
		{"number at MaxInt32", Bound{Type: value.Number, Lo: n(math.MaxInt32), HasLo: true}, math.MaxInt32, math.MaxInt32, true},
		{"number below MinInt32", Bound{Type: value.Number, Hi: n(math.MinInt32), HasHi: true, HiStrict: true}, 0, 0, false},
		{"number empty", Bound{Type: value.Number, Lo: n(4), Hi: n(4), HasLo: true, HasHi: true, LoStrict: true}, 0, 0, false},
		{"float never narrows", Bound{Type: value.Float, Lo: value.FromFloat(1.5), HasLo: true}, 0, max, true},
		{"symbol never narrows", Bound{Type: value.Symbol, Lo: 2, Hi: 1, HasLo: true, HasHi: true}, 0, max, true},
	} {
		lo, hi, ok := c.b.Keys()
		if ok != c.ok || ok && (lo != c.lo || hi != c.hi) {
			t.Errorf("%s: Keys() = [%#x, %#x] %v, want [%#x, %#x] %v", c.name, lo, hi, ok, c.lo, c.hi, c.ok)
		}
	}
}

// TestBoundKeysSound checks Keys against the typed comparison on every
// edge word: no word the bound admits falls outside the key interval.
func TestBoundKeysSound(t *testing.T) {
	words := []value.Value{0, 1, 2, 7, math.MaxInt32 - 1, math.MaxInt32, 1 << 31, 1<<31 + 1, math.MaxUint32 - 7, math.MaxUint32 - 1, math.MaxUint32}
	for _, typ := range []value.Type{value.Number, value.Unsigned} {
		for _, lo := range words {
			for _, hi := range words {
				for flags := 0; flags < 16; flags++ {
					b := Bound{Type: typ, Lo: lo, Hi: hi, HasLo: flags&1 != 0, HasHi: flags&2 != 0, LoStrict: flags&4 != 0, HiStrict: flags&8 != 0}
					klo, khi, ok := b.Keys()
					for _, w := range words {
						admits := (!b.HasLo || value.Compare(typ, w, lo) > 0 || !b.LoStrict && w == lo) &&
							(!b.HasHi || value.Compare(typ, w, hi) < 0 || !b.HiStrict && w == hi)
						if admits && (!ok || w < klo || w > khi) {
							t.Fatalf("%v bound %+v admits %#x, outside Keys() = [%#x, %#x] %v", typ, b, w, klo, khi, ok)
						}
					}
				}
			}
		}
	}
}

// TestRangeScanContract: RangeScan answers a prefix search narrowed on the
// next position exactly, in encoded order, on every store with the Ranger
// capability (through the counted wrapper too); every other store answers
// with its prefix scan, a superset.
func TestRangeScanContract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	words := []value.Value{0, 1, 5, 9, math.MaxInt32, 1 << 31, 3000000000, math.MaxUint32}
	word := func() value.Value {
		if rng.Intn(2) == 0 {
			return words[rng.Intn(len(words))]
		}
		return value.Value(rng.Intn(12))
	}
	for _, order := range []tuple.Order{{0, 1}, {1, 0}, {2, 0, 1}} {
		for _, im := range implementers() {
			for _, wrap := range []bool{false, true} {
				idx := im.mk(t, order)
				if idx == nil || im.name == "eqrel" { // eqrel stores the closure, not the inserts
					continue
				}
				ops := &metrics.IndexOps{}
				if wrap {
					idx = counted(idx, ops)
				}
				_, ranger := idx.(Ranger)
				if c, ok := idx.(interface{ inner() Index }); ok {
					_, ranger = c.inner().(Ranger)
				}
				arity := len(order)
				var stored []tuple.Tuple
				for i := 0; i < 60; i++ {
					src := make(tuple.Tuple, arity)
					for j := range src {
						src[j] = word()
					}
					idx.Insert(src)
					enc := make(tuple.Tuple, arity)
					order.Encode(enc, src)
					stored = append(stored, enc)
				}
				sortTuples(stored)
				stored = slices.CompactFunc(stored, func(a, b tuple.Tuple) bool { return tuple.Compare(a, b) == 0 })
				for q := 0; q < 40; q++ {
					k := rng.Intn(arity)
					pattern := make(tuple.Tuple, arity)
					if len(stored) > 0 {
						copy(pattern, stored[rng.Intn(len(stored))])
					}
					lo, hi := word(), word()
					var want []tuple.Tuple
					for _, s := range stored {
						if tuple.Compare(s[:k], pattern[:k]) == 0 && s[k] >= lo && s[k] <= hi {
							want = append(want, s)
						}
					}
					got := drain(RangeScan(idx, pattern, k, lo, hi))
					if !ranger {
						got = slices.DeleteFunc(got, func(s tuple.Tuple) bool { return s[k] < lo || s[k] > hi })
						sortTuples(got)
					}
					if len(got) != len(want) || !slices.EqualFunc(got, want, func(a, b tuple.Tuple) bool { return tuple.Compare(a, b) == 0 }) {
						t.Fatalf("%s (counted %v) order %v: RangeScan(%v, k=%d, [%#x, %#x]) = %v, want %v", im.name, wrap, order, pattern, k, lo, hi, got, want)
					}
				}
				// A sharded index counts once per shard a search visits.
				if wrap && im.shards == 0 && ops.RangeScans.Load() != 40 {
					t.Fatalf("%s: counted %d range scans, want 40", im.name, ops.RangeScans.Load())
				}
			}
		}
	}
}
