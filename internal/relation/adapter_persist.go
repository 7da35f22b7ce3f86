package relation

import (
	"fmt"

	"sti/internal/store"
	"sti/internal/tuple"
	"sti/internal/value"
)

// persistAdapter is the dynamic adapter over a store.Table: a sixth
// representation kept as an exhibit of the seam (see Tier for why it is
// still here and what may use it). Tuples are re-encoded to the
// index's lexicographic order like every other adapter, then serialized
// with the order-preserving byte codec (internal/tuple), so the table's
// byte-comparison searches implement exactly the adapter contract:
// PrefixScan is a key-range scan between a prefix and its successor, and
// PartitionScan splits at sampled separator keys.
//
// There is no specialized static instruction set for this representation;
// the interpreter's generator falls back to the generic dynamic opcodes,
// which is the de-specialization seam doing its job (§3).
type persistAdapter struct {
	tab   *store.Table
	order tuple.Order
	arity int
}

func newPersistAdapter(tab *store.Table, order tuple.Order) *persistAdapter {
	return &persistAdapter{tab: tab, order: order, arity: len(order)}
}

func (a *persistAdapter) Order() tuple.Order { return a.order }
func (a *persistAdapter) Size() int          { return a.tab.Len() }
func (a *persistAdapter) Clear()             { a.tab.Clear() }
func (a *persistAdapter) impl() any          { return a.tab }

// persistKeyMax bounds the stack buffer for encoded keys.
const persistKeyMax = MaxArity * tuple.KeyWidth

// encode re-orders t and serializes it into buf, returning the key view.
func (a *persistAdapter) encode(buf []byte, t tuple.Tuple) []byte {
	var enc [MaxArity]value.Value
	a.order.Encode(enc[:a.arity], t)
	return tuple.AppendKey(buf[:0], enc[:a.arity])
}

func (a *persistAdapter) Insert(t tuple.Tuple) bool {
	var buf [persistKeyMax]byte
	return a.tab.Insert(a.encode(buf[:], t))
}

func (a *persistAdapter) Delete(t tuple.Tuple) bool {
	var buf [persistKeyMax]byte
	return a.tab.Delete(a.encode(buf[:], t))
}

func (a *persistAdapter) Contains(t tuple.Tuple) bool {
	var buf [persistKeyMax]byte
	return a.tab.Contains(a.encode(buf[:], t))
}

func (a *persistAdapter) ContainsEncoded(t tuple.Tuple) bool {
	var buf [persistKeyMax]byte
	return a.tab.Contains(tuple.AppendKey(buf[:0], t))
}

// SwapContents is unsupported: only auxiliary delta/new relations swap
// during evaluation, and the tier policy keeps those in memory, so a swap
// reaching a persistent index is an engine bug.
func (a *persistAdapter) SwapContents(other Index) {
	panic(fmt.Sprintf("relation: SwapContents on persistent index (table %s)", a.tab.Name()))
}

func (a *persistAdapter) Scan() Iterator {
	return newBuffered(&persistBatch{cur: a.tab.Range(nil, nil)}, a.arity)
}

func (a *persistAdapter) PrefixScan(pattern tuple.Tuple, k int) Iterator {
	if k == 0 {
		return newBuffered(&persistBatch{cur: a.tab.Range(nil, nil)}, a.arity)
	}
	lo := tuple.AppendKey(make([]byte, 0, tuple.KeySize(k)), pattern[:k])
	return newBuffered(&persistBatch{cur: a.tab.Range(lo, tuple.PrefixSuccessor(lo))}, a.arity)
}

func (a *persistAdapter) AnyMatch(pattern tuple.Tuple, k int) bool {
	if k == 0 {
		return a.tab.Len() > 0
	}
	lo := tuple.AppendKey(make([]byte, 0, tuple.KeySize(k)), pattern[:k])
	_, ok := a.tab.Range(lo, tuple.PrefixSuccessor(lo)).Next()
	return ok
}

// PartitionScan splits the keyspace at sampled separator keys into up to n
// disjoint, collectively exhaustive ranges.
func (a *persistAdapter) PartitionScan(n int) []Iterator {
	seps := a.tab.SampleKeys(n)
	if len(seps) == 0 {
		return []Iterator{a.Scan()}
	}
	var out []Iterator
	var lo []byte
	for _, hi := range seps {
		out = append(out, newBuffered(&persistBatch{cur: a.tab.Range(lo, hi)}, a.arity))
		lo = hi
	}
	out = append(out, newBuffered(&persistBatch{cur: a.tab.Range(lo, nil)}, a.arity))
	return out
}

// persistBatch adapts a store cursor to the wide batcher call, decoding
// keys straight into the caller's tuple slots.
type persistBatch struct {
	cur *store.Cursor
}

func (s *persistBatch) nextBatch(dst []tuple.Tuple) int {
	for i := range dst {
		k, ok := s.cur.Next()
		if !ok {
			return i
		}
		tuple.DecodeKey(dst[i], k)
	}
	return len(dst)
}
