package btree

import (
	"reflect"
	"unsafe"
)

// WordKey marks a word key: a key type that is an array of uint32 words and
// whose Cmp is the unsigned lexicographic order of those words, first word
// first. The engine's fixed-arity tuples (relation.Tup1..Tup16) carry it.
//
// Go compiles a generic function once per GC shape, and every method call on
// a type parameter goes through the shape's dictionary: Cmp is an indirect
// call that is never inlined, on every comparison. A tree of word keys
// compares their words itself instead (lessWords), a loop over
// unsafe.Sizeof(K)/4 words, a constant per shape, that the compiler inlines
// into every search. Every other key (the legacy store's runtime-compared
// keys, §5.1) keeps calling its Cmp.
type WordKey interface {
	WordKey()
}

// isWordKey reports whether K is a word key: it carries the marker and is
// an array of uint32, so its words are all of its bytes. New asks once per
// tree; the answer is a fact of K.
func isWordKey[K Key[K]]() bool {
	var k K
	if _, ok := any(k).(WordKey); !ok {
		return false
	}
	t := reflect.TypeOf(k)
	return t.Kind() == reflect.Array && t.Elem().Kind() == reflect.Uint32 && t.Len() > 0
}

// lessWords reports whether the word key a orders before b: whether, at the
// first word where they differ, a's is the smaller, unsigned. That is the
// order their Cmp defines; with == it answers every question the tree asks.
// A two-word key, the commonest, is compared as one uint64 whose high half
// is its first word.
func lessWords[K any](a, b *K) bool {
	pa, pb := unsafe.Pointer(a), unsafe.Pointer(b)
	if unsafe.Sizeof(*a) == 8 {
		return uint64(*(*uint32)(pa))<<32|uint64(*(*uint32)(unsafe.Add(pa, 4))) < uint64(*(*uint32)(pb))<<32|uint64(*(*uint32)(unsafe.Add(pb, 4)))
	}
	for i := uintptr(0); i < unsafe.Sizeof(*a); i += 4 {
		if x, y := *(*uint32)(unsafe.Add(pa, i)), *(*uint32)(unsafe.Add(pb, i)); x != y {
			return x < y
		}
	}
	return false
}
