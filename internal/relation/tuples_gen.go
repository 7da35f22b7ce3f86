// Code generated by cmd/genspecialized; DO NOT EDIT.

package relation

import (
	"sti/internal/btree"
	"sti/internal/tuple"
	"sti/internal/value"
)

// Tup1 is the fixed-arity key type for arity-1 B-tree indexes.
type Tup1 [1]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup1) Cmp(b Tup1) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Hash folds the key's words into the top bits of a 64-bit word, two words
// per multiplication, for the B-tree's duplicate cache.
func (a Tup1) Hash() uint64 {
	var h uint64
	h = (h ^ (uint64(a[0]))) * hashMul
	return h
}

// KeyTup1 converts the first 1 elements of an encoded tuple to a key. The
// array travels by value, so a caller's stack buffer never escapes through
// the indirect call the engine makes to it.
func KeyTup1(a [MaxArity]value.Value) Tup1 {
	return Tup1(a[:1])
}

// ToTup1 converts a dynamic tuple (first 1 elements) to a key. The
// engine converts with KeyTup1; this form serves callers that hold their
// keys as slices and call it directly.
func ToTup1(t tuple.Tuple) Tup1 {
	var k Tup1
	copy(k[:], t)
	return k
}

// FromTup1 writes a key into a dynamic tuple.
func FromTup1(k Tup1, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup2 is the fixed-arity key type for arity-2 B-tree indexes.
type Tup2 [2]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup2) Cmp(b Tup2) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Hash folds the key's words into the top bits of a 64-bit word, two words
// per multiplication, for the B-tree's duplicate cache.
func (a Tup2) Hash() uint64 {
	var h uint64
	h = (h ^ (uint64(a[0])<<32 | uint64(a[1]))) * hashMul
	return h
}

// KeyTup2 converts the first 2 elements of an encoded tuple to a key. The
// array travels by value, so a caller's stack buffer never escapes through
// the indirect call the engine makes to it.
func KeyTup2(a [MaxArity]value.Value) Tup2 {
	return Tup2(a[:2])
}

// ToTup2 converts a dynamic tuple (first 2 elements) to a key. The
// engine converts with KeyTup2; this form serves callers that hold their
// keys as slices and call it directly.
func ToTup2(t tuple.Tuple) Tup2 {
	var k Tup2
	copy(k[:], t)
	return k
}

// FromTup2 writes a key into a dynamic tuple.
func FromTup2(k Tup2, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup3 is the fixed-arity key type for arity-3 B-tree indexes.
type Tup3 [3]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup3) Cmp(b Tup3) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Hash folds the key's words into the top bits of a 64-bit word, two words
// per multiplication, for the B-tree's duplicate cache.
func (a Tup3) Hash() uint64 {
	var h uint64
	h = (h ^ (uint64(a[0])<<32 | uint64(a[1]))) * hashMul
	h = (h ^ (uint64(a[2]))) * hashMul
	return h
}

// KeyTup3 converts the first 3 elements of an encoded tuple to a key. The
// array travels by value, so a caller's stack buffer never escapes through
// the indirect call the engine makes to it.
func KeyTup3(a [MaxArity]value.Value) Tup3 {
	return Tup3(a[:3])
}

// ToTup3 converts a dynamic tuple (first 3 elements) to a key. The
// engine converts with KeyTup3; this form serves callers that hold their
// keys as slices and call it directly.
func ToTup3(t tuple.Tuple) Tup3 {
	var k Tup3
	copy(k[:], t)
	return k
}

// FromTup3 writes a key into a dynamic tuple.
func FromTup3(k Tup3, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup4 is the fixed-arity key type for arity-4 B-tree indexes.
type Tup4 [4]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup4) Cmp(b Tup4) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Hash folds the key's words into the top bits of a 64-bit word, two words
// per multiplication, for the B-tree's duplicate cache.
func (a Tup4) Hash() uint64 {
	var h uint64
	h = (h ^ (uint64(a[0])<<32 | uint64(a[1]))) * hashMul
	h = (h ^ (uint64(a[2])<<32 | uint64(a[3]))) * hashMul
	return h
}

// KeyTup4 converts the first 4 elements of an encoded tuple to a key. The
// array travels by value, so a caller's stack buffer never escapes through
// the indirect call the engine makes to it.
func KeyTup4(a [MaxArity]value.Value) Tup4 {
	return Tup4(a[:4])
}

// ToTup4 converts a dynamic tuple (first 4 elements) to a key. The
// engine converts with KeyTup4; this form serves callers that hold their
// keys as slices and call it directly.
func ToTup4(t tuple.Tuple) Tup4 {
	var k Tup4
	copy(k[:], t)
	return k
}

// FromTup4 writes a key into a dynamic tuple.
func FromTup4(k Tup4, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup5 is the fixed-arity key type for arity-5 B-tree indexes.
type Tup5 [5]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup5) Cmp(b Tup5) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Hash folds the key's words into the top bits of a 64-bit word, two words
// per multiplication, for the B-tree's duplicate cache.
func (a Tup5) Hash() uint64 {
	var h uint64
	h = (h ^ (uint64(a[0])<<32 | uint64(a[1]))) * hashMul
	h = (h ^ (uint64(a[2])<<32 | uint64(a[3]))) * hashMul
	h = (h ^ (uint64(a[4]))) * hashMul
	return h
}

// KeyTup5 converts the first 5 elements of an encoded tuple to a key. The
// array travels by value, so a caller's stack buffer never escapes through
// the indirect call the engine makes to it.
func KeyTup5(a [MaxArity]value.Value) Tup5 {
	return Tup5(a[:5])
}

// ToTup5 converts a dynamic tuple (first 5 elements) to a key. The
// engine converts with KeyTup5; this form serves callers that hold their
// keys as slices and call it directly.
func ToTup5(t tuple.Tuple) Tup5 {
	var k Tup5
	copy(k[:], t)
	return k
}

// FromTup5 writes a key into a dynamic tuple.
func FromTup5(k Tup5, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup6 is the fixed-arity key type for arity-6 B-tree indexes.
type Tup6 [6]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup6) Cmp(b Tup6) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Hash folds the key's words into the top bits of a 64-bit word, two words
// per multiplication, for the B-tree's duplicate cache.
func (a Tup6) Hash() uint64 {
	var h uint64
	h = (h ^ (uint64(a[0])<<32 | uint64(a[1]))) * hashMul
	h = (h ^ (uint64(a[2])<<32 | uint64(a[3]))) * hashMul
	h = (h ^ (uint64(a[4])<<32 | uint64(a[5]))) * hashMul
	return h
}

// KeyTup6 converts the first 6 elements of an encoded tuple to a key. The
// array travels by value, so a caller's stack buffer never escapes through
// the indirect call the engine makes to it.
func KeyTup6(a [MaxArity]value.Value) Tup6 {
	return Tup6(a[:6])
}

// ToTup6 converts a dynamic tuple (first 6 elements) to a key. The
// engine converts with KeyTup6; this form serves callers that hold their
// keys as slices and call it directly.
func ToTup6(t tuple.Tuple) Tup6 {
	var k Tup6
	copy(k[:], t)
	return k
}

// FromTup6 writes a key into a dynamic tuple.
func FromTup6(k Tup6, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup7 is the fixed-arity key type for arity-7 B-tree indexes.
type Tup7 [7]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup7) Cmp(b Tup7) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Hash folds the key's words into the top bits of a 64-bit word, two words
// per multiplication, for the B-tree's duplicate cache.
func (a Tup7) Hash() uint64 {
	var h uint64
	h = (h ^ (uint64(a[0])<<32 | uint64(a[1]))) * hashMul
	h = (h ^ (uint64(a[2])<<32 | uint64(a[3]))) * hashMul
	h = (h ^ (uint64(a[4])<<32 | uint64(a[5]))) * hashMul
	h = (h ^ (uint64(a[6]))) * hashMul
	return h
}

// KeyTup7 converts the first 7 elements of an encoded tuple to a key. The
// array travels by value, so a caller's stack buffer never escapes through
// the indirect call the engine makes to it.
func KeyTup7(a [MaxArity]value.Value) Tup7 {
	return Tup7(a[:7])
}

// ToTup7 converts a dynamic tuple (first 7 elements) to a key. The
// engine converts with KeyTup7; this form serves callers that hold their
// keys as slices and call it directly.
func ToTup7(t tuple.Tuple) Tup7 {
	var k Tup7
	copy(k[:], t)
	return k
}

// FromTup7 writes a key into a dynamic tuple.
func FromTup7(k Tup7, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup8 is the fixed-arity key type for arity-8 B-tree indexes.
type Tup8 [8]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup8) Cmp(b Tup8) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Hash folds the key's words into the top bits of a 64-bit word, two words
// per multiplication, for the B-tree's duplicate cache.
func (a Tup8) Hash() uint64 {
	var h uint64
	h = (h ^ (uint64(a[0])<<32 | uint64(a[1]))) * hashMul
	h = (h ^ (uint64(a[2])<<32 | uint64(a[3]))) * hashMul
	h = (h ^ (uint64(a[4])<<32 | uint64(a[5]))) * hashMul
	h = (h ^ (uint64(a[6])<<32 | uint64(a[7]))) * hashMul
	return h
}

// KeyTup8 converts the first 8 elements of an encoded tuple to a key. The
// array travels by value, so a caller's stack buffer never escapes through
// the indirect call the engine makes to it.
func KeyTup8(a [MaxArity]value.Value) Tup8 {
	return Tup8(a[:8])
}

// ToTup8 converts a dynamic tuple (first 8 elements) to a key. The
// engine converts with KeyTup8; this form serves callers that hold their
// keys as slices and call it directly.
func ToTup8(t tuple.Tuple) Tup8 {
	var k Tup8
	copy(k[:], t)
	return k
}

// FromTup8 writes a key into a dynamic tuple.
func FromTup8(k Tup8, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup9 is the fixed-arity key type for arity-9 B-tree indexes.
type Tup9 [9]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup9) Cmp(b Tup9) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Hash folds the key's words into the top bits of a 64-bit word, two words
// per multiplication, for the B-tree's duplicate cache.
func (a Tup9) Hash() uint64 {
	var h uint64
	h = (h ^ (uint64(a[0])<<32 | uint64(a[1]))) * hashMul
	h = (h ^ (uint64(a[2])<<32 | uint64(a[3]))) * hashMul
	h = (h ^ (uint64(a[4])<<32 | uint64(a[5]))) * hashMul
	h = (h ^ (uint64(a[6])<<32 | uint64(a[7]))) * hashMul
	h = (h ^ (uint64(a[8]))) * hashMul
	return h
}

// KeyTup9 converts the first 9 elements of an encoded tuple to a key. The
// array travels by value, so a caller's stack buffer never escapes through
// the indirect call the engine makes to it.
func KeyTup9(a [MaxArity]value.Value) Tup9 {
	return Tup9(a[:9])
}

// ToTup9 converts a dynamic tuple (first 9 elements) to a key. The
// engine converts with KeyTup9; this form serves callers that hold their
// keys as slices and call it directly.
func ToTup9(t tuple.Tuple) Tup9 {
	var k Tup9
	copy(k[:], t)
	return k
}

// FromTup9 writes a key into a dynamic tuple.
func FromTup9(k Tup9, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup10 is the fixed-arity key type for arity-10 B-tree indexes.
type Tup10 [10]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup10) Cmp(b Tup10) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Hash folds the key's words into the top bits of a 64-bit word, two words
// per multiplication, for the B-tree's duplicate cache.
func (a Tup10) Hash() uint64 {
	var h uint64
	h = (h ^ (uint64(a[0])<<32 | uint64(a[1]))) * hashMul
	h = (h ^ (uint64(a[2])<<32 | uint64(a[3]))) * hashMul
	h = (h ^ (uint64(a[4])<<32 | uint64(a[5]))) * hashMul
	h = (h ^ (uint64(a[6])<<32 | uint64(a[7]))) * hashMul
	h = (h ^ (uint64(a[8])<<32 | uint64(a[9]))) * hashMul
	return h
}

// KeyTup10 converts the first 10 elements of an encoded tuple to a key. The
// array travels by value, so a caller's stack buffer never escapes through
// the indirect call the engine makes to it.
func KeyTup10(a [MaxArity]value.Value) Tup10 {
	return Tup10(a[:10])
}

// ToTup10 converts a dynamic tuple (first 10 elements) to a key. The
// engine converts with KeyTup10; this form serves callers that hold their
// keys as slices and call it directly.
func ToTup10(t tuple.Tuple) Tup10 {
	var k Tup10
	copy(k[:], t)
	return k
}

// FromTup10 writes a key into a dynamic tuple.
func FromTup10(k Tup10, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup11 is the fixed-arity key type for arity-11 B-tree indexes.
type Tup11 [11]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup11) Cmp(b Tup11) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Hash folds the key's words into the top bits of a 64-bit word, two words
// per multiplication, for the B-tree's duplicate cache.
func (a Tup11) Hash() uint64 {
	var h uint64
	h = (h ^ (uint64(a[0])<<32 | uint64(a[1]))) * hashMul
	h = (h ^ (uint64(a[2])<<32 | uint64(a[3]))) * hashMul
	h = (h ^ (uint64(a[4])<<32 | uint64(a[5]))) * hashMul
	h = (h ^ (uint64(a[6])<<32 | uint64(a[7]))) * hashMul
	h = (h ^ (uint64(a[8])<<32 | uint64(a[9]))) * hashMul
	h = (h ^ (uint64(a[10]))) * hashMul
	return h
}

// KeyTup11 converts the first 11 elements of an encoded tuple to a key. The
// array travels by value, so a caller's stack buffer never escapes through
// the indirect call the engine makes to it.
func KeyTup11(a [MaxArity]value.Value) Tup11 {
	return Tup11(a[:11])
}

// ToTup11 converts a dynamic tuple (first 11 elements) to a key. The
// engine converts with KeyTup11; this form serves callers that hold their
// keys as slices and call it directly.
func ToTup11(t tuple.Tuple) Tup11 {
	var k Tup11
	copy(k[:], t)
	return k
}

// FromTup11 writes a key into a dynamic tuple.
func FromTup11(k Tup11, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup12 is the fixed-arity key type for arity-12 B-tree indexes.
type Tup12 [12]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup12) Cmp(b Tup12) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Hash folds the key's words into the top bits of a 64-bit word, two words
// per multiplication, for the B-tree's duplicate cache.
func (a Tup12) Hash() uint64 {
	var h uint64
	h = (h ^ (uint64(a[0])<<32 | uint64(a[1]))) * hashMul
	h = (h ^ (uint64(a[2])<<32 | uint64(a[3]))) * hashMul
	h = (h ^ (uint64(a[4])<<32 | uint64(a[5]))) * hashMul
	h = (h ^ (uint64(a[6])<<32 | uint64(a[7]))) * hashMul
	h = (h ^ (uint64(a[8])<<32 | uint64(a[9]))) * hashMul
	h = (h ^ (uint64(a[10])<<32 | uint64(a[11]))) * hashMul
	return h
}

// KeyTup12 converts the first 12 elements of an encoded tuple to a key. The
// array travels by value, so a caller's stack buffer never escapes through
// the indirect call the engine makes to it.
func KeyTup12(a [MaxArity]value.Value) Tup12 {
	return Tup12(a[:12])
}

// ToTup12 converts a dynamic tuple (first 12 elements) to a key. The
// engine converts with KeyTup12; this form serves callers that hold their
// keys as slices and call it directly.
func ToTup12(t tuple.Tuple) Tup12 {
	var k Tup12
	copy(k[:], t)
	return k
}

// FromTup12 writes a key into a dynamic tuple.
func FromTup12(k Tup12, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup13 is the fixed-arity key type for arity-13 B-tree indexes.
type Tup13 [13]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup13) Cmp(b Tup13) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Hash folds the key's words into the top bits of a 64-bit word, two words
// per multiplication, for the B-tree's duplicate cache.
func (a Tup13) Hash() uint64 {
	var h uint64
	h = (h ^ (uint64(a[0])<<32 | uint64(a[1]))) * hashMul
	h = (h ^ (uint64(a[2])<<32 | uint64(a[3]))) * hashMul
	h = (h ^ (uint64(a[4])<<32 | uint64(a[5]))) * hashMul
	h = (h ^ (uint64(a[6])<<32 | uint64(a[7]))) * hashMul
	h = (h ^ (uint64(a[8])<<32 | uint64(a[9]))) * hashMul
	h = (h ^ (uint64(a[10])<<32 | uint64(a[11]))) * hashMul
	h = (h ^ (uint64(a[12]))) * hashMul
	return h
}

// KeyTup13 converts the first 13 elements of an encoded tuple to a key. The
// array travels by value, so a caller's stack buffer never escapes through
// the indirect call the engine makes to it.
func KeyTup13(a [MaxArity]value.Value) Tup13 {
	return Tup13(a[:13])
}

// ToTup13 converts a dynamic tuple (first 13 elements) to a key. The
// engine converts with KeyTup13; this form serves callers that hold their
// keys as slices and call it directly.
func ToTup13(t tuple.Tuple) Tup13 {
	var k Tup13
	copy(k[:], t)
	return k
}

// FromTup13 writes a key into a dynamic tuple.
func FromTup13(k Tup13, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup14 is the fixed-arity key type for arity-14 B-tree indexes.
type Tup14 [14]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup14) Cmp(b Tup14) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Hash folds the key's words into the top bits of a 64-bit word, two words
// per multiplication, for the B-tree's duplicate cache.
func (a Tup14) Hash() uint64 {
	var h uint64
	h = (h ^ (uint64(a[0])<<32 | uint64(a[1]))) * hashMul
	h = (h ^ (uint64(a[2])<<32 | uint64(a[3]))) * hashMul
	h = (h ^ (uint64(a[4])<<32 | uint64(a[5]))) * hashMul
	h = (h ^ (uint64(a[6])<<32 | uint64(a[7]))) * hashMul
	h = (h ^ (uint64(a[8])<<32 | uint64(a[9]))) * hashMul
	h = (h ^ (uint64(a[10])<<32 | uint64(a[11]))) * hashMul
	h = (h ^ (uint64(a[12])<<32 | uint64(a[13]))) * hashMul
	return h
}

// KeyTup14 converts the first 14 elements of an encoded tuple to a key. The
// array travels by value, so a caller's stack buffer never escapes through
// the indirect call the engine makes to it.
func KeyTup14(a [MaxArity]value.Value) Tup14 {
	return Tup14(a[:14])
}

// ToTup14 converts a dynamic tuple (first 14 elements) to a key. The
// engine converts with KeyTup14; this form serves callers that hold their
// keys as slices and call it directly.
func ToTup14(t tuple.Tuple) Tup14 {
	var k Tup14
	copy(k[:], t)
	return k
}

// FromTup14 writes a key into a dynamic tuple.
func FromTup14(k Tup14, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup15 is the fixed-arity key type for arity-15 B-tree indexes.
type Tup15 [15]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup15) Cmp(b Tup15) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Hash folds the key's words into the top bits of a 64-bit word, two words
// per multiplication, for the B-tree's duplicate cache.
func (a Tup15) Hash() uint64 {
	var h uint64
	h = (h ^ (uint64(a[0])<<32 | uint64(a[1]))) * hashMul
	h = (h ^ (uint64(a[2])<<32 | uint64(a[3]))) * hashMul
	h = (h ^ (uint64(a[4])<<32 | uint64(a[5]))) * hashMul
	h = (h ^ (uint64(a[6])<<32 | uint64(a[7]))) * hashMul
	h = (h ^ (uint64(a[8])<<32 | uint64(a[9]))) * hashMul
	h = (h ^ (uint64(a[10])<<32 | uint64(a[11]))) * hashMul
	h = (h ^ (uint64(a[12])<<32 | uint64(a[13]))) * hashMul
	h = (h ^ (uint64(a[14]))) * hashMul
	return h
}

// KeyTup15 converts the first 15 elements of an encoded tuple to a key. The
// array travels by value, so a caller's stack buffer never escapes through
// the indirect call the engine makes to it.
func KeyTup15(a [MaxArity]value.Value) Tup15 {
	return Tup15(a[:15])
}

// ToTup15 converts a dynamic tuple (first 15 elements) to a key. The
// engine converts with KeyTup15; this form serves callers that hold their
// keys as slices and call it directly.
func ToTup15(t tuple.Tuple) Tup15 {
	var k Tup15
	copy(k[:], t)
	return k
}

// FromTup15 writes a key into a dynamic tuple.
func FromTup15(k Tup15, t tuple.Tuple) {
	copy(t, k[:])
}

// Tup16 is the fixed-arity key type for arity-16 B-tree indexes.
type Tup16 [16]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup16) Cmp(b Tup16) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Hash folds the key's words into the top bits of a 64-bit word, two words
// per multiplication, for the B-tree's duplicate cache.
func (a Tup16) Hash() uint64 {
	var h uint64
	h = (h ^ (uint64(a[0])<<32 | uint64(a[1]))) * hashMul
	h = (h ^ (uint64(a[2])<<32 | uint64(a[3]))) * hashMul
	h = (h ^ (uint64(a[4])<<32 | uint64(a[5]))) * hashMul
	h = (h ^ (uint64(a[6])<<32 | uint64(a[7]))) * hashMul
	h = (h ^ (uint64(a[8])<<32 | uint64(a[9]))) * hashMul
	h = (h ^ (uint64(a[10])<<32 | uint64(a[11]))) * hashMul
	h = (h ^ (uint64(a[12])<<32 | uint64(a[13]))) * hashMul
	h = (h ^ (uint64(a[14])<<32 | uint64(a[15]))) * hashMul
	return h
}

// KeyTup16 converts the first 16 elements of an encoded tuple to a key. The
// array travels by value, so a caller's stack buffer never escapes through
// the indirect call the engine makes to it.
func KeyTup16(a [MaxArity]value.Value) Tup16 {
	return Tup16(a[:16])
}

// ToTup16 converts a dynamic tuple (first 16 elements) to a key. The
// engine converts with KeyTup16; this form serves callers that hold their
// keys as slices and call it directly.
func ToTup16(t tuple.Tuple) Tup16 {
	var k Tup16
	copy(k[:], t)
	return k
}

// FromTup16 writes a key into a dynamic tuple.
func FromTup16(k Tup16, t tuple.Tuple) {
	copy(t, k[:])
}

// hashMul is 2^64 divided by the golden ratio: a multiplication by it moves
// every bit of a word into the top bits, which the duplicate cache indexes.
const hashMul = 0x9e3779b97f4a7c15

// newBTreeIndex is the arity factory for B-tree indexes (paper Fig 7).
func newBTreeIndex(order tuple.Order) Index {
	switch len(order) {
	case 1:
		return newBTreeAdapter[Tup1](order, KeyTup1, FromTup1)
	case 2:
		return newBTreeAdapter[Tup2](order, KeyTup2, FromTup2)
	case 3:
		return newBTreeAdapter[Tup3](order, KeyTup3, FromTup3)
	case 4:
		return newBTreeAdapter[Tup4](order, KeyTup4, FromTup4)
	case 5:
		return newBTreeAdapter[Tup5](order, KeyTup5, FromTup5)
	case 6:
		return newBTreeAdapter[Tup6](order, KeyTup6, FromTup6)
	case 7:
		return newBTreeAdapter[Tup7](order, KeyTup7, FromTup7)
	case 8:
		return newBTreeAdapter[Tup8](order, KeyTup8, FromTup8)
	case 9:
		return newBTreeAdapter[Tup9](order, KeyTup9, FromTup9)
	case 10:
		return newBTreeAdapter[Tup10](order, KeyTup10, FromTup10)
	case 11:
		return newBTreeAdapter[Tup11](order, KeyTup11, FromTup11)
	case 12:
		return newBTreeAdapter[Tup12](order, KeyTup12, FromTup12)
	case 13:
		return newBTreeAdapter[Tup13](order, KeyTup13, FromTup13)
	case 14:
		return newBTreeAdapter[Tup14](order, KeyTup14, FromTup14)
	case 15:
		return newBTreeAdapter[Tup15](order, KeyTup15, FromTup15)
	case 16:
		return newBTreeAdapter[Tup16](order, KeyTup16, FromTup16)
	default:
		panic("relation: arity not supported by the specialized B-tree factory")
	}
}

// NewHint is the arity factory for B-tree read fingers: a fresh
// *btree.Hint[TupN] for the trees of an arity-N index. A reader keeps it
// with its own state (a query context) and passes it to that index's
// full-key lookups.
func NewHint(arity int) any {
	switch arity {
	case 1:
		return new(btree.Hint[Tup1])
	case 2:
		return new(btree.Hint[Tup2])
	case 3:
		return new(btree.Hint[Tup3])
	case 4:
		return new(btree.Hint[Tup4])
	case 5:
		return new(btree.Hint[Tup5])
	case 6:
		return new(btree.Hint[Tup6])
	case 7:
		return new(btree.Hint[Tup7])
	case 8:
		return new(btree.Hint[Tup8])
	case 9:
		return new(btree.Hint[Tup9])
	case 10:
		return new(btree.Hint[Tup10])
	case 11:
		return new(btree.Hint[Tup11])
	case 12:
		return new(btree.Hint[Tup12])
	case 13:
		return new(btree.Hint[Tup13])
	case 14:
		return new(btree.Hint[Tup14])
	case 15:
		return new(btree.Hint[Tup15])
	case 16:
		return new(btree.Hint[Tup16])
	default:
		panic("relation: arity not supported by the specialized B-tree factory")
	}
}

// btreeImplOf recovers the concrete tree type name for diagnostics.
var _ = btree.New[Tup1] // keep the btree import when templates change
