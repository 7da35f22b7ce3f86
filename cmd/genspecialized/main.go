// Command genspecialized generates the per-arity specialized code that the
// paper produces with C++ macros (Figs 8-11): fixed-arity tuple key types
// with inlinable comparisons, key conversion glue (arrays in by value, keys
// out into a tuple), the B-tree index factory covering arities
// 1..MaxArity, and the interpreter's specialized instruction dispatch.
//
// Run from the repository root:
//
//	go run ./cmd/genspecialized
//
// The generated files are committed; this command only needs re-running when
// the maximum arity or the instruction templates change.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
)

const maxArity = 16

func main() {
	log.SetFlags(0)
	log.SetPrefix("genspecialized: ")
	only := flag.String("only", "", "generate only one target: relation | interp | compile")
	check := flag.Bool("check", false, "verify the committed files are up to date instead of writing")
	flag.Parse()
	emit := func(path string, data []byte) {
		if *check {
			verify(path, data)
		} else {
			write(path, data)
		}
	}
	if *only == "" || *only == "relation" {
		emit("internal/relation/tuples_gen.go", genTuples())
	}
	if *only == "" || *only == "interp" {
		emit("internal/interp/specialized_gen.go", genInterp())
	}
	if *only == "" || *only == "compile" {
		emit("internal/compile/dispatch_gen.go", genCompile())
	}
	log.Print("done")
}

func write(path string, data []byte) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d bytes)", path, len(data))
}

func verify(path string, want []byte) {
	got, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		log.Fatalf("%s is stale; re-run go run ./cmd/genspecialized", path)
	}
	log.Printf("%s is up to date", path)
}

// hashBody returns the unrolled body of TupN.Hash: the words packed two to a
// uint64, each pair xored into the running hash and multiplied by hashMul.
func hashBody(n int) string {
	var b bytes.Buffer
	b.WriteString("\tvar h uint64\n")
	for i := 0; i < n; i += 2 {
		pair := fmt.Sprintf("uint64(a[%d])", i)
		if i+1 < n {
			pair = fmt.Sprintf("uint64(a[%d])<<32 | uint64(a[%d])", i, i+1)
		}
		fmt.Fprintf(&b, "\th = (h ^ (%s)) * hashMul\n", pair)
	}
	b.WriteString("\treturn h\n")
	return b.String()
}

func genTuples() []byte {
	var b bytes.Buffer
	b.WriteString(`// Code generated by cmd/genspecialized; DO NOT EDIT.

package relation

import (
	"sti/internal/btree"
	"sti/internal/tuple"
	"sti/internal/value"
)
`)
	for n := 1; n <= maxArity; n++ {
		fmt.Fprintf(&b, `
// Tup%[1]d is the fixed-arity key type for arity-%[1]d B-tree indexes.
type Tup%[1]d [%[1]d]value.Value

// Cmp lexicographically compares two keys by unsigned bit-pattern order.
func (a Tup%[1]d) Cmp(b Tup%[1]d) int {
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
func (a Tup%[1]d) Hash() uint64 {
%[2]s}

// KeyTup%[1]d converts the first %[1]d elements of an encoded tuple to a key. The
// array travels by value, so a caller's stack buffer never escapes through
// the indirect call the engine makes to it.
func KeyTup%[1]d(a [MaxArity]value.Value) Tup%[1]d {
	return Tup%[1]d(a[:%[1]d])
}

// ToTup%[1]d converts a dynamic tuple (first %[1]d elements) to a key. The
// engine converts with KeyTup%[1]d; this form serves callers that hold their
// keys as slices and call it directly.
func ToTup%[1]d(t tuple.Tuple) Tup%[1]d {
	var k Tup%[1]d
	copy(k[:], t)
	return k
}

// FromTup%[1]d writes a key into a dynamic tuple.
func FromTup%[1]d(k Tup%[1]d, t tuple.Tuple) {
	copy(t, k[:])
}
`, n, hashBody(n))
	}
	b.WriteString(`
// hashMul is 2^64 divided by the golden ratio: a multiplication by it moves
// every bit of a word into the top bits, which the duplicate cache indexes.
const hashMul = 0x9e3779b97f4a7c15

// newBTreeIndex is the arity factory for B-tree indexes (paper Fig 7).
func newBTreeIndex(order tuple.Order) Index {
	switch len(order) {
`)
	for n := 1; n <= maxArity; n++ {
		fmt.Fprintf(&b, "\tcase %d:\n\t\treturn newBTreeAdapter[Tup%d](order, KeyTup%d, FromTup%d)\n", n, n, n, n)
	}
	b.WriteString(`	default:
		panic("relation: arity not supported by the specialized B-tree factory")
	}
}

// NewHint is the arity factory for B-tree read fingers: a fresh
// *btree.Hint[TupN] for the trees of an arity-N index. A reader keeps it
// with its own state (a query context) and passes it to that index's
// full-key lookups.
func NewHint(arity int) any {
	switch arity {
`)
	for n := 1; n <= maxArity; n++ {
		fmt.Fprintf(&b, "\tcase %d:\n\t\treturn new(btree.Hint[Tup%d])\n", n, n)
	}
	b.WriteString(`	default:
		panic("relation: arity not supported by the specialized B-tree factory")
	}
}

// btreeImplOf recovers the concrete tree type name for diagnostics.
var _ = btree.New[Tup1] // keep the btree import when templates change
`)
	return b.Bytes()
}
