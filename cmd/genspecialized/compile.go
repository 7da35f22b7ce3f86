package main

import (
	"bytes"
	"fmt"
)

// genCompile emits the closure compiler's typed dispatch: one function per
// builder kind that type-switches the concrete B-tree instance and calls
// the generic builder with the matching arity's conversion glue. This is
// the compile-time analog of the interpreter's specialized opcodes: the
// dispatch happens once while compiling the program, never at execution.
func genCompile() []byte {
	var b bytes.Buffer
	b.WriteString(`// Code generated by cmd/genspecialized; DO NOT EDIT.

package compile

import (
	"fmt"

	"sti/internal/btree"
	"sti/internal/ram"
	"sti/internal/relation"
	"sti/internal/tuple"
	"sti/internal/value"
)

func badImpl(impl any) string {
	return fmt.Sprintf("compile: unsupported B-tree instance %T", impl)
}
`)

	b.WriteString("\nfunc buildScanRangeBT(impl any, tid int32, pat []exprFn, bnd boundFn, body opFn) opFn {\n\tswitch tree := impl.(type) {\n")
	for n := 1; n <= maxArity; n++ {
		fmt.Fprintf(&b, "\tcase *btree.Tree[relation.Tup%d]:\n\t\treturn makeScanRangeBT(tree, relation.KeyTup%d, relation.FromTup%d, tid, pat, bnd, body)\n", n, n, n)
	}
	b.WriteString("\t}\n\tpanic(badImpl(impl))\n}\n")

	b.WriteString("\nfunc buildInsertBT(impls []any, orders []tuple.Order, arity int32, exprs []exprFn) opFn {\n\tswitch impls[0].(type) {\n")
	for n := 1; n <= maxArity; n++ {
		fmt.Fprintf(&b, "\tcase *btree.Tree[relation.Tup%d]:\n\t\treturn makeInsertBT(impls, orders, relation.KeyTup%d, arity, exprs)\n", n, n)
	}
	b.WriteString("\t}\n\tpanic(badImpl(impls[0]))\n}\n")

	b.WriteString("\nfunc buildExistsBT(impl any, arity int32, pat []exprFn, slot int32) condFn {\n\tswitch tree := impl.(type) {\n")
	for n := 1; n <= maxArity; n++ {
		fmt.Fprintf(&b, "\tcase *btree.Tree[relation.Tup%d]:\n\t\treturn makeExistsBT(tree, relation.KeyTup%d, arity, pat, slot)\n", n, n)
	}
	b.WriteString("\t}\n\tpanic(badImpl(impl))\n}\n")

	b.WriteString("\nfunc buildAggregateBT(impl any, kind ram.AggKind, typ value.Type, tid int32, pat []exprFn, cond condFn, target exprFn, body opFn) opFn {\n\tswitch tree := impl.(type) {\n")
	for n := 1; n <= maxArity; n++ {
		fmt.Fprintf(&b, "\tcase *btree.Tree[relation.Tup%d]:\n\t\treturn makeAggregateBT(tree, relation.KeyTup%d, relation.FromTup%d, kind, typ, tid, pat, cond, target, body)\n", n, n, n)
	}
	b.WriteString("\t}\n\tpanic(badImpl(impl))\n}\n")

	return b.Bytes()
}
