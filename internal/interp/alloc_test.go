package interp

import (
	"testing"

	"sti/internal/ram"
	"sti/internal/tuple"
	"sti/internal/value"
)

// allocSrc is index scan -> exists (on a prefix and on a full tuple) ->
// insert. a is scanned on its second column, so its index order is not the
// identity and a scan without static reordering decodes every tuple. The
// program is monotone and deletable, and a relation the delete program
// retracts from still takes the specialized B-tree insert.
const allocSrc = `
.decl a(x:number, k:number, y:number)
.decl b(y:number, z:number)
.decl c(x:number, y:number)
.decl out(x:number, y:number)
.input a
.input b
.input c
out(x, y) :- a(x, 1, y), b(y, _), c(x, y).
`

// allocRederived gives out a second derivation for the tuples with x < 7, the
// multiply-supported head that retraction must rederive. The program stays
// monotone and deletable, and out's insert stays the specialized one.
const allocRederived = `
out(x, y) :- c(x, y), b(x, _).
`

// queryAllocs runs src over n outer tuples, then re-executes the query that
// derives out, whose every insert is now a duplicate, and returns its
// allocations per execution and the opcode of its insert.
func queryAllocs(t *testing.T, src string, cfg Config, n int) (float64, opcode) {
	t.Helper()
	facts := map[string][]tuple.Tuple{}
	for i := 0; i < n; i++ {
		x, y := value.Value(i), value.Value(i%7)
		facts["a"] = append(facts["a"], tuple.Tuple{x, 1, y})
		facts["c"] = append(facts["c"], tuple.Tuple{x, y})
	}
	for y := value.Value(0); y < 7; y++ {
		facts["b"] = append(facts["b"], tuple.Tuple{y, 0})
	}
	eng, _ := run(t, src, facts, cfg)
	if eng.prog.Delete == nil {
		t.Fatalf("program is not deletable: %s", eng.prog.NoDeleteReason)
	}
	if got := len(tuplesOf(t, eng, "out")); got != n {
		t.Fatalf("out has %d tuples, want %d", got, n)
	}
	q, ins := findQuery(eng.rootEval, "out")
	if q == nil {
		t.Fatal("no query inserts into out")
	}
	io := NewMemIO()
	return testing.AllocsPerRun(5, func() {
		if err := eng.execTree(io, q); err != nil {
			t.Fatal(err)
		}
	}), ins.op
}

// findQuery returns the first query under n whose body inserts into rel, and
// that insert.
func findQuery(n *inode, rel string) (q, ins *inode) {
	if n == nil {
		return nil, nil
	}
	if n.op == opQuery {
		for body := n.nested; body != nil; body = body.nested {
			if _, ok := body.shadow.(*ram.Project); ok && body.rel.Name == rel {
				return n, body
			}
		}
	}
	for _, c := range n.children {
		if q, ins := findQuery(c, rel); q != nil {
			return q, ins
		}
	}
	return findQuery(n.nested, rel)
}

// The per-tuple path of a query allocates nothing: executing the query tree
// costs the same number of allocations over 10 outer tuples as over 10 000
// (the fixed cost is the query's context). Keys and bounds stay on the stack,
// B-tree iterators are values, and the dynamic insert and existence check
// and the decoding scan use the context's scratch array.
func TestQueryAllocationsIndependentOfTuples(t *testing.T) {
	noReorder := DefaultConfig()
	noReorder.StaticReordering = false
	dynamic := DefaultConfig()
	dynamic.StaticDispatch = false
	for _, tc := range []struct {
		name        string
		src         string
		cfg         Config
		specialized bool // the insert is a specialized B-tree insert
	}{
		{"specialized insert", allocSrc, DefaultConfig(), true},
		{"counting insert", allocSrc + allocRederived, DefaultConfig(), true},
		{"specialized insert, decoding scan", allocSrc, noReorder, true},
		{"dynamic opcodes", allocSrc, dynamic, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			small, op := queryAllocs(t, tc.src, tc.cfg, 10)
			large, _ := queryAllocs(t, tc.src, tc.cfg, 10_000)
			if (op >= opSpecializedBase) != tc.specialized {
				t.Fatalf("insert opcode %d, want specialized=%v", op, tc.specialized)
			}
			if small != large {
				t.Errorf("allocations per query execution: %v over 10 tuples, %v over 10 000", small, large)
			}
		})
	}
}
