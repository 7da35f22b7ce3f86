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
// allocations per execution (execQuery, past the first execution, which
// makes the query's context), the allocations of opening the dynamic
// searches along its body once each, and the opcode of its insert.
func queryAllocs(t *testing.T, src string, cfg Config, n int) (exec, open float64, insert opcode) {
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
	if q.staged {
		t.Fatal("the query stages its inserts")
	}
	ex := eng.newExecutor(NewMemIO())
	exec = testing.AllocsPerRun(5, func() { ex.execQuery(q) })
	for body := q.nested; body != nil; body = body.nested {
		if body.op == opScan || body.op == opChoice {
			open += testing.AllocsPerRun(5, func() { ex.search(body, q.qctx) })
		}
	}
	return exec, open, ins.op
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

// A query allocates nothing per tuple and, past its first execution, which
// makes its context, nothing per execution: over 10 outer tuples as over
// 10 000, an execution allocates exactly what opening its dynamic searches
// does — the §3 buffered iterator, which the specialized scans of the
// product configuration never open, so those executions allocate nothing.
// Keys and bounds stay on the stack, B-tree iterators are values, and the
// dynamic insert and existence check and the decoding scan use the context's
// scratch array.
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
			for _, n := range []int{10, 10_000} {
				exec, open, op := queryAllocs(t, tc.src, tc.cfg, n)
				if (op >= opSpecializedBase) != tc.specialized {
					t.Fatalf("insert opcode %d, want specialized=%v", op, tc.specialized)
				}
				if tc.specialized && open != 0 {
					t.Fatalf("the query opens dynamic searches (%v allocations)", open)
				}
				if exec != open {
					t.Errorf("over %d tuples: %v allocations per query execution, want %v (its dynamic searches')", n, exec, open)
				}
			}
		})
	}
}
