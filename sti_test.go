package sti

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

const tcSource = `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.input edge
.output path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
`

func TestParseErrors(t *testing.T) {
	if _, err := Parse("nonsense("); err == nil {
		t.Fatal("syntax error not reported")
	}
	if _, err := Parse(".decl a(x:number)\na(x) :- b(x)."); err == nil {
		t.Fatal("semantic error not reported")
	} else if !strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("error = %v", err)
	}
}

func TestQuickstartFlow(t *testing.T) {
	prog := MustParse(tcSource)
	in := prog.NewInput()
	in.Add("edge", 1, 2).Add("edge", 2, 3).Add("edge", 3, 4)
	res, err := prog.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size("path") != 6 {
		t.Fatalf("path size = %d", res.Size("path"))
	}
	if !res.Contains("path", 1, 4) || res.Contains("path", 4, 1) {
		t.Fatal("contents wrong")
	}
	rows := res.Rows("path")
	if len(rows) != 6 {
		t.Fatalf("rows = %v", rows)
	}
	if _, ok := rows[0][0].(int32); !ok {
		t.Fatalf("row value type %T", rows[0][0])
	}
}

func TestBackendsAgree(t *testing.T) {
	prog := MustParse(tcSource)
	mk := func() *Input {
		in := prog.NewInput()
		for i := 0; i < 20; i++ {
			in.Add("edge", i, i+1)
			in.Add("edge", i+1, i%3)
		}
		return in
	}
	a, err := prog.Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := prog.Run(mk(), WithBackend(Compiled))
	if err != nil {
		t.Fatal(err)
	}
	if a.Size("path") != b.Size("path") || !reflect.DeepEqual(a.Rows("path"), b.Rows("path")) {
		t.Fatalf("backends disagree: %d vs %d tuples", a.Size("path"), b.Size("path"))
	}
}

func TestInputValidation(t *testing.T) {
	prog := MustParse(tcSource)
	in := prog.NewInput()
	in.Add("edge", 1) // arity mismatch
	if in.Err() == nil {
		t.Fatal("arity error not caught")
	}
	if _, err := prog.Run(in); err == nil {
		t.Fatal("Run accepted broken input")
	}
	in2 := prog.NewInput()
	in2.Add("nosuch", 1, 2)
	if in2.Err() == nil {
		t.Fatal("unknown relation not caught")
	}
	in3 := prog.NewInput()
	in3.Add("edge", "a", 2)
	if in3.Err() == nil {
		t.Fatal("type error not caught")
	}
}

func TestTypedAttributes(t *testing.T) {
	prog := MustParse(`
.decl m(s:symbol, n:number, u:unsigned, f:float)
.decl out(s:symbol, n:number, u:unsigned, f:float)
.input m
.output out
out(s, n, u, f) :- m(s, n, u, f).
`)
	in := prog.NewInput()
	in.Add("m", "hello", -5, uint32(7), 2.5)
	res, err := prog.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows("out")
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].(string) != "hello" || rows[0][1].(int32) != -5 ||
		rows[0][2].(uint32) != 7 || rows[0][3].(float32) != 2.5 {
		t.Fatalf("row = %v", rows[0])
	}
}

func TestProfilingOption(t *testing.T) {
	prog := MustParse(tcSource)
	in := prog.NewInput()
	for i := 0; i < 10; i++ {
		in.Add("edge", i, i+1)
	}
	res, err := prog.Run(in, WithProfiling())
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile()
	if p == nil || p.TotalDispatches == 0 {
		t.Fatal("no profile collected")
	}
	// WithProfiling is the whole instrumentation: the telemetry collector
	// rides along, and its span trace is reachable from the Result.
	if p.Telemetry == nil || len(p.Telemetry.Fixpoints) == 0 || p.Telemetry.TraceEvents == 0 {
		t.Fatalf("profile carries no telemetry: %+v", p.Telemetry)
	}
	var buf bytes.Buffer
	if err := res.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil || len(trace.TraceEvents) != p.Telemetry.TraceEvents {
		t.Fatalf("trace: %d events (%v), telemetry counted %d", len(trace.TraceEvents), err, p.Telemetry.TraceEvents)
	}
	// Compiled backend has no profiler and no trace.
	res2, err := prog.Run(in, WithBackend(Compiled))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Profile() != nil {
		t.Fatal("compiled backend returned a profile")
	}
	buf.Reset()
	if err := res2.WriteTrace(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("compiled backend wrote a trace: %q (%v)", buf.String(), err)
	}
}

func TestRAMAndEmit(t *testing.T) {
	prog := MustParse(tcSource)
	if !strings.Contains(prog.RAM(), "LOOP") {
		t.Fatal("RAM rendering missing fixpoint loop")
	}
	src, err := prog.EmitGo()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "package main") {
		t.Fatal("emitted source malformed")
	}
	rels := prog.Relations()
	if len(rels) != 2 || rels[0] != "edge" || rels[1] != "path" {
		t.Fatalf("relations = %v", rels)
	}
}

func TestRunDir(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir+"/edge.facts", "1\t2\n2\t3\n")
	prog := MustParse(tcSource)
	// Both backends write the files and hand back the same Result handle
	// Run does.
	for _, opts := range [][]Option{nil, {WithBackend(Compiled)}} {
		res, err := prog.RunDir(dir, dir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if data := readFile(t, dir+"/path.csv"); data != "1\t2\n1\t3\n2\t3\n" {
			t.Fatalf("path.csv = %q", data)
		}
		if res.Size("path") != 3 || !res.Contains("path", 1, 3) || res.Contains("path", 3, 1) {
			t.Fatalf("result: size %d, rows %v", res.Size("path"), res.Rows("path"))
		}
		if err := os.Remove(dir + "/path.csv"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPipelineOptimizesAndWorkers(t *testing.T) {
	// The negation keeps the program non-deletable: choice conversion is
	// suppressed for counting targets, and this test wants the choice.
	prog := MustParse(`
.decl e(x:number, y:number)
.decl node(x:number)
.decl skip(x:number)
.decl out(x:number)
.input e
.input node
.input skip
out(x) :- node(x), e(x, y), y > 2 + 3, !skip(x).
`)
	// RAM optimization is a fixed stage of Parse, not a mode.
	if !strings.Contains(prog.RAM(), "CHOICE") {
		t.Fatalf("Parse did not introduce a choice:\n%s", prog.RAM())
	}
	in := prog.NewInput()
	for i := 0; i < 30; i++ {
		in.Add("e", i, i%9)
		in.Add("node", i)
	}
	a, err := prog.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := prog.Run(in, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	// y = i%9 > 5 holds for i%9 in {6,7,8}: 9 of the 30 nodes.
	if a.Size("out") != 9 || b.Size("out") != 9 {
		t.Fatalf("sizes: %d serial, %d with 4 workers, want 9", a.Size("out"), b.Size("out"))
	}
}

func TestExplainViaFacade(t *testing.T) {
	prog := MustParse(tcSource)
	in := prog.NewInput()
	in.Add("edge", 1, 2).Add("edge", 2, 3)
	res, err := prog.Run(in, WithProvenance())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := res.Explain("path", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if proof.Rule == "" || len(proof.Premises) != 2 {
		t.Fatalf("proof:\n%s", proof)
	}
	if !strings.Contains(proof.String(), "[fact]") {
		t.Fatalf("proof rendering:\n%s", proof)
	}
	// Without provenance, Explain refuses.
	res2, err := prog.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res2.Explain("path", 1, 3); err == nil {
		t.Fatal("Explain without provenance succeeded")
	}
	// The compiled backend records no derivations, even when asked to.
	res3, err := prog.Run(in, WithBackend(Compiled), WithProvenance())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res3.Explain("path", 1, 3); err == nil || !strings.Contains(err.Error(), "cannot explain") {
		t.Fatalf("compiled Explain = %v, want a refusal", err)
	}
}

// TestGoValuesOutOfRange checks that a Go value outside its attribute's
// 32-bit range is rejected, with an error naming the attribute type, by every
// caller that converts Go values: Input.Add, Batch.Add and Delete, Query
// patterns, Scan bounds, and Result.Contains and Explain. Each value would
// otherwise wrap onto one the relations hold (2^32 onto 0, 2^33+7 onto 7, a
// float64 beyond float32 onto infinity), as the text path never lets it.
func TestGoValuesOutOfRange(t *testing.T) {
	prog := MustParse(`
.decl r(x:number)
.decl u(x:unsigned)
.decl f(x:float)
.input r
.input u
.input f
.output r
.output u
.output f
`)
	in := prog.NewInput()
	// The values the out-of-range cases below would wrap onto, and the
	// extremes of each range, which convert.
	in.Add("r", 0).Add("r", 7).Add("r", int64(math.MaxInt32)).Add("r", int64(math.MinInt32))
	in.Add("u", 0).Add("u", 3).Add("u", uint64(math.MaxUint32))
	in.Add("f", math.Inf(1)).Add("f", math.Inf(-1)).Add("f", float64(math.MaxFloat32))
	if err := in.Err(); err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(in, WithProvenance())
	if err != nil {
		t.Fatal(err)
	}
	db, err := prog.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, c := range []struct {
		rel, typ string
		v        any
	}{
		{"r", "number", int64(1) << 32},
		{"r", "number", 1<<33 + 7},
		{"r", "number", int64(math.MaxInt32) + 1},
		{"r", "number", int64(math.MinInt32) - 1},
		{"u", "unsigned", uint64(1)<<32 + 3},
		{"u", "unsigned", uint(1) << 32},
		{"u", "unsigned", 1 << 32},
		{"f", "float", 1e39},
		{"f", "float", -1e39},
	} {
		name := fmt.Sprintf("%s(%T %v)", c.rel, c.v, c.v)
		check := func(caller string, err error) {
			if err == nil || !strings.Contains(err.Error(), c.typ+" attribute") {
				t.Errorf("%s: %s: err = %v, want a %s range error", name, caller, err, c.typ)
			}
		}
		check("Input.Add", prog.NewInput().Add(c.rel, c.v).Err())
		check("Batch.Add", db.NewBatch().Add(c.rel, c.v).Err())
		check("Batch.Delete", db.NewBatch().Delete(c.rel, c.v).Err())
		_, err := db.Query(c.rel, c.v)
		check("Query", err)
		_, err = db.Scan(c.rel, c.v, c.v)
		check("Scan", err)
		_, err = res.Explain(c.rel, c.v)
		check("Explain", err)
		if res.Contains(c.rel, c.v) {
			t.Errorf("%s: Contains holds", name)
		}
	}
}

// TestEqrelSearchByMirror: an eqrel search keying only column 1, the
// existence check eq(_, x), answers as its mirror eq(x, _) on both backends
// and in a resident database fed by Apply.
func TestEqrelSearchByMirror(t *testing.T) {
	prog := MustParse(`
.decl s(x:number)
.decl eq(x:number, y:number) eqrel
.decl r(x:number)
.input s
.input eq
.output r
r(x) :- s(x), eq(_, x).
`)
	in := prog.NewInput()
	in.Add("s", 1).Add("s", 3).Add("s", 7)
	in.Add("eq", 1, 2).Add("eq", 3, 3)
	const want = "[[1] [3]]"
	for name, opts := range map[string][]Option{"interpreter": nil, "compiled": {WithBackend(Compiled)}} {
		res, err := prog.Run(in, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := fmt.Sprint(res.Rows("r")); got != want {
			t.Errorf("%s: r = %s, want %s", name, got, want)
		}
	}

	db, err := prog.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, step := range []struct {
		batch *Batch
		want  string
	}{
		{db.NewBatch().Add("s", 1).Add("s", 3).Add("s", 7).Add("eq", 1, 2).Add("eq", 3, 3), want},
		{db.NewBatch().Add("eq", 5, 7), "[[1] [3] [7]]"},
	} {
		if err := db.Apply(step.batch); err != nil {
			t.Fatal(err)
		}
		s := db.Snapshot()
		rows, err := s.Query("r")
		s.Release()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(rows); got != step.want {
			t.Errorf("resident: r = %s, want %s", got, step.want)
		}
	}
}

// TestEqrelMirrorTwins: each eqrel search shape keying only column 1 gives
// the rows of its twin keying column 0 on both backends and in a resident
// database, whose applies recompute (the program negates and aggregates).
func TestEqrelMirrorTwins(t *testing.T) {
	prog := MustParse(`
.decl s(x:number)
.decl eq(x:number, y:number) eqrel
.input s
.input eq
.decl seen(x:number)
.decl seenTwin(x:number)
.decl peer(x:number, y:number)
.decl peerTwin(x:number, y:number)
.decl alone(x:number)
.decl aloneTwin(x:number)
.decl size(x:number, n:number)
.decl sizeTwin(x:number, n:number)
seen(x) :- s(x), eq(_, x).
seenTwin(x) :- s(x), eq(x, _).
peer(x, y) :- s(x), eq(y, x).
peerTwin(x, y) :- s(x), eq(x, y).
alone(x) :- s(x), !eq(_, x).
aloneTwin(x) :- s(x), !eq(x, _).
size(x, n) :- s(x), n = count : { eq(_, x) }.
sizeTwin(x, n) :- s(x), n = count : { eq(x, _) }.
`)
	twins := func(t *testing.T, rows func(string) [][]any) {
		t.Helper()
		for _, r := range []string{"seen", "peer", "alone", "size"} {
			a, b := fmt.Sprint(rows(r)), fmt.Sprint(rows(r+"Twin"))
			if a != b || a == "[]" {
				t.Errorf("%s = %s, its twin %s", r, a, b)
			}
		}
	}
	in := prog.NewInput()
	in.Add("s", 1).Add("s", 3).Add("s", 7)
	in.Add("eq", 1, 2).Add("eq", 2, 3)
	for name, opts := range map[string][]Option{"interpreter": nil, "compiled": {WithBackend(Compiled)}} {
		res, err := prog.Run(in, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Run(name, func(t *testing.T) { twins(t, res.Rows) })
	}

	db, err := prog.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Apply(db.NewBatch().Add("s", 1).Add("s", 3).Add("s", 7).Add("eq", 1, 2).Add("eq", 2, 3)); err != nil {
		t.Fatal(err)
	}
	s := db.Snapshot()
	defer s.Release()
	t.Run("resident", func(t *testing.T) {
		twins(t, func(name string) [][]any {
			rows, err := s.Query(name)
			if err != nil {
				t.Fatal(err)
			}
			return rows
		})
	})
}

// TestArgumentExpressionOverAtomVariables: an atom argument expression
// reading the atom's own new variable, e(x, x+1), as a positive atom and in
// an aggregate body, gives the rows of its twin that binds the element and
// compares it (e(x, y), y = x + 1) on both backends and in a resident
// database through Apply, inserts and then a delete.
func TestArgumentExpressionOverAtomVariables(t *testing.T) {
	const decls = `
.decl e(x:number, y:number)
.input e
.decl step(x:number)
.decl stepTwin(x:number)
`
	for name, tc := range map[string]struct {
		rules       string
		want, after string // step's rows after the inserts, and after the delete
	}{
		"positive": {`
step(x) :- e(x, x+1).
stepTwin(x) :- e(x, y), y = x + 1.
`, "[[1] [2]]", "[[1]]"},
		"aggregate": {`
step(n) :- n = count : { e(x, x+1) }.
stepTwin(n) :- n = count : { e(x, y), y = x + 1 }.
`, "[[2]]", "[[1]]"},
	} {
		t.Run(name, func(t *testing.T) {
			prog := MustParse(decls + tc.rules)
			check := func(t *testing.T, rows func(string) [][]any, want string) {
				t.Helper()
				a, b := fmt.Sprint(rows("step")), fmt.Sprint(rows("stepTwin"))
				if a != want || b != want {
					t.Errorf("step = %s, stepTwin = %s, want %s", a, b, want)
				}
			}
			in := prog.NewInput()
			in.Add("e", 1, 2).Add("e", 2, 3).Add("e", 3, 5)
			for backend, opts := range map[string][]Option{"interpreter": nil, "compiled": {WithBackend(Compiled)}} {
				res, err := prog.Run(in, opts...)
				if err != nil {
					t.Fatalf("%s: %v", backend, err)
				}
				t.Run(backend, func(t *testing.T) { check(t, res.Rows, tc.want) })
			}

			db, err := prog.Open()
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for i, step := range []struct {
				batch *Batch
				want  string
			}{
				{db.NewBatch().Add("e", 1, 2).Add("e", 2, 3).Add("e", 3, 5), tc.want},
				{db.NewBatch().Delete("e", 2, 3), tc.after},
			} {
				if err := db.Apply(step.batch); err != nil {
					t.Fatal(err)
				}
				s := db.Snapshot()
				t.Run(fmt.Sprintf("resident-%d", i), func(t *testing.T) {
					check(t, func(name string) [][]any {
						rows, err := s.Query(name)
						if err != nil {
							t.Fatal(err)
						}
						return rows
					}, step.want)
				})
				s.Release()
			}
		})
	}
}
