package sti

import (
	"os"
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
	c, err := prog.Run(mk(), WithLegacyInterpreter())
	if err != nil {
		t.Fatal(err)
	}
	if a.Size("path") != b.Size("path") || a.Size("path") != c.Size("path") {
		t.Fatalf("backends disagree: %d %d %d", a.Size("path"), b.Size("path"), c.Size("path"))
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
	if res.Profile() == nil || res.Profile().TotalDispatches == 0 {
		t.Fatal("no profile collected")
	}
	// Compiled backend has no profiler.
	res2, err := prog.Run(in, WithBackend(Compiled))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Profile() != nil {
		t.Fatal("compiled backend returned a profile")
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
}
