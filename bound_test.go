package sti

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"sti/internal/interp"
)

// boundTypes are the column types the soundness property draws from, each
// with its edge values and the way an oracle hides a column from bound
// placement: a functor over the column is not a column, so `(y + 0)` gets
// no range bound and the oracle scans and filters as before. (Symbols
// compare by ordinal, so both programs intern "" first, through pad.)
var boundTypes = []struct {
	name   string
	values []any
	exprs  []string // outer sides, over the outer variable x
	hide   string   // the column y written so it gets no bound
}{
	{"number", []any{int32(-2147483648), int32(-2147483647), -384, -7, -1, 0, 1, 5, 7, 384, int32(2147483646), int32(2147483647)},
		[]string{"x", "x + 3", "x - 2", "5", "-3", "max(x, 0)"}, "(%s + 0)"},
	{"unsigned", []any{uint32(0), uint32(1), uint32(7), uint32(2147483647), uint32(2147483648), uint32(3000000000), uint32(4294967294), uint32(4294967295)},
		[]string{"x", "x + 3u", "x - 2u", "5u", "2147483648u"}, "(%s + 0u)"},
	{"float", []any{-2.5, -1.0, 0.0, 0.5, 3.25, 1e9},
		[]string{"x", "x + 1.5"}, "(%s + 0.0)"},
	{"symbol", []any{"", "a", "b", "m", "z", "zz"},
		[]string{"x"}, `cat(%s, "")`},
}

// boundProgram is one generated rule over a(x, k), b(y, k), c(z): the
// program with its inequalities as written, the oracle with every compared
// column hidden, and the input. decls, head, body and cmps are the parts src
// is made of, for generators that extend the rule (genExprProgram).
type boundProgram struct {
	typ               int
	src, oracle       string
	a, b, c           [][]any
	decls, head, body string
	cmps              []string
}

// outerVarRE matches the outer variable x in an outer side (not the x of max).
var outerVarRE = regexp.MustCompile(`\bx\b`)

// genBoundProgram draws one rule. With choice set, the head drops the inner
// variable y, so the optimizer turns the bounded inner search into a CHOICE.
func genBoundProgram(rng *rand.Rand, brie, choice bool) boundProgram {
	ti := rng.Intn(len(boundTypes))
	bt := boundTypes[ti]
	ops := []string{"<", "<=", ">", ">="}
	op := func() string { return ops[rng.Intn(len(ops))] }
	outer := func(v string) string {
		return outerVarRE.ReplaceAllString(bt.exprs[rng.Intn(len(bt.exprs))], v)
	}
	// cmp renders `col op e`, or the mirrored `e op col`, and the oracle's
	// rendering, which hides every bare variable: the update and delete
	// variants rotate the join, so either side may be the inner one. On number
	// columns it may instead render a difference of col and e, divided by a
	// constant k > 0 or not, against a constant: the linear forms whose bound
	// the translator isolates.
	var src, oracle []string
	hide := func(s string) string {
		if s == "x" || s == "y" || s == "z" {
			return fmt.Sprintf(bt.hide, s)
		}
		return s
	}
	cmp := func(col, e string) {
		o := op()
		l, r, hl, hr := col, e, hide(col), hide(e)
		if bt.name == "number" && rng.Intn(4) != 0 {
			a, b := col, e
			if rng.Intn(2) == 0 {
				a, b = e, col
			}
			k := []int{1, 2, 8}[rng.Intn(3)]
			c := fmt.Sprint([]int{-48, -3, -1, 0, 1, 2, 48}[rng.Intn(7)])
			diff := func(a, b string) string {
				if k == 1 {
					return fmt.Sprintf("(%s - (%s))", a, b)
				}
				return fmt.Sprintf("(%s - (%s)) / %d", a, b, k)
			}
			l, r, hl, hr = diff(a, b), c, diff(hide(a), hide(b)), c
		}
		if rng.Intn(2) == 0 {
			l, r, hl, hr = r, l, hr, hl
		}
		src = append(src, fmt.Sprintf("%s %s %s", l, o, r))
		oracle = append(oracle, fmt.Sprintf("%s %s %s", hl, o, hr))
	}
	var head, body string
	switch shape := rng.Intn(3); {
	case choice && shape == 0: // inner choice with an equality prefix on k, bound on y
		head, body = "out1(x)", "a(x, k), b(y, k)"
		cmp("y", outer("x"))
	case choice: // inner unkeyed choice, bound on y
		head, body = "out1(x)", "a(x, _), b(y, _)"
		cmp("y", outer("x"))
	case shape == 0: // inner search with an equality prefix on k, bound on y
		head, body = "out2(x, y)", "a(x, k), b(y, k)"
		cmp("y", outer("x"))
	case shape == 1: // inner full scan, bound on y
		head, body = "out2(x, y)", "a(x, _), b(y, _)"
		cmp("y", outer("x"))
	default: // three atoms: y bounded by x, z bounded by y and by x
		head, body = "out3(x, y, z)", "a(x, _), b(y, _), c(z)"
		cmp("y", outer("x"))
		cmp("z", outer("y"))
		cmp("z", outer("x"))
	}
	rep := ""
	if brie {
		rep = " brie"
	}
	t := bt.name
	decls := fmt.Sprintf(`.decl a(x:%[1]s, k:number)%[2]s
.decl b(y:%[1]s, k:number)%[2]s
.decl c(z:%[1]s)%[2]s
.decl out1(x:%[1]s)%[2]s
.decl out2(x:%[1]s, y:%[1]s)%[2]s
.decl out3(x:%[1]s, y:%[1]s, z:%[1]s)%[2]s
.input a
.input b
.input c
.output out1
.output out2
.output out3
.decl pad(s:symbol)
pad("").
`, t, rep)
	rule := func(cs []string) string {
		return fmt.Sprintf("%s%s :- %s, %s.\n", decls, head, body, strings.Join(cs, ", "))
	}
	p := boundProgram{typ: ti, src: rule(src), oracle: rule(oracle), decls: decls, head: head, body: body, cmps: src}
	pick := func() any { return bt.values[rng.Intn(len(bt.values))] }
	for i := 0; i < 10; i++ {
		p.a = append(p.a, []any{pick(), rng.Intn(3)})
		p.b = append(p.b, []any{pick(), rng.Intn(3)})
		p.c = append(p.c, []any{pick()})
	}
	return p
}

// input builds a fresh input of p's facts for prog.
func (p boundProgram) input(t *testing.T, prog *Program) *Input {
	in := prog.NewInput()
	for i, rows := range [][][]any{p.a, p.b, p.c} {
		for _, r := range rows {
			in.Add([]string{"a", "b", "c"}[i], r...)
		}
	}
	if err := in.Err(); err != nil {
		t.Fatal(err)
	}
	return in
}

// boundRE matches a printed range bound ("0>:number t0.0") and captures its
// comparison type.
var boundRE = regexp.MustCompile(`ON INDEX .*\b\d+[<>]=?:(\w+) `)

// boundChoiceRE matches a CHOICE that carries a range bound.
var boundChoiceRE = regexp.MustCompile(`CHOICE .* ON INDEX .*\b\d+[<>]=?:(number|unsigned) `)

// boundOutputs renders the output relations of res, in enumeration order.
func boundOutputs(res *Result) string {
	return fmt.Sprint(res.Rows("out1"), res.Rows("out2"), res.Rows("out3"))
}

// runAblated runs prog on the interpreter under an ablation configuration,
// which the product options do not reach.
func runAblated(t *testing.T, prog *Program, in *Input, cfg interp.Config) *Result {
	eng := interp.New(prog.ram, prog.st, cfg)
	if err := eng.Run(in.mem); err != nil {
		t.Fatal(err)
	}
	return &Result{prog: prog, rel: eng.Relation, eng: eng}
}

// boundIsolatedRE matches a range bound isolated from a linear constraint,
// whose limit selects the type's extreme by the sign bit of its operand.
var boundIsolatedRE = regexp.MustCompile(`ON INDEX .*\b\d+[<>]=:number (max|min):number\(.*bshr:number\(`)

// checkBoundProgram runs gp and its oracle under every engine and fails
// unless each output is byte-identical to the oracle's. It reports the
// bounds gp's RAM prints: any range bound, one isolated from a linear
// constraint, and a bounded CHOICE.
func checkBoundProgram(t *testing.T, gp boundProgram) (bounded, isolated, boundedChoice bool) {
	t.Helper()
	prog, err := Parse(gp.src)
	if err != nil {
		t.Fatalf("%v\n%s", err, gp.src)
	}
	oracle, err := Parse(gp.oracle)
	if err != nil {
		t.Fatalf("%v\n%s", err, gp.oracle)
	}
	if bound := boundRE.FindStringSubmatch(prog.RAM()); bound != nil {
		if typ := bound[1]; typ != "number" && typ != "unsigned" {
			t.Fatalf("%s comparison got a range bound:\n%s", typ, prog.RAM())
		}
		bounded = true
	}
	if boundRE.MatchString(oracle.RAM()) {
		t.Fatalf("oracle got a range bound:\n%s", oracle.RAM())
	}
	want, err := oracle.Run(gp.input(t, oracle))
	if err != nil {
		t.Fatal(err)
	}
	wantOut := boundOutputs(want)
	dynamic := interp.DefaultConfig()
	dynamic.StaticDispatch = false
	engines := map[string]func() *Result{
		"static": func() *Result { return mustRun(t, prog, gp.input(t, prog)) },
		"dynamic": func() *Result {
			return runAblated(t, prog, gp.input(t, prog), dynamic)
		},
		"legacy": func() *Result {
			return runAblated(t, prog, gp.input(t, prog), interp.LegacyConfig())
		},
		"compiled": func() *Result { return mustRun(t, prog, gp.input(t, prog), WithBackend(Compiled)) },
		"workers":  func() *Result { return mustRun(t, prog, gp.input(t, prog), WithWorkers(2)) },
		"shards":   func() *Result { return mustRun(t, prog, gp.input(t, prog), WithShards(2)) },
	}
	for name, run := range engines {
		if got := boundOutputs(run()); got != wantOut {
			t.Fatalf("under %s:\n%s\ngot  %s\nwant %s (oracle)\n%s", name, gp.src, got, wantOut, prog.RAM())
		}
	}
	return bounded, boundIsolatedRE.MatchString(prog.RAM()), boundChoiceRE.MatchString(prog.RAM())
}

// TestRangeBoundSoundness: a range bound only narrows a scan. Random two-
// and three-atom rules compare an inner column with `<`, `<=`, `>`, `>=`
// against an outer column or expression, or compare a difference of the two,
// divided by a constant or not, against a constant, over number values with
// negatives and the int32 extremes, unsigned values at and above 2^31, and
// float and symbol columns (which never get a bound). The last 48 rules
// project only the outer variable, so their bounded inner search becomes a
// CHOICE. Under every engine the output is byte-identical to the oracle's,
// the same program with each compared inner column hidden in a functor so
// that it gets no bound.
func TestRangeBoundSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bounded, isolated, boundedChoices := 0, 0, 0
	for i := 0; i < 144; i++ {
		gp := genBoundProgram(rng, i%4 == 3, i >= 96)
		b, iso, bc := checkBoundProgram(t, gp)
		if b {
			bounded++
		}
		if iso {
			isolated++
		}
		if bc {
			boundedChoices++
		}
	}
	if bounded < 36 {
		t.Fatalf("only %d of 144 programs carry a range bound; the property is not exercised", bounded)
	}
	if isolated < 12 {
		t.Fatalf("only %d of 144 programs carry an isolated range bound; the linear forms are not exercised", isolated)
	}
	if boundedChoices < 16 {
		t.Fatalf("only %d of 48 choice programs print a bounded CHOICE; the merged choice is not exercised", boundedChoices)
	}
}

// FuzzRangeBoundSoundness is TestRangeBoundSoundness's property over rules
// drawn from the fuzz input's seed; the seed corpus runs in the ordinary test
// suite, and `go test -run '^$' -fuzz FuzzRangeBoundSoundness .` searches on.
func FuzzRangeBoundSoundness(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, seed%4 == 3, seed%2 == 1)
	}
	f.Fuzz(func(t *testing.T, seed int64, brie, choice bool) {
		checkBoundProgram(t, genBoundProgram(rand.New(rand.NewSource(seed)), brie, choice))
	})
}

func mustRun(t *testing.T, prog *Program, in *Input, opts ...Option) *Result {
	t.Helper()
	res, err := prog.Run(in, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
