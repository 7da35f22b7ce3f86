// Package sti is a Datalog engine built around the Soufflé Tree Interpreter
// design (Hu, Zhao, Jordan, Scholz: "An Efficient Interpreter for Datalog by
// De-specializing Relations", PLDI 2021).
//
// A Datalog program is parsed, analyzed, and translated to the RAM
// intermediate representation, then executed by one of three backends:
//
//   - the tree interpreter (the paper's contribution), always with its five
//     optimizations on — the paper's four and §5.2's condition fusion (the
//     figure harness inside this module runs their ablations),
//   - a closure-compiled engine (the "synthesized" performance baseline),
//   - a true synthesizer emitting standalone specialized Go source.
//
// Quick start:
//
//	prog, err := sti.Parse(`
//	    .decl edge(x:number, y:number)
//	    .decl path(x:number, y:number)
//	    .input edge
//	    .output path
//	    path(x, y) :- edge(x, y).
//	    path(x, z) :- path(x, y), edge(y, z).
//	`)
//	in := prog.NewInput()
//	in.Add("edge", 1, 2)
//	in.Add("edge", 2, 3)
//	res, err := prog.Run(in)
//	fmt.Println(res.Size("path")) // 3
//
// Beyond one-shot Run, Program.Open keeps the materialized relations
// resident: Apply absorbs fact batches (incrementally when the program
// allows; see Database), readers take epoch-pinned snapshots, and
// WithWorkers / WithShards select parallel and shard-parallel fixpoint
// evaluation. docs/ARCHITECTURE.md walks the whole pipeline;
// docs/OPERATIONS.md covers the resident engine's CLI surface.
package sti

import (
	"errors"
	"fmt"
	"strings"

	"sti/internal/ast2ram"
	"sti/internal/eio"
	"sti/internal/parser"
	"sti/internal/ram"
	"sti/internal/ramopt"
	"sti/internal/sema"
	"sti/internal/symtab"
	"sti/internal/tuple"
	"sti/internal/value"
)

// Program is a compiled-to-RAM Datalog program, ready to run under any
// backend.
type Program struct {
	sem *sema.Program
	ram *ram.Program
	st  *symtab.Table
	// hash identifies the source text (SHA-256, hex). The durability layer
	// stamps it into a data directory's MANIFEST so a directory written by
	// one program is never replayed under another.
	hash string
}

// Parse runs the whole compilation pipeline — parse, semantic analysis,
// translation to RAM, RAM optimization — and is the only product code that
// chains those stages. The optimizer runs its one pass set, which keeps
// every relation observable to Result, Explain and Database.
func Parse(source string) (*Program, error) {
	astProg, err := parser.Parse(source)
	if err != nil {
		return nil, err
	}
	semProg, errs := sema.Analyze(astProg)
	if len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		return nil, errors.New(strings.Join(msgs, "\n"))
	}
	st := symtab.New()
	ramProg, err := ast2ram.Translate(semProg, st)
	if err != nil {
		return nil, err
	}
	ramopt.Optimize(ramProg, st, ramopt.Queryable())
	return &Program{sem: semProg, ram: ramProg, st: st, hash: programHash(source)}, nil
}

// MustParse is Parse that panics on error, for examples and tests.
func MustParse(source string) *Program {
	p, err := Parse(source)
	if err != nil {
		panic(err)
	}
	return p
}

// RAM renders the program's RAM intermediate representation — the optimized
// program every backend executes.
func (p *Program) RAM() string { return p.ram.String() }

// Relations lists the program's declared (non-auxiliary) relation names in
// declaration order.
func (p *Program) Relations() []string {
	var out []string
	for _, r := range p.ram.Relations {
		if !r.IsAux() {
			out = append(out, r.Name)
		}
	}
	return out
}

// decl finds a source relation declaration.
func (p *Program) decl(name string) (*ram.Relation, error) {
	for _, r := range p.ram.Relations {
		if r.Name == name && !r.IsAux() {
			return r, nil
		}
	}
	return nil, fmt.Errorf("sti: unknown relation %q", name)
}

// --- input ---

// Input carries the extensional database for one run. It converts Go values
// to the engine's 32-bit words according to each relation's declared
// attribute types.
type Input struct {
	prog *Program
	mem  *eio.Mem
	err  error
}

// NewInput returns an empty input set for the program.
func (p *Program) NewInput() *Input {
	return &Input{prog: p, mem: eio.NewMem()}
}

// Add appends one tuple to relation name. Accepted Go types per attribute:
// number: int/int32/int64; unsigned: uint/uint32/uint64/int (non-negative);
// float: float32/float64; symbol: string. The first conversion error is
// remembered and returned by Err (and by Program.Run).
func (in *Input) Add(name string, values ...any) *Input {
	if in.err != nil {
		return in
	}
	t, err := in.prog.encodeTuple(name, values, false)
	if err != nil {
		in.err = err
		return in
	}
	in.mem.Facts[name] = append(in.mem.Facts[name], t)
	return in
}

// Err returns the first conversion error, if any.
func (in *Input) Err() error { return in.err }

// errNotStored fails a read that names a symbol the symbol table does not
// hold. Reads (Snapshot.Query and QueryText patterns, Scan bounds,
// Result.Contains and Explain) look symbols up instead of interning them, so
// probing never grows the table — nor, on a durable database, the next WAL
// record. No stored tuple can contain such a symbol, so a pattern read is a
// miss (a Scan bound sorts above every stored symbol instead).
var errNotStored = errors.New("symbol occurs in no stored tuple")

// encodeTuple converts Go values to one tuple of the named relation. A write
// interns new symbols; a read only looks them up (see errNotStored).
func (p *Program) encodeTuple(name string, values []any, read bool) (tuple.Tuple, error) {
	decl, err := p.decl(name)
	if err != nil {
		return nil, err
	}
	if len(values) != decl.Arity {
		return nil, fmt.Errorf("sti: relation %s has arity %d, got %d values", name, decl.Arity, len(values))
	}
	t := make(tuple.Tuple, decl.Arity)
	for i, v := range values {
		if t[i], err = p.encode(decl.Types[i], v, read); err != nil {
			return nil, fmt.Errorf("sti: %s argument %d: %v", name, i, err)
		}
	}
	return t, nil
}

// parseTuple converts text fields to one tuple of the named relation, by
// attribute type with the fact-file conventions (quoted symbols allowed),
// interning new symbols unless read is set (see errNotStored). On failure
// off is the byte offset of the offending field within the tab-joined row,
// or -1 when the row as a whole is wrong (unknown relation, field count).
func (p *Program) parseTuple(name string, fields []string, read bool) (t tuple.Tuple, off int, err error) {
	decl, err := p.decl(name)
	if err != nil {
		return nil, -1, err
	}
	if len(fields) != decl.Arity {
		return nil, -1, fmt.Errorf("%d fields, want %d", len(fields), decl.Arity)
	}
	t = make(tuple.Tuple, decl.Arity)
	for i, f := range fields {
		if t[i], err = p.parseField(f, decl.Types[i], read); err != nil {
			return nil, off, err
		}
		off += len(f) + 1
	}
	return t, 0, nil
}

// parseField is encode for one text field, parsed with the fact-file
// conventions.
func (p *Program) parseField(f string, ty value.Type, read bool) (value.Value, error) {
	if !read {
		return eio.ParseField(f, ty, p.st)
	}
	w, found, err := eio.LookupField(f, ty, p.st)
	if err == nil && !found {
		err = errNotStored
	}
	return w, err
}

// encode converts one Go value by attribute type. A write interns a new
// symbol; a read only looks it up (see errNotStored).
func (p *Program) encode(ty value.Type, v any, read bool) (value.Value, error) {
	switch ty {
	case value.Symbol:
		s, ok := v.(string)
		if !ok {
			return 0, fmt.Errorf("want string, got %T", v)
		}
		if !read {
			return p.st.Intern(s), nil
		}
		if w, found := p.st.Lookup(s); found {
			return w, nil
		}
		return 0, errNotStored
	case value.Float:
		switch f := v.(type) {
		case float32:
			return value.FromFloat(f), nil
		case float64:
			return value.FromFloat(float32(f)), nil
		}
		return 0, fmt.Errorf("want float, got %T", v)
	case value.Unsigned:
		switch n := v.(type) {
		case uint:
			return value.Value(n), nil
		case uint32:
			return n, nil
		case uint64:
			return value.Value(n), nil
		case int:
			if n < 0 {
				return 0, fmt.Errorf("negative value %d for unsigned attribute", n)
			}
			return value.Value(n), nil
		}
		return 0, fmt.Errorf("want unsigned, got %T", v)
	default: // Number
		switch n := v.(type) {
		case int:
			return value.FromInt(int32(n)), nil
		case int32:
			return value.FromInt(n), nil
		case int64:
			return value.FromInt(int32(n)), nil
		}
		return 0, fmt.Errorf("want number, got %T", v)
	}
}

func (p *Program) decode(ty value.Type, w value.Value) any {
	switch ty {
	case value.Symbol:
		return p.st.Resolve(w)
	case value.Float:
		return value.AsFloat(w)
	case value.Unsigned:
		return uint32(w)
	default:
		return value.AsInt(w)
	}
}
