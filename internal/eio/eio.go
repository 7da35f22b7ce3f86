// Package eio implements the engine's I/O handlers: LOAD/STORE/PRINTSIZE
// statements are routed through a Handler so programs can run against
// in-memory facts (Mem) or Soufflé-style tab-separated fact files (Dir).
package eio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"sti/internal/ram"
	"sti/internal/relation"
	"sti/internal/symtab"
	"sti/internal/tuple"
	"sti/internal/value"
)

// Handler connects LOAD/STORE/PRINTSIZE statements to the outside world.
type Handler interface {
	// Load feeds input tuples for rel to insert (source order).
	Load(rel *ram.Relation, insert func(tuple.Tuple) error) error
	// Store receives an iterator over rel's tuples in source order.
	Store(rel *ram.Relation, it relation.Iterator) error
	// PrintSize reports rel's cardinality.
	PrintSize(rel *ram.Relation, size int) error
}

// Mem is an in-memory Handler: inputs come from Facts, outputs are
// collected into Out. It is also the default handler (with no facts) when
// none is configured.
type Mem struct {
	Facts map[string][]tuple.Tuple // by relation name, source order
	Out   map[string][]tuple.Tuple
	Sizes map[string]int
}

// NewMemIO returns an empty in-memory handler.
func NewMem() *Mem {
	return &Mem{
		Facts: map[string][]tuple.Tuple{},
		Out:   map[string][]tuple.Tuple{},
		Sizes: map[string]int{},
	}
}

// Add appends an input tuple for relation name.
func (m *Mem) Add(name string, t tuple.Tuple) {
	m.Facts[name] = append(m.Facts[name], tuple.Clone(t))
}

// Load implements Handler.
func (m *Mem) Load(rel *ram.Relation, insert func(tuple.Tuple) error) error {
	for _, t := range m.Facts[rel.Name] {
		if len(t) != rel.Arity {
			return fmt.Errorf("input tuple for %s has arity %d, want %d", rel.Name, len(t), rel.Arity)
		}
		if err := insert(t); err != nil {
			return err
		}
	}
	return nil
}

// Store implements Handler.
func (m *Mem) Store(rel *ram.Relation, it relation.Iterator) error {
	var out []tuple.Tuple
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, tuple.Clone(t))
	}
	m.Out[rel.Name] = out
	return nil
}

// PrintSize implements Handler.
func (m *Mem) PrintSize(rel *ram.Relation, size int) error {
	m.Sizes[rel.Name] = size
	return nil
}

// RowError describes one malformed row in a fact file: which file, which
// line, which relation, and the underlying parse problem. Dir.Load wraps
// every per-row failure in it, so callers can errors.As for the position.
type RowError struct {
	Path string // fact file path
	Line int    // 1-based line number
	Col  int    // 1-based byte column of the offending field; 0 if whole-row
	Rel  string // relation being loaded
	Err  error  // underlying cause
}

func (e *RowError) Error() string {
	if e.Col > 0 {
		return fmt.Sprintf("%s:%d:%d: relation %s: %v", e.Path, e.Line, e.Col, e.Rel, e.Err)
	}
	return fmt.Sprintf("%s:%d: relation %s: %v", e.Path, e.Line, e.Rel, e.Err)
}

func (e *RowError) Unwrap() error { return e.Err }

// Dir reads and writes tab-separated fact files <dir>/<relation>.facts
// and <dir>/<relation>.csv, the Soufflé file convention. Symbols are
// resolved through the engine's symbol table; PrintSize writes to W.
type Dir struct {
	InputDir  string
	OutputDir string
	Symbols   *symtab.Table
	W         io.Writer
}

// Load implements Handler.
func (d *Dir) Load(rel *ram.Relation, insert func(tuple.Tuple) error) error {
	path := filepath.Join(d.InputDir, rel.Name+".facts")
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	t := make(tuple.Tuple, rel.Arity)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != rel.Arity {
			return &RowError{Path: path, Line: lineNo, Rel: rel.Name,
				Err: fmt.Errorf("%d fields, want %d", len(fields), rel.Arity)}
		}
		col := 1
		for i, field := range fields {
			v, err := ParseField(field, rel.Types[i], d.Symbols)
			if err != nil {
				return &RowError{Path: path, Line: lineNo, Col: col, Rel: rel.Name, Err: err}
			}
			t[i] = v
			col += len(field) + 1 // the field plus its tab separator
		}
		if err := insert(t); err != nil {
			return err
		}
	}
	return sc.Err()
}

// ParseField converts one tab-separated field to a value, interning a
// symbol the table does not hold yet. Symbol fields are taken verbatim
// unless they start with a double quote, in which case they must be a
// complete Go-syntax quoted string (the form Store emits for symbols that
// embed tabs, newlines, or a leading quote); an unterminated or otherwise
// malformed quoted symbol is an error.
func ParseField(s string, ty value.Type, st *symtab.Table) (value.Value, error) {
	switch ty {
	case value.Symbol:
		u, err := unquoteSymbol(s)
		if err != nil {
			return 0, err
		}
		return st.Intern(u), nil
	case value.Number:
		n, err := strconv.ParseInt(s, 10, 32)
		if err != nil {
			return 0, fmt.Errorf("bad number %q", s)
		}
		return value.FromInt(int32(n)), nil
	case value.Unsigned:
		n, err := strconv.ParseUint(s, 10, 32)
		if err != nil {
			return 0, fmt.Errorf("bad unsigned %q", s)
		}
		return value.Value(n), nil
	default:
		f, err := strconv.ParseFloat(s, 32)
		if err != nil {
			return 0, fmt.Errorf("bad float %q", s)
		}
		return value.FromFloat(float32(f)), nil
	}
}

// LookupField is ParseField for reads: a symbol field is looked up, never
// interned, so parsing a probe cannot grow the table. found is false when
// the table does not hold the symbol; no stored tuple can then contain it.
func LookupField(s string, ty value.Type, st *symtab.Table) (v value.Value, found bool, err error) {
	if ty != value.Symbol {
		v, err = ParseField(s, ty, st)
		return v, err == nil, err
	}
	u, err := unquoteSymbol(s)
	if err != nil {
		return 0, false, err
	}
	v, found = st.Lookup(u)
	return v, found, nil
}

// unquoteSymbol returns a symbol field's text: verbatim, or unquoted when
// the field starts with a double quote.
func unquoteSymbol(s string) (string, error) {
	if !strings.HasPrefix(s, `"`) {
		return s, nil
	}
	u, err := strconv.Unquote(s)
	if err != nil {
		return "", fmt.Errorf("malformed quoted symbol %q", s)
	}
	return u, nil
}

// Store implements Handler.
func (d *Dir) Store(rel *ram.Relation, it relation.Iterator) error {
	if err := os.MkdirAll(d.OutputDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(d.OutputDir, rel.Name+".csv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		for i, v := range t {
			if i > 0 {
				if err := w.WriteByte('\t'); err != nil {
					f.Close()
					return err
				}
			}
			if _, err := w.WriteString(formatField(v, rel.Types[i], d.Symbols)); err != nil {
				f.Close()
				return err
			}
		}
		if err := w.WriteByte('\n'); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// FormatField renders one value as a tab-separated field, the inverse of
// ParseField: symbols that would not survive a plain round trip come back
// Go-quoted.
func FormatField(v value.Value, ty value.Type, st *symtab.Table) string {
	return formatField(v, ty, st)
}

func formatField(v value.Value, ty value.Type, st *symtab.Table) string {
	switch ty {
	case value.Symbol:
		s := st.Resolve(v)
		// Quote only when the plain form would not survive a round trip:
		// embedded field/row separators or a leading quote.
		if strings.ContainsAny(s, "\t\n\r") || strings.HasPrefix(s, `"`) {
			return strconv.Quote(s)
		}
		return s
	case value.Number:
		return strconv.FormatInt(int64(value.AsInt(v)), 10)
	case value.Unsigned:
		return strconv.FormatUint(uint64(v), 10)
	default:
		return strconv.FormatFloat(float64(value.AsFloat(v)), 'g', -1, 32)
	}
}

// PrintSize implements Handler.
func (d *Dir) PrintSize(rel *ram.Relation, size int) error {
	w := d.W
	if w == nil {
		w = os.Stdout
	}
	_, err := fmt.Fprintf(w, "%s\t%d\n", rel.Name, size)
	return err
}
