package ast

import "sti/internal/value"

// Functor is an intrinsic functor's signature. Semantic analysis checks
// and infers calls from it, and the translator lowers them from it; each
// name lowers to the RAM intrinsic of the same name.
type Functor struct {
	Arity    int          // argument count; the least one when Variadic
	Variadic bool         // takes Arity or more arguments
	Args     []value.Type // argument types; the last repeats when Variadic
	Result   value.Type
	// Poly marks min and max: the result and every argument share one
	// type, the arguments'. Args and Result are unused.
	Poly bool
}

// ArgType is the type argument i must have when the call produces want.
func (f Functor) ArgType(i int, want value.Type) value.Type {
	if f.Poly {
		return want
	}
	return f.Args[min(i, len(f.Args)-1)]
}

var functors = map[string]Functor{
	"cat":       {Arity: 2, Variadic: true, Args: []value.Type{value.Symbol}, Result: value.Symbol},
	"strlen":    {Arity: 1, Args: []value.Type{value.Symbol}, Result: value.Number},
	"substr":    {Arity: 3, Args: []value.Type{value.Symbol, value.Number, value.Number}, Result: value.Symbol},
	"ord":       {Arity: 1, Args: []value.Type{value.Symbol}, Result: value.Number},
	"to_number": {Arity: 1, Args: []value.Type{value.Symbol}, Result: value.Number},
	"to_string": {Arity: 1, Args: []value.Type{value.Number}, Result: value.Symbol},
	"min":       {Arity: 2, Variadic: true, Poly: true},
	"max":       {Arity: 2, Variadic: true, Poly: true},
}

// LookupFunctor returns the signature of the functor called name.
func LookupFunctor(name string) (Functor, bool) {
	f, ok := functors[name]
	return f, ok
}
