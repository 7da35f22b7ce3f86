// Package ram defines the Relational Algebra Machine (RAM) intermediate
// representation (paper §2, Figs 3 and 17): an imperative/relational program
// over typed relations, produced from the AST by internal/ast2ram and
// consumed by the interpreter (internal/interp), the closure compiler
// (internal/compile), and the Go source emitter (internal/codegen).
//
// A RAM program consists of relation declarations and a statement tree.
// Statements provide control flow (sequences, fixpoint loops, exits) and
// whole-relation operations (clear, swap, merge, I/O). A Query statement
// roots an *operation* tree: nested scans, index scans, filters, aggregates,
// and a final projection — the compiled form of one Datalog rule.
//
// Coordinates: RAM is written entirely in *source* tuple coordinates.
// Index orders are chosen by internal/indexselect and recorded in the
// relation declarations; mapping source coordinates onto encoded index
// coordinates is the backends' job (statically with the paper's §4.2
// reordering, or dynamically through decoding adapters).
package ram

import (
	"sti/internal/tuple"
	"sti/internal/value"
)

// Relation declares a RAM relation: name, shape, representation, and the
// set of index orders that back it.
type Relation struct {
	ID     int
	Name   string
	Arity  int
	Types  []value.Type
	Rep    RepKind
	Orders []tuple.Order // index 0 is the primary

	Input     bool
	Output    bool
	PrintSize bool

	// Kind classifies an aux relation's role (AuxNone for source relations).
	Kind AuxKind
	// BaseID is the source relation a delta/new/recent relation shadows
	// (its own ID for source relations). Provenance uses it to attribute
	// premises read from deltas to the user-visible relation.
	BaseID int
	// Stratum is the evaluation stratum of the relation's defining SCC;
	// aux relations inherit their base's stratum. The verifier uses it to
	// check that update sections stay within their own stratum's scratch
	// space.
	Stratum int
	// ShardKey is the relation's partition column for shard-parallel
	// evaluation, stored 1-based (column index + 1) so the zero value means
	// "no shard plan". It is stamped by ast2ram from the join-key analysis
	// (analysis.ShardKeys); aux relations carry the same key as their base
	// so swaps and merges between a relation and its delta/new/recent
	// companions move whole partitions. EqRel and nullary relations never
	// carry a plan. Backends that do not shard ignore the field.
	ShardKey int
}

// IsAux reports whether r is an aux relation rather than a source relation.
func (r *Relation) IsAux() bool { return r.Kind != AuxNone }

// ShardCol returns the 0-based partition column of the relation's shard
// plan, or -1 when the relation carries none.
func (r *Relation) ShardCol() int { return r.ShardKey - 1 }

// AuxKind names the role of an auxiliary relation in semi-naive evaluation.
// ast2ram names the aux relation of role k for source R "@" + k.String() +
// "_" + R.
type AuxKind uint8

// Auxiliary relation roles.
const (
	AuxNone   AuxKind = iota // a source relation
	AuxDelta                 // delta_R: tuples new in the previous iteration
	AuxNew                   // new_R: tuples derived in the current iteration
	AuxRecent                // recent_R: tuples fresh since the last Apply batch

	// Delete-propagation scratch space (DRed, see ast2ram/delete.go).
	AuxDel      // del_R: tuples scheduled for physical removal from R
	AuxDelDelta // ddel_R: overdeletion frontier of the previous iteration
	AuxDelNew   // ndel_R: overdeletions derived in the current iteration
	AuxRed      // red_R: overdeleted tuples proven to survive (rederived)
	AuxRedDelta // dred_R: rederivation frontier of the previous iteration
	AuxRedNew   // nred_R: rederivations derived in the current iteration
)

func (k AuxKind) String() string {
	switch k {
	case AuxDelta:
		return "delta"
	case AuxNew:
		return "new"
	case AuxRecent:
		return "recent"
	case AuxDel:
		return "del"
	case AuxDelDelta:
		return "ddel"
	case AuxDelNew:
		return "ndel"
	case AuxRed:
		return "red"
	case AuxRedDelta:
		return "dred"
	case AuxRedNew:
		return "nred"
	default:
		return "none"
	}
}

// RepKind mirrors relation.Rep without importing it (the IR stays
// representation-agnostic; backends map RepKind onto concrete stores).
type RepKind uint8

// Relation representations.
const (
	RepBTree RepKind = iota
	RepBrie
	RepEqRel
)

func (r RepKind) String() string {
	switch r {
	case RepBrie:
		return "brie"
	case RepEqRel:
		return "eqrel"
	default:
		return "btree"
	}
}

// Program is a complete RAM program.
type Program struct {
	Relations []*Relation
	Main      Statement
	// Update is the incremental re-evaluation entry point: a delta-restart
	// variant of every stratum, run by a resident engine after new EDB
	// facts have been staged into the recent_R relations. It is nil when
	// the program is not insert-monotone (negation or aggregates), in
	// which case resident engines fall back to full recomputation.
	// The peephole RAM optimization passes rewrite Main only; index
	// selection (indexselect.Assign) reads Main, Update and Delete together
	// so the entry points share one set of index orders.
	Update Statement
	// NoUpdateReason is the monotonicity-analysis fact explaining a nil
	// Update ("" when an update program was emitted): it names the first
	// rule that breaks insert-monotonicity, so resident engines can report
	// why incremental application is unavailable.
	NoUpdateReason string
	// Delete is the incremental retraction entry point: overdelete/rederive
	// (DRed) for every stratum, run after retracted EDB facts have been
	// staged into the del_R relations. nil when the program is not
	// deletable (see NoDeleteReason); deletable implies an Update program
	// exists.
	Delete Statement
	// NoDeleteReason explains a nil Delete ("" when a delete program was
	// emitted), mirroring NoUpdateReason.
	NoDeleteReason string
	// NumRules counts translated source rules, for profiling tables.
	NumRules int
}

// --- statements ---

// Statement is the control-flow layer of RAM.
type Statement interface{ isStatement() }

// Sequence executes statements in order.
type Sequence struct {
	Stmts []Statement
}

// Loop executes Body until an Exit statement fires.
type Loop struct {
	Body Statement
	// Label names the fixpoint for diagnostics and telemetry (the stratum
	// and its recursive relations); it carries no semantics.
	Label string
}

// Exit breaks the innermost loop when Cond holds.
type Exit struct {
	Cond Condition
}

// Query executes an operation tree (one rule evaluation).
type Query struct {
	Root Operation
	// NumTuples is the number of tuple slots the rule needs (context size).
	NumTuples int
	// RuleID/Label identify the source rule for the profiler.
	RuleID int
	Label  string
	// Parallel marks the outermost scan as parallelizable.
	Parallel bool
}

// Clear empties a relation.
type Clear struct {
	Rel *Relation
}

// Swap exchanges the contents of two relations with identical signatures.
type Swap struct {
	A, B *Relation
}

// Merge inserts every tuple of Src into Dst. (Newer Soufflé lowers this to
// a scan+project loop; keeping the instruction shrinks hot fixpoint code.)
type Merge struct {
	Dst, Src *Relation
}

// Subtract removes every tuple of Src from Dst: the physical-removal pass of
// delete propagation, run once per source relation after all strata have
// finished reading the old state.
type Subtract struct {
	Dst, Src *Relation
}

// IOKind selects an I/O action.
type IOKind uint8

// I/O actions.
const (
	IOLoad IOKind = iota
	IOStore
	IOPrintSize
)

// IO performs input/output on a relation through the runtime's I/O handler.
type IO struct {
	Kind IOKind
	Rel  *Relation
}

// LogTimer wraps a statement with a profiler timer.
type LogTimer struct {
	Label string
	Stmt  Statement
}

func (*Sequence) isStatement() {}
func (*Loop) isStatement()     {}
func (*Exit) isStatement()     {}
func (*Query) isStatement()    {}
func (*Clear) isStatement()    {}
func (*Swap) isStatement()     {}
func (*Merge) isStatement()    {}
func (*Subtract) isStatement() {}
func (*IO) isStatement()       {}
func (*LogTimer) isStatement() {}

// --- operations ---

// Operation is one level of a query's nested-loop tree.
type Operation interface{ isOperation() }

// Scan enumerates all tuples of a relation, binding each to TupleID.
type Scan struct {
	Rel     *Relation
	TupleID int
	Nested  Operation
}

// IndexScan enumerates the tuples matching the bound positions of Pattern
// (nil entries are unbound), using index IndexID of Rel, binding each to
// TupleID. The bound positions are exactly the first k positions of the
// chosen index order.
type IndexScan struct {
	Rel     *Relation
	IndexID int
	Pattern []Expr // length == arity; nil means unbound
	TupleID int
	Nested  Operation
}

// Choice finds at most one tuple of Rel satisfying Cond, binds it to
// TupleID, and runs Nested once.
type Choice struct {
	Rel     *Relation
	Cond    Condition
	TupleID int
	Nested  Operation
}

// IndexChoice is Choice over an index range.
type IndexChoice struct {
	Rel     *Relation
	IndexID int
	Pattern []Expr
	Cond    Condition
	TupleID int
	Nested  Operation
}

// Filter runs Nested only when Cond holds.
type Filter struct {
	Cond   Condition
	Nested Operation
}

// Project inserts a tuple built from Exprs into Rel (the INSERT of Fig 3).
type Project struct {
	Rel   *Relation
	Exprs []Expr
}

// AggKind is an aggregate operator.
type AggKind uint8

// Aggregate operators.
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
)

func (k AggKind) String() string {
	return [...]string{"count", "sum", "min", "max"}[k]
}

// Aggregate folds Target over the tuples of Rel matching Pattern (nil
// Pattern entries unbound; IndexID -1 means full scan) that satisfy Cond.
// Each candidate tuple is bound to TupleID while Target/Cond evaluate; the
// final aggregate result is then bound as a 1-tuple at TupleID and Nested
// runs once. Min/max over an empty set do not run Nested; count/sum yield
// 0.
type Aggregate struct {
	Kind    AggKind
	Rel     *Relation
	IndexID int
	Pattern []Expr
	Cond    Condition // may be nil
	Target  Expr      // nil for count
	Type    value.Type
	TupleID int
	Nested  Operation
}

func (*Scan) isOperation()        {}
func (*IndexScan) isOperation()   {}
func (*Choice) isOperation()      {}
func (*IndexChoice) isOperation() {}
func (*Filter) isOperation()      {}
func (*Project) isOperation()     {}
func (*Aggregate) isOperation()   {}

// --- conditions ---

// Condition is a boolean query fragment.
type Condition interface{ isCondition() }

// And is a conjunction.
type And struct {
	L, R Condition
}

// Not negates a condition.
type Not struct {
	C Condition
}

// EmptinessCheck holds when the relation is empty.
type EmptinessCheck struct {
	Rel *Relation
}

// ExistenceCheck holds when some tuple of Rel matches the bound positions
// of Pattern (all positions bound = membership test). IndexID selects the
// index whose order makes the bound set a prefix.
type ExistenceCheck struct {
	Rel     *Relation
	IndexID int
	Pattern []Expr
}

// Constraint compares two expressions under a typed ordering.
type Constraint struct {
	Op   CmpOp
	Type value.Type
	L, R Expr
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (op CmpOp) String() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">="}[op]
}

func (*And) isCondition()            {}
func (*Not) isCondition()            {}
func (*EmptinessCheck) isCondition() {}
func (*ExistenceCheck) isCondition() {}
func (*Constraint) isCondition()     {}

// --- expressions ---

// Expr is a value-producing query fragment.
type Expr interface{ isExpr() }

// Constant is a literal 32-bit word.
type Constant struct {
	Val value.Value
}

// TupleElement reads element Elem (source coordinates) of the tuple bound
// at TupleID.
type TupleElement struct {
	TupleID int
	Elem    int
}

// IntrinsicOp identifies a functor.
type IntrinsicOp uint8

// Intrinsic functors. Arithmetic is interpreted under the node's Type.
const (
	OpAdd IntrinsicOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpPow
	OpBAnd
	OpBOr
	OpBXor
	OpBShl
	OpBShr
	OpLAnd
	OpLOr
	OpNeg
	OpBNot
	OpLNot
	OpMin
	OpMax
	OpCat
	OpStrlen
	OpSubstr
	OpOrd
	OpToNumber
	OpToString
)

func (op IntrinsicOp) String() string {
	return [...]string{
		"add", "sub", "mul", "div", "mod", "pow", "band", "bor", "bxor",
		"bshl", "bshr", "land", "lor", "neg", "bnot", "lnot", "min", "max",
		"cat", "strlen", "substr", "ord", "to_number", "to_string",
	}[op]
}

// Intrinsic applies a functor to argument expressions. Type selects the
// signed/unsigned/float interpretation for arithmetic.
type Intrinsic struct {
	Op   IntrinsicOp
	Type value.Type
	Args []Expr
}

func (*Constant) isExpr()     {}
func (*TupleElement) isExpr() {}
func (*Intrinsic) isExpr()    {}
