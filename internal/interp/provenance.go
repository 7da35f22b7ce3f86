package interp

import (
	"fmt"

	"sti/internal/tuple"
)

// Provenance support: interpreters exist in large part for the development
// and debugging workflow the paper motivates in §1 (citing Soufflé's
// provenance-based debugger [54]). In provenance mode the engine records,
// for the *first* derivation of every tuple, the rule and the body tuples
// that produced it; Explain then reconstructs a proof tree.
//
// The recording strategy follows Soufflé's observation that first
// derivations are well-founded: every premise was inserted before its
// conclusion, so proof trees are finite and acyclic.

// Proof is one node of a derivation tree. Leaves (input facts and
// equivalence-closure pairs) have an empty Rule and no premises.
type Proof struct {
	Relation string
	Tuple    tuple.Tuple
	Rule     string
	Premises []*Proof
}

// premiseRec locates one body tuple of a recorded derivation.
type premiseRec struct {
	relID int // base relation ID
	tup   tuple.Tuple
}

type proofRec struct {
	label    string
	premises []premiseRec
}

// provenance stores first-derivation records per base relation.
type provenance struct {
	proofs []map[string]proofRec // by base relation ID
}

func newProvenance(numRels int) *provenance {
	p := &provenance{proofs: make([]map[string]proofRec, numRels)}
	for i := range p.proofs {
		p.proofs[i] = map[string]proofRec{}
	}
	return p
}

// key encodes a tuple as a map key.
func provKey(t tuple.Tuple) string {
	b := make([]byte, 0, len(t)*4)
	for _, v := range t {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// record stores the first derivation of a tuple.
func (p *provenance) record(relID int, t tuple.Tuple, label string, premises []premiseRec) {
	k := provKey(t)
	if _, seen := p.proofs[relID][k]; seen {
		return
	}
	p.proofs[relID][k] = proofRec{label: label, premises: premises}
}

// recordDerivation is called by the executor after a successful insert; it
// snapshots the currently bound tuples of the enclosing query. t is the
// context's scratch tuple, so it is copied first.
func (ex *executor) recordDerivation(n *inode, t tuple.Tuple, ctx *context) {
	q := ex.curQ
	if q == nil {
		return
	}
	t = tuple.Clone(t)
	relID := n.rel2BaseID()
	var premises []premiseRec
	for tid, rel := range q.premRels {
		if rel < 0 {
			continue
		}
		bound := ctx.tuples[tid]
		premises = append(premises, premiseRec{relID: int(rel), tup: tuple.Clone(bound)})
	}
	// Positive membership tests contribute their (fully determined) tuple.
	for _, pn := range q.premExists {
		enc := make(tuple.Tuple, pn.arity)
		for i, ch := range pn.children {
			enc[i] = ex.eval(ch, ctx)
		}
		src := make(tuple.Tuple, pn.arity)
		pn.order.Decode(src, enc)
		premises = append(premises, premiseRec{relID: int(pn.baseID), tup: src})
	}
	ex.prov.record(relID, t, q.label, premises)
}

// rel2BaseID maps the insert target to its user-visible relation.
func (n *inode) rel2BaseID() int { return int(n.baseID) }

// Explain reconstructs the proof tree for a tuple of the named relation.
// Tuples without a recorded derivation (inputs, facts absorbed before
// provenance, equivalence-closure pairs) become leaves. Returns an error if
// the engine did not run in provenance mode or the tuple is not in the
// relation.
func (e *Engine) Explain(name string, t tuple.Tuple) (*Proof, error) {
	if e.prov == nil {
		return nil, fmt.Errorf("interp: engine did not run with Config.Provenance")
	}
	var relID = -1
	for _, rd := range e.prog.Relations {
		if rd.Name == name && !rd.IsAux() {
			relID = rd.ID
			break
		}
	}
	if relID < 0 {
		return nil, fmt.Errorf("interp: unknown relation %q", name)
	}
	if !e.rels[relID].Contains(t) {
		return nil, fmt.Errorf("interp: %s%s is not derivable", name, tuple.String(t))
	}
	memo := map[string]*Proof{}
	return e.explain(relID, t, memo), nil
}

func (e *Engine) explain(relID int, t tuple.Tuple, memo map[string]*Proof) *Proof {
	key := fmt.Sprintf("%d/%s", relID, provKey(t))
	if p, ok := memo[key]; ok {
		return p
	}
	p := &Proof{
		Relation: e.prog.Relations[relID].Name,
		Tuple:    tuple.Clone(t),
	}
	memo[key] = p
	if rec, ok := e.prov.proofs[relID][provKey(t)]; ok {
		p.Rule = rec.label
		for _, prem := range rec.premises {
			p.Premises = append(p.Premises, e.explain(prem.relID, prem.tup, memo))
		}
	}
	return p
}
