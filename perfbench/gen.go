package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// rng is splitmix64. The benchmark owns its generator so that a seed names
// the same inputs under every Go release and after any refactor of the
// repository's own benchmark helpers.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + 1}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for every n
// the generators use.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// row is one fact of all-number relations (every benchmark program declares
// number attributes only, so facts are plain int32 tuples).
type row []int32

// fact is a row of a named input relation.
type fact struct {
	rel string
	row row
}

func (f fact) key() string { return f.rel + "\t" + f.row.tsv() }

func (r row) tsv() string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte('\t')
		}
		b.WriteString(strconv.Itoa(int(v)))
	}
	return b.String()
}

// query is one prefix query: fields are decimal numbers or "_".
type query struct {
	rel     string
	pattern []string
	// maxRows bounds the answer whatever the writer has applied so far; a
	// longer answer is a failed operation.
	maxRows int
}

// dataset is everything a seed determines for one workload: the base EDB
// and, for a serve workload, the pool of further facts the apply script draws
// its insertions from (no pool fact is in the base, none repeats) and the
// reader's query cycle.
type dataset struct {
	rels    []string // input relations, in a fixed order
	facts   map[string][]row
	pool    []fact
	queries []query
}

func (d *dataset) add(rel string, vals ...int) {
	r := make(row, len(vals))
	for i, v := range vals {
		r[i] = int32(v)
	}
	d.facts[rel] = append(d.facts[rel], r)
}

func newDataset(rels ...string) *dataset {
	return &dataset{rels: rels, facts: map[string][]row{}}
}

// base lists the base EDB relation by relation, in file order.
func (d *dataset) base() []fact {
	var out []fact
	for _, rel := range d.rels {
		for _, r := range d.facts[rel] {
			out = append(out, fact{rel, r})
		}
	}
	return out
}

// dedupe removes repeated base facts (keeping first occurrences) so that
// fact counts, file sizes and the pool's "not in base" guarantee are exact.
func (d *dataset) dedupe() map[string]bool {
	seen := map[string]bool{}
	for _, rel := range d.rels {
		kept := d.facts[rel][:0]
		for _, r := range d.facts[rel] {
			k := fact{rel, r}.key()
			if !seen[k] {
				seen[k] = true
				kept = append(kept, r)
			}
		}
		d.facts[rel] = kept
	}
	return seen
}

// fillPool draws candidate facts until the pool holds n that are neither in
// the base nor already pooled.
func (d *dataset) fillPool(n int, seen map[string]bool, draw func() fact) {
	for tries := 0; len(d.pool) < n; tries++ {
		if tries > 50*n+1000 {
			panic(fmt.Sprintf("perfbench: generator cannot find %d distinct pool facts", n))
		}
		f := draw()
		if k := f.key(); !seen[k] {
			seen[k] = true
			d.pool = append(d.pool, f)
		}
	}
}

// structureSeed draws the shape of the three batch inputs. It is frozen: the
// run time of a Datalog fixpoint grows faster than linearly with the size of
// the closure, and two random graphs of one size differ by a tenth or more in
// the work they cause, which would drown any bound worth having. The run's
// --seed therefore decides everything that leaves the amount of work alone —
// which identifier every variable, heap object, subnet or instance gets, where
// the "binary" is loaded, and the order of the facts in their files — while
// the shape stays the one this seed drew. The serve workloads draw everything
// from --seed: their work is a sum over thousands of small independent
// requests and is steady for that reason.
const structureSeed = 20210621 // PLDI 2021

// perm returns a seeded permutation of 0..n-1.
func perm(r *rng, n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// relabel rewrites every fact through the column maps: cols[rel][i] maps the
// values of column i (nil leaves the column alone).
func (d *dataset) relabel(cols map[string][]func(int32) int32) {
	for _, rel := range d.rels {
		for _, r := range d.facts[rel] {
			for i, f := range cols[rel] {
				if f != nil {
					r[i] = f(r[i])
				}
			}
		}
	}
}

// shuffle reorders every input relation's facts.
func (d *dataset) shuffle(r *rng) {
	for _, rel := range d.rels {
		rows := d.facts[rel]
		for i := len(rows) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			rows[i], rows[j] = rows[j], rows[i]
		}
	}
}

func through(p []int32) func(int32) int32 { return func(v int32) int32 { return p[v] } }

// --- DOOP: Andersen points-to -------------------------------------------

type doopSize struct{ vars, heaps, moves, stores, loads, fields int }

// genDoop lays out a synthetic Java-like heap: every heap object is
// allocated into some variable, and a shared "library" fifth of the
// variables is reused heavily, which is what makes the real DaCapo inputs
// behave alike.
func genDoop(seed int64, sz doopSize) *dataset {
	r := newRNG(structureSeed, 1)
	d := newDataset("alloc", "move", "store", "load")
	lib := sz.vars/5 + 1
	pick := func() int {
		if r.intn(3) == 0 {
			return r.intn(lib)
		}
		return r.intn(sz.vars)
	}
	for h := 0; h < sz.heaps; h++ {
		d.add("alloc", r.intn(sz.vars), h)
	}
	for i := 0; i < sz.moves; i++ {
		d.add("move", pick(), pick())
	}
	for i := 0; i < sz.stores; i++ {
		d.add("store", pick(), r.intn(sz.fields), pick())
	}
	for i := 0; i < sz.loads; i++ {
		d.add("load", pick(), pick(), r.intn(sz.fields))
	}
	d.dedupe()
	p := newRNG(seed, 1)
	v, h, f := through(perm(p, sz.vars)), through(perm(p, sz.heaps)), through(perm(p, sz.fields))
	d.relabel(map[string][]func(int32) int32{
		"alloc": {v, h}, "move": {v, v}, "store": {v, f, v}, "load": {v, v, f},
	})
	d.shuffle(p)
	return d
}

// --- DDisasm: layout recovery -------------------------------------------

// genDisasm lays instructions out back to back with sizes 2/4/8; about one
// in ten is a jump to a random instruction start. The seed picks the load
// address: the entry stub at address 0 (which the program's code(0) fact
// anchors) jumps to it. Load addresses are multiples of 48, so every rule
// that looks at an address modulo 2, 3, 8 or 16 sees the same residues at
// any of them.
func genDisasm(seed int64, instr int) *dataset {
	d := newDataset("instruction")
	r := newRNG(structureSeed, 2)
	sizes := []int{2, 4, 4, 4, 8}
	addrs := make([]int, instr)
	rows := make([]row, instr)
	addr := 0
	for i := range rows {
		addrs[i] = addr
		rows[i] = row{int32(addr), int32(sizes[r.intn(len(sizes))]), 0, 0}
		addr += int(rows[i][1])
	}
	for _, in := range rows {
		if r.intn(10) == 0 {
			in[2], in[3] = 1, int32(addrs[r.intn(instr)])
		}
	}
	d.facts["instruction"] = rows
	p := newRNG(seed, 2)
	base := int32(48 * (1 + p.intn(4096)))
	load := func(a int32) int32 { return a + base }
	d.relabel(map[string][]func(int32) int32{"instruction": {load, nil, nil, load}})
	d.facts["instruction"] = append(d.facts["instruction"], row{0, 2, 1, base})
	d.shuffle(p)
	return d
}

// --- VPC: network reachability ------------------------------------------

type vpcSize struct{ subnets, routes, instances, ports int }

// genVPC draws a routing graph in which a tenth of the subnets are hubs that
// attract a quarter of the route endpoints (the rough power-law shape of
// real configurations), places instances on subnets and opens a few
// well-known ports per subnet.
func genVPC(seed int64, sz vpcSize) *dataset {
	r := newRNG(structureSeed, 3)
	d := newDataset("route", "instance", "acl")
	pick := func() int {
		if r.intn(4) == 0 {
			return r.intn(1 + sz.subnets/10)
		}
		return r.intn(sz.subnets)
	}
	for i := 0; i < sz.routes; i++ {
		d.add("route", pick(), pick())
	}
	for i := 0; i < sz.instances; i++ {
		d.add("instance", i, r.intn(sz.subnets))
	}
	wellKnown := []int{22, 80, 443, 5432, 8080, 9092}
	for s := 0; s < sz.subnets; s++ {
		for k := 0; k < sz.ports; k++ {
			d.add("acl", s, wellKnown[r.intn(len(wellKnown))])
		}
	}
	d.dedupe()
	p := newRNG(seed, 3)
	sub, inst := through(perm(p, sz.subnets)), through(perm(p, sz.instances))
	d.relabel(map[string][]func(int32) int32{
		"route": {sub, sub}, "instance": {inst, sub}, "acl": {sub, nil},
	})
	d.shuffle(p)
	return d
}

// --- serve: reachability over bounded components -------------------------

type reachSize struct {
	comps     int // connected components
	nodes     int // nodes per component
	edges     int // base edges per component
	labels    int // base labelled nodes per component
	labelPool int // one pool fact in labelPool is a label, the rest are edges
}

// genReach builds many small components so that the transitive closure, and
// with it every update, delete and query, stays bounded by the component
// size while the relations as a whole are large. Node c*nodes+i belongs to
// component c; every label of component c has the value c, so tagged(_, c)
// answers with at most `nodes` rows and path(x, _) likewise.
func genReach(seed int64, sz reachSize, pool int) *dataset {
	r := newRNG(seed, 4)
	d := newDataset("edge", "label")
	node := func(c int) int32 { return int32(c*sz.nodes + r.intn(sz.nodes)) }
	edgeIn := func(c int) row {
		x, y := node(c), node(c)
		for y == x {
			y = node(c)
		}
		return row{x, y}
	}
	for c := 0; c < sz.comps; c++ {
		for i := 0; i < sz.edges; i++ {
			d.facts["edge"] = append(d.facts["edge"], edgeIn(c))
		}
		for i := 0; i < sz.labels; i++ {
			d.facts["label"] = append(d.facts["label"], row{node(c), int32(c)})
		}
	}
	for i := 0; i < 512; i++ {
		if i%2 == 0 {
			d.queries = append(d.queries, query{"path", []string{strconv.Itoa(r.intn(sz.comps * sz.nodes)), "_"}, sz.nodes})
		} else {
			d.queries = append(d.queries, query{"tagged", []string{"_", strconv.Itoa(r.intn(sz.comps))}, sz.nodes})
		}
	}
	d.fillPool(pool, d.dedupe(), func() fact {
		c := r.intn(sz.comps)
		if r.intn(sz.labelPool) == 0 {
			return fact{"label", row{node(c), int32(c)}}
		}
		return fact{"edge", edgeIn(c)}
	})
	return d
}

// --- apply script ---------------------------------------------------------

// apply is one scripted write request: a batch of insertions or a batch of
// deletions, never both.
type apply struct {
	del   bool
	facts []fact
}

const (
	insertBatch = 10 // facts per insert batch
	deleteBatch = 5  // facts per delete batch
	deleteShare = 30 // percent of applies that delete
)

// poolFor returns the number of pool facts a script of n applies can need.
func poolFor(n int) int { return n*insertBatch + insertBatch }

// buildScript lays out n applies. Which applies delete is fixed — apply i
// deletes when (i+1)*deleteShare/100 steps to a new whole number, i.e. the
// 4th, 7th and 10th of every ten — so every script of four applies or more
// holds deletes and the class sample counts are the same for every seed. A
// delete removes deleteBatch facts drawn among those the script inserted
// earlier and has not deleted since, so every deletion targets a live fact;
// an insert adds the next insertBatch pool facts.
func buildScript(seed int64, pool []fact, n int) []apply {
	r := newRNG(seed, 5)
	var live []fact
	next := 0
	script := make([]apply, 0, n)
	for i := 0; i < n; i++ {
		if (i+1)*deleteShare/100 > i*deleteShare/100 {
			a := apply{del: true}
			for k := 0; k < deleteBatch; k++ {
				j := r.intn(len(live))
				a.facts = append(a.facts, live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			script = append(script, a)
			continue
		}
		if next+insertBatch > len(pool) {
			panic("perfbench: apply script outran its fact pool")
		}
		a := apply{facts: pool[next : next+insertBatch]}
		next += insertBatch
		live = append(live, a.facts...)
		script = append(script, a)
	}
	return script
}

// preloadApplies cuts the base EDB into the insert batches of chunk facts
// that a resident database is loaded with.
func preloadApplies(d *dataset, chunk int) []apply {
	base := d.base()
	var out []apply
	for len(base) > 0 {
		n := min(chunk, len(base))
		out = append(out, apply{facts: base[:n]})
		base = base[n:]
	}
	return out
}

// body renders the apply as the +rel/-rel lines /apply accepts.
func (a apply) body() string {
	sign := "+"
	if a.del {
		sign = "-"
	}
	var b strings.Builder
	for _, f := range a.facts {
		b.WriteString(sign)
		b.WriteString(f.rel)
		b.WriteByte('\t')
		b.WriteString(f.row.tsv())
		b.WriteByte('\n')
	}
	return b.String()
}

// finalFacts replays the script over the base EDB and returns the input
// relations as they stand after its last apply.
func finalFacts(d *dataset, script []apply) map[string][]row {
	live := map[string]fact{}
	for _, f := range d.base() {
		live[f.key()] = f
	}
	for _, a := range script {
		for _, f := range a.facts {
			if a.del {
				delete(live, f.key())
			} else {
				live[f.key()] = f
			}
		}
	}
	keys := make([]string, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := map[string][]row{}
	for _, k := range keys {
		f := live[k]
		out[f.rel] = append(out[f.rel], f.row)
	}
	return out
}
