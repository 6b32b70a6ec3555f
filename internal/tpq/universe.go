package tpq

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"flexpath/internal/ir"
)

// Bits is a set of predicates of one Universe, one bit per universe
// index. Its length is fixed by the universe (Universe.NewBits); sets of
// different universes must not be mixed.
type Bits []uint64

// Has reports whether index i is in the set.
func (b Bits) Has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set adds index i.
func (b Bits) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes index i.
func (b Bits) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Copy overwrites b with o.
func (b Bits) Copy(o Bits) { copy(b, o) }

// Intersects reports whether b and o share an index.
func (b Bits) Intersects(o Bits) bool {
	for w := range b {
		if b[w]&o[w] != 0 {
			return true
		}
	}
	return false
}

// Next returns the smallest index >= i in the set, or -1. Iterating
// with it visits predicates in canonical key order.
func (b Bits) Next(i int) int {
	w := i >> 6
	if w >= len(b) {
		return -1
	}
	if rest := b[w] >> (uint(i) & 63); rest != 0 {
		return i + bits.TrailingZeros64(rest)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return w<<6 + bits.TrailingZeros64(b[w])
		}
	}
	return -1
}

// rule is one instance of an inference rule of Figure 3 among the
// predicates of a universe: a and b together derive c. Rule 1 (pc |- ad)
// has a == b.
type rule struct{ a, b, c int32 }

// Universe is the indexed predicate universe of one query: every
// predicate of the closure of a predicate set, in canonical-key order
// (index order equals Pred.Key() string order, so ascending-index
// iteration is PredSet.List() iteration), with the instances of the three
// inference rules among them precomputed. Every subset of a closed set
// has its closure inside that set, so all predicate sets relaxation ever
// visits — closures, cores, the sets left after dropping predicates —
// are Bits over one universe, and Close, Derivable and Core are
// fixpoints of the rule table over machine words.
//
// A Universe is immutable after construction and safe for concurrent
// use; the scratch sets its methods take are the caller's.
type Universe struct {
	preds []Pred
	keys  []string
	words int

	// Variables, densely numbered in stable-ID order.
	varIDs []int
	tags   []string // tag of each variable's tag predicate, "" if none
	parent []int    // dense index of the query parent; -1 for the root or when unknown

	px, py []int32 // dense subject / object variable of each predicate
	class  []int32 // expression class of each contains predicate, else -1

	// pc[x*nv+y], ad[x*nv+y] and contains[c*nv+x] are predicate indices,
	// -1 where the universe has no such predicate. An expression class
	// is one distinct canonical full-text expression.
	pc, ad, contains []int32
	canons           []string

	// in[y] / out[x]: the structural predicates into / out of a variable;
	// attrs[x]: its tag, contains and value predicates.
	in, out, attrs []Bits

	rules []rule
	// onePass: the ad graph is acyclic, so one pass over rules (ordered so
	// that premises come before conclusions) saturates any set.
	onePass bool
	// derived marks the predicates some rule concludes; no other
	// predicate is ever derivable.
	derived Bits
	// logical marks the predicates the universe was built from.
	logical Bits
}

// NewUniverse builds the universe of q's closure. Logical() is q's
// logical form and All() its closure.
func NewUniverse(q *Query) *Universe {
	base := make([]Pred, 0, 3*len(q.Nodes))
	for i := range q.Nodes {
		n := &q.Nodes[i]
		base = append(base, Pred{Kind: PredTag, X: n.ID, Tag: n.Tag})
		for _, e := range n.Contains {
			base = append(base, Pred{Kind: PredContains, X: n.ID, Expr: e})
		}
		for _, v := range n.Values {
			base = append(base, Pred{Kind: PredValue, X: n.ID, VP: v})
		}
		if n.Parent != -1 {
			kind := PredPC
			if n.Axis == Descendant {
				kind = PredAD
			}
			base = append(base, Pred{Kind: kind, X: q.Nodes[n.Parent].ID, Y: n.ID})
		}
	}
	u := newUniverse(base)
	for i := range q.Nodes {
		if p := q.Nodes[i].Parent; p != -1 {
			u.parent[u.VarOf(q.Nodes[i].ID)] = u.VarOf(q.Nodes[p].ID)
		}
	}
	return u
}

// newUniverse builds the universe of the closure of an arbitrary
// predicate list (duplicates allowed). The closure is computed
// structurally: ad(x,z) holds for every path of pc/ad predicates from x
// to z, and contains(x,e) for every x with a path to a y carrying
// contains(y,e) — the least fixpoint of the three rules.
func newUniverse(base []Pred) *Universe {
	u := &Universe{}
	for _, p := range base {
		u.varIDs = append(u.varIDs, p.X)
		if p.Kind == PredPC || p.Kind == PredAD {
			u.varIDs = append(u.varIDs, p.Y)
		}
	}
	sort.Ints(u.varIDs)
	u.varIDs = slices.Compact(u.varIDs)
	nv := len(u.varIDs)

	// Reachability over variables (Warshall), base contains per class.
	pairs := make([]bool, 3*nv*nv)
	isPC, baseAD, reach := pairs[:nv*nv], pairs[nv*nv:2*nv*nv], pairs[2*nv*nv:]
	var classOf []int32 // class of each base contains predicate, in base order
	for _, p := range base {
		switch p.Kind {
		case PredPC, PredAD:
			xy := u.VarOf(p.X)*nv + u.VarOf(p.Y)
			reach[xy] = true
			if p.Kind == PredPC {
				isPC[xy] = true
			} else {
				baseAD[xy] = true
			}
		case PredContains:
			canon := p.Expr.Canon()
			c := u.ClassOf(canon)
			if c < 0 {
				c = len(u.canons)
				u.canons = append(u.canons, canon)
			}
			classOf = append(classOf, int32(c))
		}
	}
	for k := 0; k < nv; k++ {
		for x := 0; x < nv; x++ {
			if !reach[x*nv+k] {
				continue
			}
			for z := 0; z < nv; z++ {
				if reach[k*nv+z] {
					reach[x*nv+z] = true
				}
			}
		}
	}
	u.onePass = true
	for x := 0; x < nv; x++ {
		if reach[x*nv+x] {
			u.onePass = false
		}
	}

	// Emit the closure's predicates with their keys; isBase marks the
	// ones that were given (the rest are derived).
	ps := make([]Pred, 0, len(base)+nv*nv)
	es := make(entries, 0, cap(ps))
	emit := func(p Pred, key string, isBase bool, class int32) {
		es = append(es, entry{key, int32(len(ps)), class, isBase})
		ps = append(ps, p)
	}
	for x := 0; x < nv; x++ {
		for y := 0; y < nv; y++ {
			if isPC[x*nv+y] {
				p := Pred{Kind: PredPC, X: u.varIDs[x], Y: u.varIDs[y]}
				emit(p, p.Key(), true, -1)
			}
			if reach[x*nv+y] {
				p := Pred{Kind: PredAD, X: u.varIDs[x], Y: u.varIDs[y]}
				emit(p, p.Key(), baseAD[x*nv+y], -1)
			}
		}
	}
	ci := 0
	for _, p := range base {
		switch p.Kind {
		case PredTag, PredValue:
			emit(p, p.Key(), true, -1)
		case PredContains:
			c := classOf[ci]
			ci++
			emit(p, containsKey(p.X, u.canons[c]), true, c)
			y := u.VarOf(p.X)
			for x := 0; x < nv; x++ {
				if reach[x*nv+y] {
					emit(Pred{Kind: PredContains, X: u.varIDs[x], Expr: p.Expr}, containsKey(u.varIDs[x], u.canons[c]), false, c)
				}
			}
		}
	}
	sort.Stable(es)
	n := 0
	for i := range es {
		if n > 0 && es[n-1].key == es[i].key {
			// A given predicate wins over a derived duplicate, the first
			// given one over later ones (PredSet.Add semantics).
			if es[i].isBase && !es[n-1].isBase {
				es[n-1] = es[i]
			}
			continue
		}
		es[n] = es[i]
		n++
	}
	es = es[:n]

	// Index tables.
	u.words = (n + 63) / 64
	u.preds = make([]Pred, n)
	u.keys = make([]string, n)
	u.tags = make([]string, nv)
	u.parent = make([]int, nv)
	for v := range u.parent {
		u.parent[v] = -1
	}
	i32 := make([]int32, 3*n+2*nv*nv+len(u.canons)*nv)
	for i := range i32 {
		i32[i] = -1
	}
	u.px, u.py, u.class, i32 = i32[:n], i32[n:2*n], i32[2*n:3*n], i32[3*n:]
	u.pc, u.ad, u.contains = i32[:nv*nv], i32[nv*nv:2*nv*nv], i32[2*nv*nv:]
	sets := make([]uint64, (3*nv+2)*u.words)
	carve := func() Bits {
		b := Bits(sets[:u.words:u.words])
		sets = sets[u.words:]
		return b
	}
	u.in, u.out, u.attrs = make([]Bits, nv), make([]Bits, nv), make([]Bits, nv)
	for v := 0; v < nv; v++ {
		u.in[v], u.out[v], u.attrs[v] = carve(), carve(), carve()
	}
	u.derived, u.logical = carve(), carve()
	for i, e := range es {
		p := &ps[e.src]
		u.preds[i], u.keys[i] = *p, e.key
		if e.isBase {
			u.logical.Set(i)
		}
		x := u.VarOf(p.X)
		u.px[i] = int32(x)
		switch p.Kind {
		case PredPC, PredAD:
			y := u.VarOf(p.Y)
			u.py[i] = int32(y)
			if p.Kind == PredPC {
				u.pc[x*nv+y] = int32(i)
			} else {
				u.ad[x*nv+y] = int32(i)
			}
			u.out[x].Set(i)
			u.in[y].Set(i)
		case PredContains:
			u.class[i] = e.class
			u.contains[int(e.class)*nv+x] = int32(i)
			u.attrs[x].Set(i)
		case PredTag:
			u.tags[x] = p.Tag
			u.attrs[x].Set(i)
		default:
			u.attrs[x].Set(i)
		}
	}

	// Rule instances. Rule 2 instances are ordered by how many instances
	// share their conclusion: in an acyclic graph the premises of ad(x,z)
	// span strictly fewer intermediate variables than ad(x,z) itself, so
	// every premise is concluded before it is used.
	for _, i := range u.pc {
		if i >= 0 {
			u.addRule(i, i, u.ad[int(u.px[i])*nv+int(u.py[i])])
		}
	}
	start := len(u.rules)
	span := make([]int32, n)
	for x := 0; x < nv; x++ {
		for y := 0; y < nv; y++ {
			if u.ad[x*nv+y] < 0 {
				continue
			}
			for z := 0; z < nv; z++ {
				if u.ad[y*nv+z] >= 0 && u.addRule(u.ad[x*nv+y], u.ad[y*nv+z], u.ad[x*nv+z]) {
					span[u.ad[x*nv+z]]++
				}
			}
		}
	}
	sort.Stable(bySpan{u.rules[start:], span})
	for c := range u.canons {
		for y := 0; y < nv; y++ {
			if u.contains[c*nv+y] < 0 {
				continue
			}
			for x := 0; x < nv; x++ {
				if u.ad[x*nv+y] >= 0 {
					u.addRule(u.ad[x*nv+y], u.contains[c*nv+y], u.contains[c*nv+x])
				}
			}
		}
	}
	return u
}

// bySpan sorts rule-2 instances by how many share their conclusion.
type bySpan struct {
	rules []rule
	span  []int32
}

func (s bySpan) Len() int           { return len(s.rules) }
func (s bySpan) Less(i, j int) bool { return s.span[s.rules[i].c] < s.span[s.rules[j].c] }
func (s bySpan) Swap(i, j int)      { s.rules[i], s.rules[j] = s.rules[j], s.rules[i] }

// entry is one emitted predicate during universe construction: its key,
// where the predicate itself sits, its expression class (contains only)
// and whether it was given rather than derived.
type entry struct {
	key    string
	src    int32
	class  int32
	isBase bool
}

// entries sorts by key.
type entries []entry

func (e entries) Len() int           { return len(e) }
func (e entries) Less(i, j int) bool { return e[i].key < e[j].key }
func (e entries) Swap(i, j int)      { e[i], e[j] = e[j], e[i] }

// addRule records a, b |- c unless the conclusion is one of the premises
// (possible only in cyclic sets, and vacuous).
func (u *Universe) addRule(a, b, c int32) bool {
	if c == a || c == b {
		return false
	}
	u.rules = append(u.rules, rule{a, b, c})
	u.derived.Set(int(c))
	return true
}

// Len returns the number of predicates in the universe.
func (u *Universe) Len() int { return len(u.preds) }

// Pred returns predicate i.
func (u *Universe) Pred(i int) Pred { return u.preds[i] }

// Key returns Pred(i).Key(), computed once at construction.
func (u *Universe) Key(i int) string { return u.keys[i] }

// Index returns the index of p, or -1 when the universe has no such
// predicate.
func (u *Universe) Index(p Pred) int {
	k := p.Key()
	if i := sort.SearchStrings(u.keys, k); i < len(u.keys) && u.keys[i] == k {
		return i
	}
	return -1
}

// NewBits returns an empty set over the universe.
func (u *Universe) NewBits() Bits { return make(Bits, u.words) }

// All returns a new set holding every predicate: the closure.
func (u *Universe) All() Bits {
	b := u.NewBits()
	for i := range u.preds {
		b.Set(i)
	}
	return b
}

// Logical returns the predicates the universe was built from (a query's
// logical form). The result is shared and must not be modified.
func (u *Universe) Logical() Bits { return u.logical }

// PredSetOf materializes a set as a PredSet.
func (u *Universe) PredSetOf(b Bits) *PredSet {
	s := NewPredSet()
	for i := b.Next(0); i >= 0; i = b.Next(i + 1) {
		s.m[u.keys[i]] = u.preds[i]
	}
	return s
}

// VarOf returns the dense index (0-based, in stable-ID order) of the
// variable with the given stable ID, or -1.
func (u *Universe) VarOf(id int) int {
	if i := sort.SearchInts(u.varIDs, id); i < len(u.varIDs) && u.varIDs[i] == id {
		return i
	}
	return -1
}

// VarID returns the stable ID of dense variable v.
func (u *Universe) VarID(v int) int { return u.varIDs[v] }

// VarTag returns the tag constraint of dense variable v.
func (u *Universe) VarTag(v int) string { return u.tags[v] }

// VarParent returns the dense index of v's parent in the query the
// universe was built from, or -1 for the root.
func (u *Universe) VarParent(v int) int { return u.parent[v] }

// X and Y return the dense subject and object variables of predicate i
// (Y is -1 for non-structural predicates).
func (u *Universe) X(i int) int { return int(u.px[i]) }
func (u *Universe) Y(i int) int { return int(u.py[i]) }

// PC, AD and ContainsAt return the index of pc(x,y), ad(x,y) and
// contains(x, class) over dense variables, or -1. Class returns the
// expression class of contains predicate i.
func (u *Universe) PC(x, y int) int             { return int(u.pc[x*len(u.varIDs)+y]) }
func (u *Universe) AD(x, y int) int             { return int(u.ad[x*len(u.varIDs)+y]) }
func (u *Universe) ContainsAt(x, class int) int { return int(u.contains[class*len(u.varIDs)+x]) }
func (u *Universe) Class(i int) int             { return int(u.class[i]) }

// ClassOf returns the expression class with the given canonical form,
// or -1.
func (u *Universe) ClassOf(canon string) int {
	for c, s := range u.canons {
		if s == canon {
			return c
		}
	}
	return -1
}

// In, Out and Attrs return the structural predicates into and out of
// dense variable v, and its tag/contains/value predicates. The results
// are shared and must not be modified.
func (u *Universe) In(v int) Bits    { return u.in[v] }
func (u *Universe) Out(v int) Bits   { return u.out[v] }
func (u *Universe) Attrs(v int) Bits { return u.attrs[v] }

// Close saturates s in place under the inference rules.
func (u *Universe) Close(s Bits) { u.closeUntil(s, -1) }

// closeUntil saturates s, stopping early once goal is derived; it
// reports whether goal ended up in s.
func (u *Universe) closeUntil(s Bits, goal int32) bool {
	for {
		changed := false
		for _, r := range u.rules {
			if s.Has(int(r.c)) || !s.Has(int(r.a)) || !s.Has(int(r.b)) {
				continue
			}
			if r.c == goal {
				return true
			}
			s.Set(int(r.c))
			changed = true
		}
		if !changed || u.onePass {
			return false
		}
	}
}

// Derivable reports whether predicate i follows from s \ {i}; such a
// predicate is redundant in s (§3.2). scratch is overwritten.
func (u *Universe) Derivable(s Bits, i int, scratch Bits) bool {
	if !u.derived.Has(i) {
		return false
	}
	scratch.Copy(s)
	scratch.Clear(i)
	return u.closeUntil(scratch, int32(i))
}

// Core reduces s in place to the unique minimal set equivalent to it
// (§3.2, Theorem 1): its closure with every redundant predicate removed,
// in canonical key order. scratch is overwritten.
func (u *Universe) Core(s, scratch Bits) {
	u.Close(s)
	for {
		removed := false
		for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
			if u.Derivable(s, i, scratch) {
				s.Clear(i)
				removed = true
			}
		}
		if !removed {
			return
		}
	}
}

// Tree reconstructs a tree pattern query from a minimal predicate set
// (typically a Core result); see TreeFromPreds.
func (u *Universe) Tree(s Bits, distID int) (*Query, error) {
	type varInfo struct {
		present            bool
		axis               Axis
		tag                int32 // tag predicate, -1 none
		parent             int32 // dense variable, -1 unknown
		incoming           int32
		nContains, nValues int32
		node               int32 // index into q.Nodes
	}
	nv := len(u.varIDs)
	var buf [16]varInfo
	vars := buf[:0]
	if nv > len(buf) {
		vars = make([]varInfo, 0, nv)
	}
	for v := 0; v < nv; v++ {
		vars = append(vars, varInfo{tag: -1, parent: -1})
	}
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		x := &vars[u.px[i]]
		x.present = true
		switch u.preds[i].Kind {
		case PredTag:
			x.tag = int32(i)
		case PredContains:
			x.nContains++
		case PredValue:
			x.nValues++
		default:
			y := &vars[u.py[i]]
			y.present = true
			y.incoming++
			y.parent = u.px[i]
			y.axis = Descendant
			if u.preds[i].Kind == PredPC {
				y.axis = Child
			}
		}
	}
	roots, present := 0, 0
	for v := range vars {
		vi := &vars[v]
		if !vi.present {
			continue
		}
		present++
		// pc(x,y) and ad(x,y) together count as one edge: pc dominates.
		if vi.incoming == 2 {
			pc, ad := u.PC(int(vi.parent), v), u.AD(int(vi.parent), v)
			if pc >= 0 && ad >= 0 && s.Has(pc) && s.Has(ad) {
				vi.incoming = 1
				vi.axis = Child
			}
		}
		if vi.tag < 0 || u.preds[vi.tag].Tag == "" {
			return nil, fmt.Errorf("tpq: variable $%d has no tag predicate", u.varIDs[v])
		}
		switch vi.incoming {
		case 0:
			roots++
		case 1:
		default:
			return nil, fmt.Errorf("tpq: variable $%d has %d incoming structural edges", u.varIDs[v], vi.incoming)
		}
	}
	if roots != 1 {
		return nil, fmt.Errorf("tpq: predicate set has %d roots, want 1", roots)
	}
	dist := u.VarOf(distID)
	if dist < 0 || !vars[dist].present {
		return nil, fmt.Errorf("tpq: distinguished variable $%d not present", distID)
	}
	// Assemble in ID order; normalize fixes pre-order.
	q := &Query{Nodes: make([]Node, 0, present)}
	for v := range vars {
		if vars[v].present {
			vars[v].node = int32(len(q.Nodes))
			q.Nodes = append(q.Nodes, Node{ID: u.varIDs[v], Tag: u.preds[vars[v].tag].Tag, Axis: vars[v].axis, Parent: -1})
		}
	}
	for v := range vars {
		vi := &vars[v]
		if !vi.present {
			continue
		}
		n := &q.Nodes[vi.node]
		if vi.parent != -1 {
			n.Parent = int(vars[vi.parent].node)
		}
		if vi.nContains > 0 {
			n.Contains = make([]ir.Expr, 0, vi.nContains)
		}
		if vi.nValues > 0 {
			n.Values = make([]ValuePred, 0, vi.nValues)
		}
	}
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		n := &q.Nodes[vars[u.px[i]].node]
		switch u.preds[i].Kind {
		case PredContains:
			n.Contains = append(n.Contains, u.preds[i].Expr)
		case PredValue:
			n.Values = append(n.Values, u.preds[i].VP)
		}
	}
	// Cycle check: a parent walk longer than the node count loops.
	for i := range q.Nodes {
		steps := 0
		for j := i; j != -1; j = q.Nodes[j].Parent {
			if steps++; steps > len(q.Nodes) {
				return nil, fmt.Errorf("tpq: predicate set contains a cycle")
			}
		}
	}
	q.Dist = int(vars[dist].node)
	q.normalize()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}
