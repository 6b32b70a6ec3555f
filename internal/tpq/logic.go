package tpq

import (
	"sort"
	"strconv"
	"strings"

	"flexpath/internal/ir"
)

// PredKind identifies the kind of a logical predicate.
type PredKind int8

// Predicate kinds. PC and AD are the structural predicates; Tag, Contains
// and Value are value-based.
const (
	PredPC PredKind = iota
	PredAD
	PredTag
	PredContains
	PredValue
)

// Pred is one predicate of a query's logical form (§2.1, Figure 2). X and
// Y refer to variables by their stable IDs, so predicates remain
// meaningful across relaxations of the same original query.
type Pred struct {
	Kind PredKind
	X    int // subject variable
	Y    int // object variable, for PC/AD
	Tag  string
	Expr ir.Expr
	VP   ValuePred
}

// Key returns a canonical identity string for the predicate.
func (p Pred) Key() string {
	switch p.Kind {
	case PredPC:
		return "pc($" + strconv.Itoa(p.X) + ",$" + strconv.Itoa(p.Y) + ")"
	case PredAD:
		return "ad($" + strconv.Itoa(p.X) + ",$" + strconv.Itoa(p.Y) + ")"
	case PredTag:
		return "tag($" + strconv.Itoa(p.X) + ")=" + p.Tag
	case PredContains:
		return containsKey(p.X, p.Expr.Canon())
	default:
		return "value($" + strconv.Itoa(p.X) + "," + p.VP.String() + ")"
	}
}

// containsKey is the key of contains($x, e) for e's canonical form.
func containsKey(x int, canon string) string {
	return "contains($" + strconv.Itoa(x) + "," + canon + ")"
}

// String implements fmt.Stringer.
func (p Pred) String() string { return p.Key() }

// PredSet is a set of predicates keyed by canonical identity.
type PredSet struct {
	m map[string]Pred
}

// NewPredSet returns an empty predicate set.
func NewPredSet() *PredSet { return &PredSet{m: make(map[string]Pred)} }

// Add inserts p; it reports whether p was new.
func (s *PredSet) Add(p Pred) bool {
	k := p.Key()
	if _, ok := s.m[k]; ok {
		return false
	}
	s.m[k] = p
	return true
}

// Has reports whether p is in the set.
func (s *PredSet) Has(p Pred) bool {
	_, ok := s.m[p.Key()]
	return ok
}

// HasKey reports whether a predicate with the given key is in the set.
func (s *PredSet) HasKey(key string) bool {
	_, ok := s.m[key]
	return ok
}

// Remove deletes p from the set.
func (s *PredSet) Remove(p Pred) { delete(s.m, p.Key()) }

// Len returns the number of predicates.
func (s *PredSet) Len() int { return len(s.m) }

// Clone returns a copy of the set.
func (s *PredSet) Clone() *PredSet {
	out := NewPredSet()
	for k, v := range s.m {
		out.m[k] = v
	}
	return out
}

// List returns the predicates sorted by canonical key, for deterministic
// iteration.
func (s *PredSet) List() []Pred {
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Pred, len(keys))
	for i, k := range keys {
		out[i] = s.m[k]
	}
	return out
}

// preds returns the predicates in no particular order.
func (s *PredSet) preds() []Pred {
	out := make([]Pred, 0, len(s.m))
	for _, p := range s.m {
		out = append(out, p)
	}
	return out
}

// Equal reports whether two sets contain the same predicates.
func (s *PredSet) Equal(o *PredSet) bool {
	if len(s.m) != len(o.m) {
		return false
	}
	for k := range s.m {
		if _, ok := o.m[k]; !ok {
			return false
		}
	}
	return true
}

// Minus returns s with the given predicates removed (the C - S of
// Definition 1).
func (s *PredSet) Minus(drop ...Pred) *PredSet {
	out := s.Clone()
	for _, p := range drop {
		out.Remove(p)
	}
	return out
}

// String implements fmt.Stringer.
func (s *PredSet) String() string {
	preds := s.List()
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.Key()
	}
	return strings.Join(parts, " ^ ")
}

// Logical returns the logical form of a query: its structural predicates
// (one pc or ad predicate per tree edge) conjoined with its tag, value and
// contains predicates (Figure 2 of the paper).
func Logical(q *Query) *PredSet {
	s := NewPredSet()
	for i := range q.Nodes {
		n := &q.Nodes[i]
		s.Add(Pred{Kind: PredTag, X: n.ID, Tag: n.Tag})
		for _, e := range n.Contains {
			s.Add(Pred{Kind: PredContains, X: n.ID, Expr: e})
		}
		for _, v := range n.Values {
			s.Add(Pred{Kind: PredValue, X: n.ID, VP: v})
		}
		if n.Parent != -1 {
			kind := PredPC
			if n.Axis == Descendant {
				kind = PredAD
			}
			s.Add(Pred{Kind: kind, X: q.Nodes[n.Parent].ID, Y: n.ID})
		}
	}
	return s
}

// Closure saturates a predicate set under the paper's inference rules
// (Figure 3):
//
//	pc(x,y)                       |- ad(x,y)
//	ad(x,y), ad(y,z)              |- ad(x,z)
//	ad(x,y), contains(y, FTExp)   |- contains(x, FTExp)
//
// The input set is not modified. This and the functions below are
// PredSet-level conveniences over the Universe kernel, which indexes the
// closure once and works on bitsets; code that visits many sets of one
// query (the relaxation chain) uses the Universe directly.
func Closure(s *PredSet) *PredSet {
	u := newUniverse(s.preds())
	return u.PredSetOf(u.All())
}

// ClosureOf returns the closure of a query's logical form.
func ClosureOf(q *Query) *PredSet {
	u := NewUniverse(q)
	return u.PredSetOf(u.All())
}

// Derivable reports whether p can be derived from s \ {p} using the
// inference rules; such a predicate is redundant (§3.2).
func Derivable(s *PredSet, p Pred) bool {
	u := newUniverse(s.preds())
	i := u.Index(p)
	return i >= 0 && u.Derivable(u.Logical(), i, u.NewBits())
}

// Core returns the unique minimal predicate set equivalent to s (§3.2,
// Theorem 1): the closure of s with every redundant predicate removed.
// Removal proceeds in canonical key order; Theorem 1 guarantees the result
// is order-independent (the property tests verify this empirically).
func Core(s *PredSet) *PredSet { return coreOfAll(newUniverse(s.preds())) }

// CoreOf returns the core of a query's closure.
func CoreOf(q *Query) *PredSet { return coreOfAll(NewUniverse(q)) }

func coreOfAll(u *Universe) *PredSet {
	b := u.All()
	u.Core(b, u.NewBits())
	return u.PredSetOf(b)
}

// TreeFromPreds reconstructs a tree pattern query from a minimal predicate
// set (typically a Core result). distID is the stable ID of the
// distinguished variable. It fails when the predicates do not form a tree
// pattern: a variable without a tag, a variable with several incoming
// structural edges, multiple roots, or a missing distinguished variable
// (these are exactly the conditions under which dropping predicates does
// not yield a valid structural relaxation, §3.3).
func TreeFromPreds(s *PredSet, distID int) (*Query, error) {
	u := newUniverse(s.preds())
	return u.Tree(u.Logical(), distID)
}
