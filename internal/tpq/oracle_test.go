package tpq

// The map-based closure / derivability / core / tree reconstruction this
// package shipped before the Universe kernel: §3.2 of the paper executed
// literally over string-keyed predicate maps. Slow and obviously right;
// kernel_test.go holds the kernel to it.

import (
	"fmt"
	"sort"

	"flexpath/internal/ir"
)

// oracleClosure saturates a predicate set under the paper's inference rules
// (Figure 3):
//
//	pc(x,y)                       |- ad(x,y)
//	ad(x,y), ad(y,z)              |- ad(x,z)
//	ad(x,y), contains(y, FTExp)   |- contains(x, FTExp)
//
// The input set is not modified.
func oracleClosure(s *PredSet) *PredSet {
	out := s.Clone()
	for {
		changed := false
		preds := out.List()
		// Rule 1: pc |- ad.
		for _, p := range preds {
			if p.Kind == PredPC {
				if out.Add(Pred{Kind: PredAD, X: p.X, Y: p.Y}) {
					changed = true
				}
			}
		}
		preds = out.List()
		// Rule 2: ad transitivity.
		for _, p := range preds {
			if p.Kind != PredAD {
				continue
			}
			for _, r := range preds {
				if r.Kind == PredAD && r.X == p.Y {
					if out.Add(Pred{Kind: PredAD, X: p.X, Y: r.Y}) {
						changed = true
					}
				}
			}
		}
		preds = out.List()
		// Rule 3: contains propagates to ancestors.
		for _, p := range preds {
			if p.Kind != PredAD {
				continue
			}
			for _, r := range preds {
				if r.Kind == PredContains && r.X == p.Y {
					if out.Add(Pred{Kind: PredContains, X: p.X, Expr: r.Expr}) {
						changed = true
					}
				}
			}
		}
		if !changed {
			return out
		}
	}
}

// oracleClosureOf returns the closure of a query's logical form.
func oracleClosureOf(q *Query) *PredSet { return oracleClosure(Logical(q)) }

// oracleDerivable reports whether p can be derived from s \ {p} using the
// inference rules; such a predicate is redundant (§3.2).
func oracleDerivable(s *PredSet, p Pred) bool {
	rest := s.Minus(p)
	return oracleClosure(rest).Has(p)
}

// oracleCore returns the unique minimal predicate set equivalent to s (§3.2,
// Theorem 1): the closure of s with every redundant predicate removed.
// Removal proceeds in canonical key order; Theorem 1 guarantees the result
// is order-independent (the property tests verify this empirically).
func oracleCore(s *PredSet) *PredSet {
	cur := oracleClosure(s)
	for {
		removed := false
		for _, p := range cur.List() {
			if p.Kind != PredPC && p.Kind != PredAD && p.Kind != PredContains {
				continue // tag and value predicates are never derivable
			}
			if oracleDerivable(cur, p) {
				cur.Remove(p)
				removed = true
			}
		}
		if !removed {
			return cur
		}
	}
}

// oracleTreeFromPreds reconstructs a tree pattern query from a minimal predicate
// set (typically a Core result). distID is the stable ID of the
// distinguished variable. It fails when the predicates do not form a tree
// pattern: a variable without a tag, a variable with several incoming
// structural edges, multiple roots, or a missing distinguished variable
// (these are exactly the conditions under which dropping predicates does
// not yield a valid structural relaxation, §3.3).
func oracleTreeFromPreds(s *PredSet, distID int) (*Query, error) {
	type varInfo struct {
		tag      string
		contains []ir.Expr
		values   []ValuePred
		parent   int // variable ID, -1 unknown
		axis     Axis
		incoming int
	}
	vars := map[int]*varInfo{}
	get := func(id int) *varInfo {
		if v, ok := vars[id]; ok {
			return v
		}
		v := &varInfo{parent: -1}
		vars[id] = v
		return v
	}
	for _, p := range s.List() {
		switch p.Kind {
		case PredTag:
			get(p.X).tag = p.Tag
		case PredContains:
			v := get(p.X)
			v.contains = append(v.contains, p.Expr)
		case PredValue:
			v := get(p.X)
			v.values = append(v.values, p.VP)
		case PredPC, PredAD:
			get(p.X)
			v := get(p.Y)
			v.incoming++
			v.parent = p.X
			if p.Kind == PredPC {
				v.axis = Child
			} else {
				v.axis = Descendant
			}
		}
	}
	// pc(x,y) and ad(x,y) together count as one edge: pc dominates.
	for id, v := range vars {
		if v.incoming == 2 &&
			s.HasKey(Pred{Kind: PredPC, X: v.parent, Y: id}.Key()) &&
			s.HasKey(Pred{Kind: PredAD, X: v.parent, Y: id}.Key()) {
			v.incoming = 1
			v.axis = Child
		}
	}
	roots := 0
	for id, v := range vars {
		if v.tag == "" {
			return nil, fmt.Errorf("tpq: variable $%d has no tag predicate", id)
		}
		switch v.incoming {
		case 0:
			roots++
		case 1:
		default:
			return nil, fmt.Errorf("tpq: variable $%d has %d incoming structural edges", id, v.incoming)
		}
	}
	if roots != 1 {
		return nil, fmt.Errorf("tpq: predicate set has %d roots, want 1", roots)
	}
	if _, ok := vars[distID]; !ok {
		return nil, fmt.Errorf("tpq: distinguished variable $%d not present", distID)
	}
	// Assemble in ID order; normalize fixes pre-order. Detect cycles while
	// resolving parents.
	ids := make([]int, 0, len(vars))
	for id := range vars {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	idxOf := make(map[int]int, len(ids))
	q := &Query{}
	for _, id := range ids {
		idxOf[id] = len(q.Nodes)
		q.Nodes = append(q.Nodes, Node{ID: id})
	}
	for _, id := range ids {
		v := vars[id]
		n := &q.Nodes[idxOf[id]]
		n.Tag = v.tag
		n.Contains = v.contains
		n.Values = v.values
		n.Axis = v.axis
		if v.parent == -1 {
			n.Parent = -1
		} else {
			n.Parent = idxOf[v.parent]
		}
	}
	// Cycle check: walk up from each node.
	for i := range q.Nodes {
		seen := map[int]bool{}
		for j := i; j != -1; j = q.Nodes[j].Parent {
			if seen[j] {
				return nil, fmt.Errorf("tpq: predicate set contains a cycle")
			}
			seen[j] = true
		}
	}
	q.Dist = idxOf[distID]
	q.normalize()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}
