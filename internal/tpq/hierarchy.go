package tpq

import "slices"

// Hierarchy is a type hierarchy over element tags (§3.4 of the paper):
// each tag may name one supertype, e.g. article -> publication. A query
// node constrained to a tag t matches elements whose tag is t or any
// (transitive) subtype of t.
//
// Hierarchies enable the tag-relaxation extension: replacing a node's tag
// with its supertype is a relaxation, because the supertype matches a
// superset of elements.
type Hierarchy struct {
	super map[string]string
	subs  map[string][]string
}

// NewHierarchy builds a hierarchy from tag -> supertype pairs. Cycles are
// rejected by Validate; construction itself accepts any map. Each tag's
// direct subtypes are kept sorted, so Subtypes does not depend on the
// map's iteration order.
func NewHierarchy(super map[string]string) *Hierarchy {
	h := &Hierarchy{
		super: make(map[string]string, len(super)),
		subs:  make(map[string][]string),
	}
	for t, s := range super {
		h.super[t] = s
		h.subs[s] = append(h.subs[s], t)
	}
	for _, subs := range h.subs {
		slices.Sort(subs)
	}
	return h
}

// Validate reports whether the hierarchy is acyclic.
func (h *Hierarchy) Validate() error {
	for t := range h.super {
		seen := map[string]bool{t: true}
		for s, ok := h.super[t]; ok; s, ok = h.super[s] {
			if seen[s] {
				return &cycleError{tag: t}
			}
			seen[s] = true
		}
	}
	return nil
}

type cycleError struct{ tag string }

func (e *cycleError) Error() string {
	return "tpq: type hierarchy has a cycle through " + e.tag
}

// Supertype returns the immediate supertype of t, if any.
func (h *Hierarchy) Supertype(t string) (string, bool) {
	if h == nil {
		return "", false
	}
	s, ok := h.super[t]
	return s, ok
}

// IsSubtypeOf reports whether a is b or a (transitive) subtype of b. A
// nil hierarchy means plain tag equality.
func (h *Hierarchy) IsSubtypeOf(a, b string) bool {
	if a == b {
		return true
	}
	if h == nil {
		return false
	}
	for s, ok := h.super[a]; ok; s, ok = h.super[s] {
		if s == b {
			return true
		}
	}
	return false
}

// Subtypes returns t plus all transitive subtypes of t, the tags an
// element may carry to satisfy the constraint "tag = t".
func (h *Hierarchy) Subtypes(t string) []string {
	out := []string{t}
	if h == nil {
		return out
	}
	for i := 0; i < len(out); i++ {
		out = append(out, h.subs[out[i]]...)
	}
	return out
}

// ContainedInWith is ContainedIn generalized to a type hierarchy: a
// homomorphism may map a query node with tag t onto a node whose tag is a
// subtype of t (the subtype query asks for less-general elements, so the
// subtype-constrained query is contained in the supertype-constrained
// one). Passing a nil hierarchy reduces to ContainedIn.
func ContainedInWith(q, qPrime *Query, h *Hierarchy) bool {
	cl := ClosureOf(q)
	cand := make([]map[int]bool, len(qPrime.Nodes))

	localOK := func(pi, qi int) bool {
		pn := &qPrime.Nodes[pi]
		qn := &q.Nodes[qi]
		if !h.IsSubtypeOf(qn.Tag, pn.Tag) {
			return false
		}
		if pi == qPrime.Dist && qi != q.Dist {
			return false
		}
		for _, e := range pn.Contains {
			if !cl.HasKey((Pred{Kind: PredContains, X: qn.ID, Expr: e}).Key()) {
				return false
			}
		}
		for _, v := range pn.Values {
			if !cl.HasKey((Pred{Kind: PredValue, X: qn.ID, VP: v}).Key()) {
				return false
			}
		}
		return true
	}

	edgeOK := func(axis Axis, parentQI, childQI int) bool {
		px, cy := q.Nodes[parentQI].ID, q.Nodes[childQI].ID
		if axis == Child {
			return cl.HasKey((Pred{Kind: PredPC, X: px, Y: cy}).Key())
		}
		return cl.HasKey((Pred{Kind: PredAD, X: px, Y: cy}).Key())
	}

	for pi := len(qPrime.Nodes) - 1; pi >= 0; pi-- {
		cand[pi] = map[int]bool{}
		children := qPrime.Children(pi)
		for qi := range q.Nodes {
			if !localOK(pi, qi) {
				continue
			}
			ok := true
			for _, c := range children {
				found := false
				for qc := range cand[c] {
					if edgeOK(qPrime.Nodes[c].Axis, qi, qc) {
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
			if ok {
				cand[pi][qi] = true
			}
		}
	}
	return len(cand[0]) > 0
}
