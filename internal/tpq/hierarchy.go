package tpq

import "slices"

// Hierarchy is a type hierarchy over element tags (§3.4 of the paper):
// each tag may name one supertype, e.g. article -> publication. A query
// node constrained to a tag t matches elements whose tag is t or any
// (transitive) subtype of t.
//
// A hierarchy only widens tag matching: the chain and plans match a node
// against Subtypes of its tag. Tag relaxation (replacing a tag with its
// supertype) is not an operator here.
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
