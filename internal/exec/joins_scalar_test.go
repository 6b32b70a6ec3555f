package exec

import (
	"sort"

	"flexpath/internal/xmltree"
)

// This file retains the pre-columnar scalar join kernels, verbatim, as
// differential-test oracles for the block kernels in joins.go: every
// batched kernel must return byte-identical output to its scalar twin on
// any pair of sorted input lists. They process one node at a time through
// Document accessor calls and allocate per call — exactly the costs the
// block kernels remove — and are referenced only by tests and benchmarks.

// scalarSemiJoinHasDescendant is the retained scalar oracle for
// SemiJoinHasDescendant.
func scalarSemiJoinHasDescendant(doc *xmltree.Document, outer, inner []xmltree.NodeID) []xmltree.NodeID {
	if len(outer) == 0 || len(inner) == 0 {
		return nil
	}
	out := outer[:0:0]
	for _, a := range outer {
		i := sort.Search(len(inner), func(i int) bool { return inner[i] > a })
		if i < len(inner) && inner[i] <= doc.End(a) {
			out = append(out, a)
		}
	}
	return out
}

// scalarSemiJoinHasChild is the retained scalar oracle for
// SemiJoinHasChild.
func scalarSemiJoinHasChild(doc *xmltree.Document, outer, inner []xmltree.NodeID) []xmltree.NodeID {
	if len(outer) == 0 || len(inner) == 0 {
		return nil
	}
	// Collect the distinct parents of inner, then merge with outer.
	parents := make([]xmltree.NodeID, 0, len(inner))
	for _, d := range inner {
		if p := doc.Parent(d); p != xmltree.InvalidNode {
			parents = append(parents, p)
		}
	}
	sort.Slice(parents, func(i, j int) bool { return parents[i] < parents[j] })
	out := outer[:0:0]
	j := 0
	for _, a := range outer {
		for j < len(parents) && parents[j] < a {
			j++
		}
		if j < len(parents) && parents[j] == a {
			out = append(out, a)
		}
	}
	return out
}

// scalarSemiJoinDescendantOf is the retained scalar oracle for
// SemiJoinDescendantOf.
func scalarSemiJoinDescendantOf(doc *xmltree.Document, nodes, ancestors []xmltree.NodeID) []xmltree.NodeID {
	if len(nodes) == 0 || len(ancestors) == 0 {
		return nil
	}
	maxEnd := make([]xmltree.NodeID, len(ancestors))
	cur := xmltree.NodeID(-1)
	for i, a := range ancestors {
		if e := doc.End(a); e > cur {
			cur = e
		}
		maxEnd[i] = cur
	}
	out := nodes[:0:0]
	for _, n := range nodes {
		i := sort.Search(len(ancestors), func(i int) bool { return ancestors[i] >= n })
		if i > 0 && maxEnd[i-1] >= n {
			out = append(out, n)
		}
	}
	return out
}

// scalarSemiJoinChildOf is the retained scalar oracle for SemiJoinChildOf.
func scalarSemiJoinChildOf(doc *xmltree.Document, nodes, parents []xmltree.NodeID) []xmltree.NodeID {
	if len(nodes) == 0 || len(parents) == 0 {
		return nil
	}
	out := nodes[:0:0]
	for _, n := range nodes {
		p := doc.Parent(n)
		if p == xmltree.InvalidNode {
			continue
		}
		i := sort.Search(len(parents), func(i int) bool { return parents[i] >= p })
		if i < len(parents) && parents[i] == p {
			out = append(out, n)
		}
	}
	return out
}

// scalarDescendantsInRange is the retained scalar oracle for
// DescendantsInRange (linear upper-bound scan).
func scalarDescendantsInRange(doc *xmltree.Document, nodes []xmltree.NodeID, a xmltree.NodeID) []xmltree.NodeID {
	lo := sort.Search(len(nodes), func(i int) bool { return nodes[i] > a })
	end := doc.End(a)
	hi := lo
	for hi < len(nodes) && nodes[hi] <= end {
		hi++
	}
	return nodes[lo:hi]
}
