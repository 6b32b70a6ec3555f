// Package exec is FleXPath's query execution engine. It provides the
// structural (semi)join primitives of Al-Khalifa et al. (ICDE 2002) over
// sorted node lists, an exact tree-pattern evaluator used by the DPO
// algorithm and by the test oracles, and a scored left-deep join pipeline
// that evaluates a query with relaxations encoded as optional predicates —
// the machinery behind the SSO and Hybrid algorithms (§5.2 of the paper).
//
// The semijoin kernels are columnar and block-at-a-time: they index the
// document's End/Parent columns directly (no per-node accessor calls),
// write into caller-supplied output buffers (typically carved from an
// Arena), and advance a shared cursor over the inner list by galloping —
// exponential probe followed by binary search inside the probed window.
// Galloping makes each semijoin a near-linear merge when the two lists
// are comparably sized, while degrading gracefully to O(n log m) when one
// list is much shorter. The pre-refactor scalar kernels are retained
// (test-only, in joins_scalar_test.go) as differential-test oracles.
package exec

import (
	"slices"

	"flexpath/internal/xmltree"
)

// joinBlock is the number of outer-list elements a kernel processes per
// block. Blocks keep the working set of one iteration small and give the
// kernels a natural point to notice an exhausted inner cursor and stop.
const joinBlock = 512

// gallopGT returns the smallest index i in [from, len(xs)) with
// xs[i] > v, galloping: probe exponentially from `from`, then binary
// search the probed window. Cost is O(log d) where d is the distance
// advanced, so a sequence of monotone calls over xs is near-linear.
func gallopGT(xs []xmltree.NodeID, from int, v xmltree.NodeID) int {
	if from >= len(xs) || xs[from] > v {
		return from
	}
	// Invariant: xs[i] <= v; window (i, i+step] may contain the answer.
	i, step := from, 1
	for i+step < len(xs) && xs[i+step] <= v {
		i += step
		step <<= 1
	}
	lo, hi := i+1, i+step
	if hi > len(xs) {
		hi = len(xs)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallopGE is gallopGT for the first index with xs[i] >= v.
func gallopGE(xs []xmltree.NodeID, from int, v xmltree.NodeID) int {
	if from >= len(xs) || xs[from] >= v {
		return from
	}
	i, step := from, 1
	for i+step < len(xs) && xs[i+step] < v {
		i += step
		step <<= 1
	}
	lo, hi := i+1, i+step
	if hi > len(xs) {
		hi = len(xs)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SemiJoinHasDescendant keeps the nodes of outer whose subtree contains
// at least one node of inner. Both lists must be sorted in document
// order; the result is sorted. Allocating wrapper over the Into kernel.
func SemiJoinHasDescendant(doc *xmltree.Document, outer, inner []xmltree.NodeID) []xmltree.NodeID {
	return SemiJoinHasDescendantInto(nil, nil, doc, outer, inner)
}

// SemiJoinHasDescendantInto is the block kernel behind
// SemiJoinHasDescendant: it appends the result to dst[:0] and returns it.
// dst is typically carved from a (the arena is otherwise unused here);
// both may be nil.
func SemiJoinHasDescendantInto(a *Arena, dst []xmltree.NodeID, doc *xmltree.Document, outer, inner []xmltree.NodeID) []xmltree.NodeID {
	dst = dst[:0]
	if len(outer) == 0 || len(inner) == 0 {
		return dst
	}
	ends := doc.Ends()
	j := 0
	for lo := 0; lo < len(outer); lo += joinBlock {
		hi := lo + joinBlock
		if hi > len(outer) {
			hi = len(outer)
		}
		for _, x := range outer[lo:hi] {
			// First inner node after x in document order; x matches iff
			// that node still lies inside x's subtree. The probe target is
			// monotone in x, so the cursor only moves forward.
			j = gallopGT(inner, j, x)
			if j >= len(inner) {
				return dst
			}
			if inner[j] <= ends[x] {
				dst = append(dst, x)
			}
		}
	}
	return dst
}

// SemiJoinHasChild keeps the nodes of outer that have at least one child
// in inner. Both lists must be sorted; the result is sorted. Allocating
// wrapper over the Into kernel.
func SemiJoinHasChild(doc *xmltree.Document, outer, inner []xmltree.NodeID) []xmltree.NodeID {
	return SemiJoinHasChildInto(nil, nil, doc, outer, inner)
}

// SemiJoinHasChildInto is the block kernel behind SemiJoinHasChild. The
// distinct parents of inner are collected into arena scratch, sorted with
// a typed sort, and deduplicated on the fly during a single galloped
// merge against outer — no per-call allocation when an arena is supplied.
func SemiJoinHasChildInto(a *Arena, dst []xmltree.NodeID, doc *xmltree.Document, outer, inner []xmltree.NodeID) []xmltree.NodeID {
	dst = dst[:0]
	if len(outer) == 0 || len(inner) == 0 {
		return dst
	}
	parentCol := doc.Parents()
	parents := a.Nodes(len(inner))
	for _, d := range inner {
		if p := parentCol[d]; p != xmltree.InvalidNode {
			parents = append(parents, p)
		}
	}
	slices.Sort(parents)
	j := 0
	for lo := 0; lo < len(outer); lo += joinBlock {
		hi := lo + joinBlock
		if hi > len(outer) {
			hi = len(outer)
		}
		for _, x := range outer[lo:hi] {
			// Galloping to the first parent >= x skips duplicate parent
			// runs in one jump: the merge pass is also the dedup pass.
			j = gallopGE(parents, j, x)
			if j >= len(parents) {
				return dst
			}
			if parents[j] == x {
				dst = append(dst, x)
			}
		}
	}
	return dst
}

// SemiJoinDescendantOf keeps the nodes that are proper descendants of at
// least one node in ancestors. Both lists must be sorted; the result is
// sorted. Allocating wrapper over the Into kernel.
func SemiJoinDescendantOf(doc *xmltree.Document, nodes, ancestors []xmltree.NodeID) []xmltree.NodeID {
	return SemiJoinDescendantOfInto(nil, nil, doc, nodes, ancestors)
}

// SemiJoinDescendantOfInto is the block kernel behind
// SemiJoinDescendantOf. The running-max interval-end prefix lives in
// arena scratch; the ancestor cursor advances by galloping.
func SemiJoinDescendantOfInto(a *Arena, dst []xmltree.NodeID, doc *xmltree.Document, nodes, ancestors []xmltree.NodeID) []xmltree.NodeID {
	dst = dst[:0]
	if len(nodes) == 0 || len(ancestors) == 0 {
		return dst
	}
	ends := doc.Ends()
	// maxEnd[i] = max interval end among ancestors[0..i]; a node n has a
	// containing ancestor iff some a < n has end(a) >= n, i.e. the max end
	// among ancestors strictly before n reaches n.
	maxEnd := a.nodesN(len(ancestors))
	cur := xmltree.NodeID(-1)
	for i, an := range ancestors {
		if e := ends[an]; e > cur {
			cur = e
		}
		maxEnd[i] = cur
	}
	j := 0
	for lo := 0; lo < len(nodes); lo += joinBlock {
		hi := lo + joinBlock
		if hi > len(nodes) {
			hi = len(nodes)
		}
		for _, n := range nodes[lo:hi] {
			j = gallopGE(ancestors, j, n)
			if j > 0 && maxEnd[j-1] >= n {
				dst = append(dst, n)
			}
		}
	}
	return dst
}

// SemiJoinChildOf keeps the nodes whose parent is in parents. Both lists
// must be sorted; the result is sorted. Allocating wrapper over the Into
// kernel.
func SemiJoinChildOf(doc *xmltree.Document, nodes, parents []xmltree.NodeID) []xmltree.NodeID {
	return SemiJoinChildOfInto(nil, nil, doc, nodes, parents)
}

// SemiJoinChildOfInto is the block kernel behind SemiJoinChildOf. A
// node's parent is not monotone in document order, so instead of a
// forward-only cursor the kernel exploits local coherence: consecutive
// nodes are usually siblings, so it first re-tests the previous hit, then
// gallops from the last position in whichever direction the new parent
// lies.
func SemiJoinChildOfInto(a *Arena, dst []xmltree.NodeID, doc *xmltree.Document, nodes, parents []xmltree.NodeID) []xmltree.NodeID {
	dst = dst[:0]
	if len(nodes) == 0 || len(parents) == 0 {
		return dst
	}
	parentCol := doc.Parents()
	j := 0
	for lo := 0; lo < len(nodes); lo += joinBlock {
		hi := lo + joinBlock
		if hi > len(nodes) {
			hi = len(nodes)
		}
		for _, n := range nodes[lo:hi] {
			p := parentCol[n]
			if p == xmltree.InvalidNode {
				continue
			}
			// Sibling fast path: the previous node's parent position is
			// very often this node's too.
			if j < len(parents) && parents[j] == p {
				dst = append(dst, n)
				continue
			}
			if j < len(parents) && parents[j] < p {
				j = gallopGE(parents, j, p)
			} else {
				// Parent lies at or before the cursor — including the case
				// where the cursor ran off the end on an earlier, larger
				// parent (the input is NOT parent-monotone): gallop
				// backwards for the window, then settle with the same
				// forward search.
				k := j
				if k > len(parents)-1 {
					k = len(parents) - 1
				}
				back := 1
				for k-back >= 0 && parents[k-back] >= p {
					k -= back
					back <<= 1
				}
				from := k - back
				if from < 0 {
					from = 0
				}
				j = gallopGE(parents, from, p)
			}
			if j < len(parents) && parents[j] == p {
				dst = append(dst, n)
			}
		}
	}
	return dst
}

// DescendantsInRange returns the sub-slice of the sorted list nodes that
// lies strictly inside a's subtree: (a, end(a)]. Both bounds are found by
// galloping binary search, so cost is logarithmic in the list size (the
// scalar version scanned linearly for the upper bound).
func DescendantsInRange(doc *xmltree.Document, nodes []xmltree.NodeID, a xmltree.NodeID) []xmltree.NodeID {
	lo := gallopGT(nodes, 0, a)
	hi := gallopGT(nodes, lo, doc.End(a))
	return nodes[lo:hi]
}
