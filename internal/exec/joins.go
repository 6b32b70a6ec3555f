// Package exec is FleXPath's query execution engine: a scored left-deep
// join pipeline (Run over a Plan) that evaluates a query with relaxations
// encoded as optional predicates (§5.2 of the paper). It is the only
// evaluator any search runs: SSO and Hybrid run one encoded plan, DPO one
// exact plan per relaxation level. Each plan variable's leaf makes §5.1's
// choice between starting from the inverted index and starting from the
// tag list (evaluateLeaf).
//
// The package also keeps the structural semijoin primitives of Al-Khalifa
// et al. (ICDE 2002) over sorted node lists and the two-pass exact
// evaluator built on them (Evaluator), which no search runs: it is the
// oracle tests hold plans and answers to.
//
// The semijoin kernels are columnar and block-at-a-time: they index the
// document's End/Parent columns directly (no per-node accessor calls) and
// advance a shared cursor over the inner list by galloping —
// exponential probe followed by binary search inside the probed window.
// Galloping makes each semijoin a near-linear merge when the two lists
// are comparably sized, while degrading gracefully to O(n log m) when one
// list is much shorter. The pre-refactor scalar kernels are retained
// (test-only, in joins_scalar_test.go) as differential-test oracles.
package exec

import (
	"slices"
	"sync"

	"flexpath/internal/xmltree"
)

// joinBlock is the number of outer-list elements a kernel processes per
// block. Blocks keep the working set of one iteration small and give the
// kernels a natural point to notice an exhausted inner cursor and stop.
const joinBlock = 512

// joinScratch is the working memory of the HasChild and HasDescendant
// semijoins: the parent column HasChild sorts and the list both collect
// before copying it out at its final size. It is pooled, so a kernel
// allocates only the list it returns.
type joinScratch struct {
	parents, dst []xmltree.NodeID
}

// joinKeep bounds, in IDs, each buffer a pooled joinScratch keeps (1 MiB),
// so that an idle one does not pin an outsized join's peak.
const joinKeep = 1 << 20 / 4

var joinPool = sync.Pool{New: func() any { return new(joinScratch) }}

func getJoinScratch() *joinScratch { return joinPool.Get().(*joinScratch) }

func putJoinScratch(js *joinScratch) {
	if cap(js.parents) > joinKeep {
		js.parents = nil
	}
	if cap(js.dst) > joinKeep {
		js.dst = nil
	}
	joinPool.Put(js)
}

// exactCopy returns xs at its length in a new slice, or nil when it is
// empty, so a returned list never aliases scratch.
func exactCopy(xs []xmltree.NodeID) []xmltree.NodeID {
	if len(xs) == 0 {
		return nil
	}
	out := make([]xmltree.NodeID, len(xs))
	copy(out, xs)
	return out
}

// SemiJoinHasDescendant keeps the nodes of outer whose subtree contains
// at least one node of inner. Both lists must be sorted in document
// order; the result is sorted.
func SemiJoinHasDescendant(doc *xmltree.Document, outer, inner []xmltree.NodeID) []xmltree.NodeID {
	js := getJoinScratch()
	dst := exactCopy(js.hasDescendant(doc, outer, inner))
	putJoinScratch(js)
	return dst
}

// hasDescendant is SemiJoinHasDescendant into js.dst, which it returns.
func (js *joinScratch) hasDescendant(doc *xmltree.Document, outer, inner []xmltree.NodeID) []xmltree.NodeID {
	dst := js.dst[:0]
	if len(outer) > 0 && len(inner) > 0 {
		ends := doc.Ends()
		j := 0
	blocks:
		for lo := 0; lo < len(outer); lo += joinBlock {
			hi := min(lo+joinBlock, len(outer))
			for _, x := range outer[lo:hi] {
				// First inner node after x in document order; x matches
				// iff that node still lies inside x's subtree. The probe
				// target is monotone in x, so the cursor only moves
				// forward.
				j = xmltree.GallopGE(inner, j, x+1)
				if j >= len(inner) {
					break blocks
				}
				if inner[j] <= ends[x] {
					dst = append(dst, x)
				}
			}
		}
	}
	js.dst = dst[:0]
	return dst
}

// SemiJoinHasChild keeps the nodes of outer that have at least one child
// in inner. Both lists must be sorted; the result is sorted. The distinct
// parents of inner are collected, sorted with a typed sort, and
// deduplicated on the fly during a single galloped merge against outer.
func SemiJoinHasChild(doc *xmltree.Document, outer, inner []xmltree.NodeID) []xmltree.NodeID {
	js := getJoinScratch()
	dst := exactCopy(js.hasChild(doc, outer, inner))
	putJoinScratch(js)
	return dst
}

// hasChild is SemiJoinHasChild into js.dst, which it returns.
func (js *joinScratch) hasChild(doc *xmltree.Document, outer, inner []xmltree.NodeID) []xmltree.NodeID {
	dst := js.dst[:0]
	if len(outer) > 0 && len(inner) > 0 {
		parentCol := doc.Parents()
		parents := js.parents[:0]
		for _, d := range inner {
			if p := parentCol[d]; p != xmltree.InvalidNode {
				parents = append(parents, p)
			}
		}
		js.parents = parents[:0]
		slices.Sort(parents)
		j := 0
	blocks:
		for lo := 0; lo < len(outer); lo += joinBlock {
			hi := min(lo+joinBlock, len(outer))
			for _, x := range outer[lo:hi] {
				// Galloping to the first parent >= x skips duplicate
				// parent runs in one jump: the merge pass is also the
				// dedup pass.
				j = xmltree.GallopGE(parents, j, x)
				if j >= len(parents) {
					break blocks
				}
				if parents[j] == x {
					dst = append(dst, x)
				}
			}
		}
	}
	js.dst = dst[:0]
	return dst
}

// SemiJoinDescendantOf keeps the nodes that are proper descendants of at
// least one node in ancestors. Both lists must be sorted; the result is
// sorted. The ancestor cursor advances by galloping over a running-max
// interval-end prefix.
func SemiJoinDescendantOf(doc *xmltree.Document, nodes, ancestors []xmltree.NodeID) []xmltree.NodeID {
	var dst []xmltree.NodeID
	if len(nodes) == 0 || len(ancestors) == 0 {
		return dst
	}
	ends := doc.Ends()
	// maxEnd[i] = max interval end among ancestors[0..i]; a node n has a
	// containing ancestor iff some a < n has end(a) >= n, i.e. the max end
	// among ancestors strictly before n reaches n.
	maxEnd := make([]xmltree.NodeID, len(ancestors))
	cur := xmltree.NodeID(-1)
	for i, an := range ancestors {
		if e := ends[an]; e > cur {
			cur = e
		}
		maxEnd[i] = cur
	}
	j := 0
	for lo := 0; lo < len(nodes); lo += joinBlock {
		hi := min(lo+joinBlock, len(nodes))
		for _, n := range nodes[lo:hi] {
			j = xmltree.GallopGE(ancestors, j, n)
			if j > 0 && maxEnd[j-1] >= n {
				dst = append(dst, n)
			}
		}
	}
	return dst
}

// SemiJoinChildOf keeps the nodes whose parent is in parents. Both lists
// must be sorted; the result is sorted. A node's parent is not monotone
// in document order, so instead of a forward-only cursor the kernel
// exploits local coherence: consecutive nodes are usually siblings, so it
// first re-tests the previous hit, then gallops from the last position in
// whichever direction the new parent lies.
func SemiJoinChildOf(doc *xmltree.Document, nodes, parents []xmltree.NodeID) []xmltree.NodeID {
	var dst []xmltree.NodeID
	if len(nodes) == 0 || len(parents) == 0 {
		return dst
	}
	parentCol := doc.Parents()
	j := 0
	for lo := 0; lo < len(nodes); lo += joinBlock {
		hi := min(lo+joinBlock, len(nodes))
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
				j = xmltree.GallopGE(parents, j, p)
			} else {
				// Parent lies at or before the cursor — including the case
				// where the cursor ran off the end on an earlier, larger
				// parent (the input is NOT parent-monotone): gallop
				// backwards for the window, then settle with the same
				// forward search.
				k := min(j, len(parents)-1)
				back := 1
				for k-back >= 0 && parents[k-back] >= p {
					k -= back
					back <<= 1
				}
				j = xmltree.GallopGE(parents, max(k-back, 0), p)
			}
			if j < len(parents) && parents[j] == p {
				dst = append(dst, n)
			}
		}
	}
	return dst
}

// descendantsFrom returns the bounds of the sub-slice of the sorted list
// nodes that lies strictly inside a's subtree, (a, end(a)], searching
// from index from, which must not lie past its start. Both bounds are
// found by galloping binary search, so cost is logarithmic in the list
// size (the scalar version scanned linearly for the upper bound).
func descendantsFrom(doc *xmltree.Document, nodes []xmltree.NodeID, a xmltree.NodeID, from int) (lo, hi int) {
	lo = xmltree.GallopGE(nodes, from, a+1)
	return lo, xmltree.GallopGE(nodes, lo, doc.End(a)+1)
}
