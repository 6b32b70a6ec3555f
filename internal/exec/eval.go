package exec

import (
	"strconv"
	"strings"

	"flexpath/internal/ir"
	"flexpath/internal/tpq"
	"flexpath/internal/xmltree"
)

// Evaluator evaluates exact tree pattern queries against one document with
// the classical two-pass semijoin algorithm. No search runs it: every
// algorithm evaluates through Run over a plan. It is the oracle tests hold
// plans and top-K answers to.
type Evaluator struct {
	doc *xmltree.Document
	ix  *ir.Index
}

// NewEvaluator builds an exact evaluator over a document and its full-text
// index.
func NewEvaluator(doc *xmltree.Document, ix *ir.Index) *Evaluator {
	return &Evaluator{doc: doc, ix: ix}
}

// candidates returns the document nodes that satisfy query node i's local
// predicates: tag, value-based predicates, and contains predicates. The
// result is in document order and must not be modified unless it was
// filtered (in which case it is a fresh slice).
func (ev *Evaluator) candidates(q *tpq.Query, i int) []xmltree.NodeID {
	n := &q.Nodes[i]
	base := ev.doc.NodesWithTag(n.Tag)
	if len(n.Values) == 0 && len(n.Contains) == 0 {
		return base
	}
	// As in evaluateLeaf: one forward semijoin per contains predicate,
	// then the value filter, all but the first in place.
	out := base
	buf := make([]xmltree.NodeID, 0, len(base))
	for _, e := range n.Contains {
		out = ev.ix.Eval(e).SemiJoinInto(buf, out)
	}
	return filterValues(ev.doc, buf, out, n.Values)
}

// Evaluate returns the exact answers of q: the matches of the
// distinguished node, in document order.
func (ev *Evaluator) Evaluate(q *tpq.Query) []xmltree.NodeID {
	ok := ev.EvaluateFull(q)
	if ok == nil {
		return nil
	}
	return ok[q.Dist]
}

// EvaluateFull evaluates q and returns, for every query node, the data
// nodes that participate in at least one full match (answers are the
// distinguished node's list). It returns nil when the query has no match.
// It runs the classical two-pass semijoin evaluation: a bottom-up pass
// computing, for each query node, the data nodes whose subtree matches
// the sub-pattern, then a top-down pass keeping only nodes reachable from
// a match of the parent.
func (ev *Evaluator) EvaluateFull(q *tpq.Query) [][]xmltree.NodeID {
	n := len(q.Nodes)
	down := make([][]xmltree.NodeID, n)
	children := make([][]int, n)
	for i := 1; i < n; i++ {
		p := q.Nodes[i].Parent
		children[p] = append(children[p], i)
	}
	for i := n - 1; i >= 0; i-- {
		cur := ev.candidates(q, i)
		for _, c := range children[i] {
			if q.Nodes[c].Axis == tpq.Child {
				cur = SemiJoinHasChild(ev.doc, cur, down[c])
			} else {
				cur = SemiJoinHasDescendant(ev.doc, cur, down[c])
			}
			if len(cur) == 0 {
				return nil
			}
		}
		down[i] = cur
	}
	ok := make([][]xmltree.NodeID, n)
	ok[0] = down[0]
	for i := 1; i < n; i++ {
		p := q.Nodes[i].Parent
		if q.Nodes[i].Axis == tpq.Child {
			ok[i] = SemiJoinChildOf(ev.doc, down[i], ok[p])
		} else {
			ok[i] = SemiJoinDescendantOf(ev.doc, down[i], ok[p])
		}
		if len(ok[i]) == 0 {
			return nil
		}
	}
	return ok
}

// EvalValuePred evaluates a value-based predicate against a node's
// attribute, or against its own text content when the predicate names no
// attribute ($i.content, e.g. ./quantity < 3). The comparison is numeric
// when both sides parse as numbers, lexicographic otherwise. A missing
// attribute or empty content fails every comparison.
func EvalValuePred(doc *xmltree.Document, n xmltree.NodeID, v tpq.ValuePred) bool {
	var got string
	if v.Attr == "" {
		got = strings.TrimSpace(doc.Text(n))
		if got == "" {
			return false
		}
	} else {
		var ok bool
		got, ok = doc.Attr(n, v.Attr)
		if !ok {
			return false
		}
	}
	var cmp int
	if a, errA := strconv.ParseFloat(got, 64); errA == nil {
		if b, errB := strconv.ParseFloat(v.Value, 64); errB == nil {
			switch {
			case a < b:
				cmp = -1
			case a > b:
				cmp = 1
			}
			return applyCmp(cmp, v.Op)
		}
	}
	switch {
	case got < v.Value:
		cmp = -1
	case got > v.Value:
		cmp = 1
	}
	return applyCmp(cmp, v.Op)
}

func applyCmp(cmp int, op tpq.CmpOp) bool {
	switch op {
	case tpq.OpEq:
		return cmp == 0
	case tpq.OpNe:
		return cmp != 0
	case tpq.OpLt:
		return cmp < 0
	case tpq.OpLe:
		return cmp <= 0
	case tpq.OpGt:
		return cmp > 0
	default:
		return cmp >= 0
	}
}
