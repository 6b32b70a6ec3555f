package exec

import (
	"slices"
	"sync"

	"flexpath/internal/tpq"
	"flexpath/internal/xmltree"
)

// walkScratch is a reusable visited-marking buffer for ancestor walks.
// Epoch counters avoid clearing the array between uses; the pool makes
// concurrent evaluations safe.
type walkScratch struct {
	epoch []int32
	cur   int32
}

var walkPool = sync.Pool{New: func() interface{} { return &walkScratch{} }}

func acquireScratch(n int) *walkScratch {
	s := walkPool.Get().(*walkScratch)
	if len(s.epoch) < n {
		s.epoch = make([]int32, n)
		s.cur = 0
	}
	s.cur++
	if s.cur == 0 { // wrapped: clear and restart
		for i := range s.epoch {
			s.epoch[i] = 0
		}
		s.cur = 1
	}
	return s
}

// EvaluateIRFirst evaluates an exact tree pattern query starting from the
// full-text index rather than from tag lists: for every query node with a
// contains predicate, its candidate list is built by walking up from the
// predicate's witnesses (the inverted-index postings) instead of scanning
// and filtering all nodes with the node's tag.
//
// This is the alternative §5.1 of the paper mentions and leaves open:
// "first use an inverted index to evaluate the contains predicates and
// filter out potential answers, and then match structural predicates. The
// efficiency of each approach depends on the types of queries." Both
// strategies compute identical answers (tested); BenchmarkIRFirst
// measures the crossover: IR-first wins when keywords are selective,
// structure-first wins when they are common.
func (ev *Evaluator) EvaluateIRFirst(q *tpq.Query) []xmltree.NodeID {
	ok := ev.evaluateFullWith(q, nil, (*Evaluator).irFirstCandidates)
	if ok == nil {
		return nil
	}
	return ok[q.Dist]
}

// irFirstCandidates builds node i's candidate list from contains-predicate
// witnesses when possible, falling back to the tag-scan path (which
// carves its scratch from the arena, when one is supplied) otherwise.
func (ev *Evaluator) irFirstCandidates(q *tpq.Query, i int, a *Arena) []xmltree.NodeID {
	n := &q.Nodes[i]
	if len(n.Contains) == 0 {
		return ev.candidatesArena(q, i, a)
	}
	// Anchor on the most selective contains predicate (fewest witnesses).
	best := ev.ix.Eval(n.Contains[0])
	for _, e := range n.Contains[1:] {
		if r := ev.ix.Eval(e); r.Len() < best.Len() {
			best = r
		}
	}
	// Contexts = distinct ancestors-or-self of witnesses carrying the
	// node's tag. Deduplicate with a seen-set; walking stops at an
	// already-seen ancestor because its chain is complete.
	wantTags := map[xmltree.TagID]bool{}
	if ev.h == nil {
		if id := ev.doc.TagByName(n.Tag); id != xmltree.InvalidTag {
			wantTags[id] = true
		}
	} else {
		for _, t := range ev.h.Subtypes(n.Tag) {
			if id := ev.doc.TagByName(t); id != xmltree.InvalidTag {
				wantTags[id] = true
			}
		}
	}
	if len(wantTags) == 0 {
		return nil
	}
	scratch := acquireScratch(ev.doc.Len())
	var out []xmltree.NodeID
	for wi := 0; wi < best.Len(); wi++ {
		for a := best.Node(wi); a != xmltree.InvalidNode; a = ev.doc.Parent(a) {
			if scratch.epoch[a] == scratch.cur {
				break
			}
			scratch.epoch[a] = scratch.cur
			if wantTags[ev.doc.Tag(a)] {
				out = append(out, a)
			}
		}
	}
	walkPool.Put(scratch)
	slices.Sort(out)
	// Remaining local predicates still apply: other contains predicates
	// and value-based predicates, each narrowing out in place.
	for _, e := range n.Contains {
		out = ev.ix.Eval(e).SemiJoinInto(out, out)
	}
	return filterValues(ev.doc, out, out, n.Values)
}

// evaluateFullWith is EvaluateFull parameterized by the candidate source
// and the scratch arena (nil for plain allocation). Every semijoin writes
// into a buffer carved from the arena, so one pass allocates nothing
// beyond the down/ok spines once the arena's chunk is warm.
func (ev *Evaluator) evaluateFullWith(q *tpq.Query, a *Arena, cands func(*Evaluator, *tpq.Query, int, *Arena) []xmltree.NodeID) [][]xmltree.NodeID {
	n := len(q.Nodes)
	down := make([][]xmltree.NodeID, n)
	children := make([][]int, n)
	for i := 1; i < n; i++ {
		p := q.Nodes[i].Parent
		children[p] = append(children[p], i)
	}
	for i := n - 1; i >= 0; i-- {
		cur := cands(ev, q, i, a)
		for _, c := range children[i] {
			if q.Nodes[c].Axis == tpq.Child {
				cur = SemiJoinHasChildInto(a, a.Nodes(len(cur)), ev.doc, cur, down[c])
			} else {
				cur = SemiJoinHasDescendantInto(a, a.Nodes(len(cur)), ev.doc, cur, down[c])
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
			ok[i] = SemiJoinChildOfInto(a, a.Nodes(len(down[i])), ev.doc, down[i], ok[p])
		} else {
			ok[i] = SemiJoinDescendantOfInto(a, a.Nodes(len(down[i])), ev.doc, down[i], ok[p])
		}
		if len(ok[i]) == 0 {
			return nil
		}
	}
	return ok
}
