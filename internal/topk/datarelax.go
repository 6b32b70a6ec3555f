package topk

import (
	"fmt"
	"time"

	"flexpath/internal/core"
	"flexpath/internal/ir"
	"flexpath/internal/obs"
	"flexpath/internal/rank"
	"flexpath/internal/tpq"
	"flexpath/internal/xmltree"
)

// DataRelax implements the third evaluation strategy for approximate XML
// queries that the paper surveys (§7): data relaxation, as in APPROXML
// [Damiani et al., EDBT 2002]. Instead of rewriting the query (DPO) or
// encoding relaxations into the plan (SSO/Hybrid), the *document* is
// relaxed: the ancestor-descendant closure of the data — "shortcut edges
// between each pair of nodes in the same path" — is materialized, and the
// original query is evaluated over the closed graph, so every structural
// edge matches through any ancestor path. Answers are scored with the same
// penalty machinery as the other algorithms (full score when the original
// pc/ad relationship holds, penalty otherwise).
//
// The paper notes this strategy "was shown to quickly fail with large
// databases", and this implementation reproduces why: the closure is
// quadratic-ish in path depth and tag frequency. MaxPairs bounds the
// materialization; when exceeded, DataRelax fails, which is the observable
// behavior of the original system at scale.
func DataRelax(chain *core.Chain, opts Options, maxPairs int) ([]Result, error) {
	// The closure materialization and the evaluation over it are this
	// strategy's whole cost; charge both to the join stage.
	if opts.Span != nil {
		start := time.Now()
		defer func() { opts.Span.Rec(obs.StageJoin, time.Since(start)) }()
	}
	m := opts.metrics()
	q := chain.Original
	doc := chain.Doc()

	// Materialize the shortcut-edge closure restricted to the query's tag
	// pairs: for each query edge, every (ancestor, descendant) node pair
	// with the right tags.
	type edgeKey struct{ parent, child int } // node indexes in q
	pairs := make(map[edgeKey]map[xmltree.NodeID][]xmltree.NodeID)
	total := 0
	for i := 1; i < len(q.Nodes); i++ {
		if opts.cancelled() {
			return nil, opts.Ctx.Err()
		}
		key := edgeKey{q.Nodes[i].Parent, i}
		byAnc := make(map[xmltree.NodeID][]xmltree.NodeID)
		childTag := q.Nodes[i].Tag
		for _, d := range doc.NodesWithTag(childTag) {
			for a := doc.Parent(d); a != xmltree.InvalidNode; a = doc.Parent(a) {
				if doc.TagName(a) == q.Nodes[key.parent].Tag {
					byAnc[a] = append(byAnc[a], d)
					total++
					if total > maxPairs {
						return nil, fmt.Errorf(
							"topk: data relaxation exceeded the %d-pair budget materializing %s//%s",
							maxPairs, q.Nodes[key.parent].Tag, childTag)
					}
				}
			}
		}
		pairs[key] = byAnc
	}
	m.PairsMaterialized = total

	// Evaluate the original query over the closed graph: every edge is
	// satisfied by any materialized shortcut pair. Tuples are built in
	// query pre-order.
	contains := make([][]*ir.Result, len(q.Nodes))
	for i := range q.Nodes {
		for _, e := range q.Nodes[i].Contains {
			contains[i] = append(contains[i], chain.FullText(e))
		}
	}
	type pt struct {
		bind []xmltree.NodeID
		ss   float64
		ks   float64
	}
	pen := chain.PenaltyOfPC
	tuples := []pt{{bind: make([]xmltree.NodeID, len(q.Nodes)), ss: chain.Base}}
	for i := range q.Nodes {
		if opts.cancelled() {
			return nil, opts.Ctx.Err()
		}
		var next []pt
		for _, t := range tuples {
			var cands []xmltree.NodeID
			if i == 0 {
				cands = doc.NodesWithTag(q.Nodes[0].Tag)
			} else {
				cands = pairs[edgeKey{q.Nodes[i].Parent, i}][t.bind[q.Nodes[i].Parent]]
			}
		candidate:
			for _, n := range cands {
				for _, c := range contains[i] {
					if !c.Satisfies(n) {
						continue candidate
					}
				}
				nt := pt{bind: append(append([]xmltree.NodeID(nil), t.bind[:i]...), n), ss: t.ss, ks: t.ks}
				for len(nt.bind) < len(q.Nodes) {
					nt.bind = append(nt.bind, xmltree.InvalidNode)
				}
				// Penalize shortcut matches that break the original pc
				// constraint.
				if i > 0 && q.Nodes[i].Axis == tpq.Child &&
					doc.Parent(n) != nt.bind[q.Nodes[i].Parent] {
					nt.ss -= pen(q.Nodes[q.Nodes[i].Parent].ID, q.Nodes[i].ID)
				}
				for _, c := range contains[i] {
					nt.ks += c.ScoreWithin(n)
				}
				next = append(next, nt)
			}
		}
		tuples = next
		m.Pipeline.TuplesGenerated += len(next)
		if len(tuples) == 0 {
			return nil, nil
		}
	}

	best := make(map[xmltree.NodeID]Result, len(tuples))
	for _, t := range tuples {
		n := t.bind[q.Dist]
		sc := rank.Score{SS: t.ss, KS: t.ks}
		if prev, ok := best[n]; !ok || sc.Compare(prev.Score, opts.Scheme) > 0 {
			best[n] = Result{Node: n, Score: sc}
		}
	}
	results := make([]Result, 0, len(best))
	for _, r := range best {
		results = append(results, r)
	}
	sortResults(results, opts.Scheme)
	if opts.K > 0 && len(results) > opts.K {
		results = results[:opts.K]
	}
	return results, nil
}
