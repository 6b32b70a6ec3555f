// Package stats collects the document statistics FleXPath's ranking and
// selectivity estimation depend on: per-tag element counts #(t),
// parent-child pair counts #pc(t1,t2), ancestor-descendant pair counts
// #ad(t1,t2) (§4.3.1), and full-text match counts per context tag.
//
// It also implements the selectivity estimator the SSO algorithm requires
// (§5.1.2, §6): exact node and edge counts combined under a uniform
// element-distribution assumption, the same technique the paper describes
// building ("suppose 60% of A's have a B child; we assume this fraction is
// independent of A's location").
package stats

import (
	"math"
	"slices"
	"sort"

	"flexpath/internal/ir"
	"flexpath/internal/tpq"
	"flexpath/internal/xmltree"
)

// pairs is one tag-pair statistic in column form: v[i] is the count for
// the pair (a[i], b[i]), and the pairs are strictly increasing in (a, b).
// Pairs with a zero count are absent.
type pairs struct {
	a, b []xmltree.TagID
	v    []uint64
}

// get returns the count for (a, b) by binary search.
func (p *pairs) get(a, b xmltree.TagID) int {
	i := sort.Search(len(p.a), func(i int) bool {
		return p.a[i] > a || p.a[i] == a && p.b[i] >= b
	})
	if i < len(p.a) && p.a[i] == a && p.b[i] == b {
		return int(p.v[i])
	}
	return 0
}

// Stats holds document statistics. Collect once per document; safe for
// concurrent readers. Its only representation is the column layout an
// FXP3 stats section stores (see columnar.go), on the heap when Collect
// filled it and over the snapshot when DecodeColumnar sliced it.
type Stats struct {
	doc      *xmltree.Document
	tagCount []uint64
	pc, ad   pairs
	// pcParents / adAncestors count DISTINCT parents/ancestors: the
	// number of t1 elements with at least one t2 child / descendant.
	// These are the "fraction of A's that have a B" statistics the
	// paper's estimator is built on (§6, Selectivity estimation).
	pcParents, adAncestors pairs
}

// pairLists returns the four pair statistics in their stored order.
func (s *Stats) pairLists() [4]*pairs {
	return [4]*pairs{&s.pc, &s.ad, &s.pcParents, &s.adAncestors}
}

// Collect scans the document and gathers tag and edge statistics, one
// first tag t1 at a time: every t1 node scans its subtree once (O(n·depth)
// overall) and counts into four rows indexed by the second tag, with a
// stamp per tag so a node is counted as a distinct parent or ancestor at
// most once. The rows of one t1, in tag order, are its pairs, so the
// lists come out sorted.
func Collect(doc *xmltree.Document) *Stats {
	numTags := doc.NumTags()
	s := &Stats{doc: doc, tagCount: make([]uint64, numTags)}
	var rows [4][]uint64          // pc, ad, pcParents, adAncestors by second tag
	var stamp [2][]xmltree.NodeID // 1 + the last node counted as the tag's parent / ancestor
	for i := range rows {
		rows[i] = make([]uint64, numTags)
	}
	for i := range stamp {
		stamp[i] = make([]xmltree.NodeID, numTags)
	}
	var touched []xmltree.TagID // second tags with a non-zero ad row entry
	parents, lists := doc.Parents(), s.pairLists()
	for t1 := xmltree.TagID(0); int(t1) < numTags; t1++ {
		list := doc.NodesWithTagID(t1)
		s.tagCount[t1] = uint64(len(list))
		for _, n := range list {
			for m := n + 1; m <= doc.End(n); m++ {
				t2 := doc.Tag(m)
				if rows[1][t2] == 0 {
					touched = append(touched, t2)
				}
				rows[1][t2]++
				if stamp[1][t2] != n+1 {
					stamp[1][t2] = n + 1
					rows[3][t2]++
				}
				if parents[m] == n {
					rows[0][t2]++
					if stamp[0][t2] != n+1 {
						stamp[0][t2] = n + 1
						rows[2][t2]++
					}
				}
			}
		}
		// Every child is a descendant, so the ad row's non-zero entries
		// cover the other three rows'.
		slices.Sort(touched)
		for _, t2 := range touched {
			for i, p := range lists {
				if v := rows[i][t2]; v > 0 {
					p.a, p.b, p.v = append(p.a, t1), append(p.b, t2), append(p.v, v)
					rows[i][t2] = 0
				}
			}
		}
		touched = touched[:0]
	}
	return s
}

// Doc returns the measured document.
func (s *Stats) Doc() *xmltree.Document { return s.doc }

// Count returns #(t): the number of elements with the given tag.
func (s *Stats) Count(tag string) int {
	id := s.doc.TagByName(tag)
	if id == xmltree.InvalidTag {
		return 0
	}
	return int(s.tagCount[id])
}

// PC returns #pc(t1,t2): the number of parent-child pairs with those tags.
func (s *Stats) PC(t1, t2 string) int {
	a, b := s.doc.TagByName(t1), s.doc.TagByName(t2)
	if a == xmltree.InvalidTag || b == xmltree.InvalidTag {
		return 0
	}
	return s.pc.get(a, b)
}

// AD returns #ad(t1,t2): the number of ancestor-descendant pairs with
// those tags.
func (s *Stats) AD(t1, t2 string) int {
	a, b := s.doc.TagByName(t1), s.doc.TagByName(t2)
	if a == xmltree.InvalidTag || b == xmltree.InvalidTag {
		return 0
	}
	return s.ad.get(a, b)
}

// PCParents returns the number of t1 elements with at least one t2 child.
func (s *Stats) PCParents(t1, t2 string) int {
	a, b := s.doc.TagByName(t1), s.doc.TagByName(t2)
	if a == xmltree.InvalidTag || b == xmltree.InvalidTag {
		return 0
	}
	return s.pcParents.get(a, b)
}

// ADAncestors returns the number of t1 elements with at least one t2
// descendant.
func (s *Stats) ADAncestors(t1, t2 string) int {
	a, b := s.doc.TagByName(t1), s.doc.TagByName(t2)
	if a == xmltree.InvalidTag || b == xmltree.InvalidTag {
		return 0
	}
	return s.adAncestors.get(a, b)
}

// Estimator estimates tree-pattern result sizes. It needs the full-text
// index to account for contains-predicate selectivity.
type Estimator struct {
	stats *Stats
	index *ir.Index
}

// NewEstimator pairs statistics with a full-text index.
func NewEstimator(s *Stats, ix *ir.Index) *Estimator {
	return &Estimator{stats: s, index: ix}
}

// Estimate returns the estimated number of distinct matches of the query's
// distinguished node. It assumes element distribution is uniform and
// branch satisfactions are independent, multiplying per-edge fractions
// down the pattern. Estimates for paths that do not occur return 0.
//
// ft supplies the evaluated contains expressions, so a caller that holds
// them (a relaxation chain) does not evaluate them again; with a nil ft
// each one is evaluated against the estimator's index.
func (e *Estimator) Estimate(q *tpq.Query, ft func(ir.Expr) *ir.Result) float64 {
	if ft == nil {
		ft = e.index.Eval
	}
	root := q.Root()
	est := float64(e.stats.Count(q.Nodes[root].Tag)) * e.satisfaction(q, root, ft)
	if q.Dist != root {
		// Scale from root matches to distinguished-node matches by the
		// average fan-out along the root→distinguished path.
		est *= e.fanout(q, q.Dist)
	}
	return est
}

// satisfaction estimates the probability that a random element with node
// i's tag satisfies the subtree pattern rooted at i (excluding i's own
// existence).
func (e *Estimator) satisfaction(q *tpq.Query, i int, ft func(ir.Expr) *ir.Result) float64 {
	n := &q.Nodes[i]
	p := 1.0
	tagN := e.stats.Count(n.Tag)
	if tagN == 0 {
		return 0
	}
	for _, expr := range n.Contains {
		sat := float64(ft(expr).CountSatisfyingWithTag(n.Tag)) / float64(tagN)
		p *= sat
	}
	for _, c := range q.Children(i) {
		cn := &q.Nodes[c]
		var pairs, parents int
		if cn.Axis == tpq.Child {
			pairs = e.stats.PC(n.Tag, cn.Tag)
			parents = e.stats.PCParents(n.Tag, cn.Tag)
		} else {
			pairs = e.stats.AD(n.Tag, cn.Tag)
			parents = e.stats.ADAncestors(n.Tag, cn.Tag)
		}
		if parents == 0 {
			return 0
		}
		// P(some child with the right tag satisfies the sub-pattern) =
		// P(parent has such children) · P(at least one of the avg-many
		// children satisfies), assuming children satisfy independently.
		fracParents := float64(parents) / float64(tagN)
		if fracParents > 1 {
			fracParents = 1
		}
		avg := float64(pairs) / float64(parents)
		sat := e.satisfaction(q, c, ft)
		p *= fracParents * (1 - math.Pow(1-sat, avg))
	}
	return p
}

// fanout estimates how many matches of node i exist per match of the root,
// following the parent chain and multiplying average per-edge pair counts.
func (e *Estimator) fanout(q *tpq.Query, i int) float64 {
	f := 1.0
	for j := i; q.Nodes[j].Parent != -1; j = q.Nodes[j].Parent {
		parent := q.Nodes[j].Parent
		pt, ct := q.Nodes[parent].Tag, q.Nodes[j].Tag
		var pairs int
		if q.Nodes[j].Axis == tpq.Child {
			pairs = e.stats.PC(pt, ct)
		} else {
			pairs = e.stats.AD(pt, ct)
		}
		den := e.stats.Count(pt)
		if den == 0 {
			return 0
		}
		avg := float64(pairs) / float64(den)
		if avg < 1 {
			// At least one match exists when the pattern matches at all;
			// the fraction below 1 is already captured by satisfaction.
			avg = 1
		}
		f *= avg
	}
	return f
}
