package ir

import (
	"slices"
	"sort"

	"flexpath/internal/xmltree"
)

// The full-text evaluator as it was before witness lists became
// sorted-list merges, kept as the differential oracle of the merge
// evaluator (TestEvalMatchesOracle, FuzzEvalMatchesOracle). It is the old
// code with its names prefixed by "oracle" where they would collide and
// its calls adapted to lookup's and termScore's current signatures: Or
// concatenates and re-sorts, SLCA and AndNot binary-search per witness,
// and the minimal filter copies. Do not optimise it.

// oracleEval is Eval's evaluation without the cache: the witness
// columns of e, minimal and normalised.
func (ix *Index) oracleEval(e Expr) ([]xmltree.NodeID, []float64) {
	w := ix.oracleEvalExpr(e)
	w = minimalFilter(ix.doc, w)
	oracleNormalize(w)
	nodes := make([]xmltree.NodeID, len(w))
	scores := make([]float64, len(w))
	for i, x := range w {
		nodes[i] = x.node
		scores[i] = x.score
	}
	return nodes, scores
}

func (ix *Index) oracleEvalExpr(e Expr) []witness {
	switch t := e.(type) {
	case Term:
		return ix.oracleEvalTerm(t.Word)
	case Phrase:
		return ix.oracleEvalPhrase(t.Words)
	case Near:
		return ix.oracleEvalNear(t.Words, t.Window)
	case And:
		var cur []witness
		for i, c := range t.Exprs {
			w := minimalFilter(ix.doc, ix.oracleEvalExpr(c))
			if i == 0 {
				cur = w
			} else {
				cur = ix.oracleSLCA(cur, w)
			}
			if len(cur) == 0 {
				return nil
			}
		}
		return cur
	case Or:
		var all []witness
		for _, c := range t.Exprs {
			all = append(all, ix.oracleEvalExpr(c)...)
		}
		sortWitnesses(all)
		return dedupMax(all)
	case AndNot:
		pos := minimalFilter(ix.doc, ix.oracleEvalExpr(t.Pos))
		neg := minimalFilter(ix.doc, ix.oracleEvalExpr(t.Neg))
		out := pos[:0:0]
		for _, p := range pos {
			if !anyWithin(ix.doc, neg, p.node) {
				out = append(out, p)
			}
		}
		return out
	default:
		return nil
	}
}

func (ix *Index) oracleEvalTerm(word string) []witness {
	posts, _, idf := ix.lookup(word)
	if len(posts) == 0 {
		return nil
	}
	var out []witness
	i := 0
	for i < len(posts) {
		n := posts[i].node
		tf := 0
		for i < len(posts) && posts[i].node == n {
			tf++
			i++
		}
		out = append(out, witness{node: n, score: ix.termScore(idf, ix.nodeLen(n), tf)})
	}
	return out // in node order: a term's postings are (Validate)
}

func (ix *Index) oracleEvalPhrase(words []string) []witness {
	if len(words) == 0 {
		return nil
	}
	posts := make([][]posting, len(words))
	idfSum := 0.0
	for i, w := range words {
		var idf float64
		posts[i], _, idf = ix.lookup(w)
		idfSum += idf
	}
	var out []witness
	for _, p := range posts[0] {
		ok := true
		for off := 1; off < len(words); off++ {
			if !hasPos(posts[off], p.pos+int32(off)) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, witness{node: p.node, score: idfSum})
		}
	}
	sortWitnesses(out)
	return dedupMax(out)
}

// oracleEvalNear keeps the old int32(window) conversion: it is only held
// to windows that fit (see TestNearOversizedWindow for the ones that
// did not).
func (ix *Index) oracleEvalNear(words []string, window int) []witness {
	if len(words) == 0 {
		return nil
	}
	posts := make([][]posting, len(words))
	idfSum := 0.0
	for i, w := range words {
		var idf float64
		posts[i], _, idf = ix.lookup(w)
		idfSum += idf
	}
	// Every token participating in a qualifying window yields a witness
	// at its owning element, so a context containing any participant
	// satisfies the expression.
	var out []witness
	for ai, anchor := range words {
		for _, p := range posts[ai] {
			ok := true
			for i, w := range words {
				if w == anchor {
					continue
				}
				if !hasPosInRange(posts[i], p.pos-int32(window), p.pos+int32(window)) {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, witness{node: p.node, score: idfSum})
			}
		}
	}
	sortWitnesses(out)
	return dedupMax(out)
}

func hasPos(posts []posting, pos int32) bool {
	i := sort.Search(len(posts), func(i int) bool { return posts[i].pos >= pos })
	return i < len(posts) && posts[i].pos == pos
}

func hasPosInRange(posts []posting, lo, hi int32) bool {
	i := sort.Search(len(posts), func(i int) bool { return posts[i].pos >= lo })
	return i < len(posts) && posts[i].pos <= hi
}

// oracleSLCA computes the smallest lowest common ancestors of one witness
// from each input (Xu & Papakonstantinou-style): for each witness of the
// smaller set, pair it with its nearest neighbors in the other set and
// take LCAs, then keep the minimal ones.
func (ix *Index) oracleSLCA(a, b []witness) []witness {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	small, large := a, b
	if len(b) < len(a) {
		small, large = b, a
	}
	var cands []witness
	for _, s := range small {
		i := sort.Search(len(large), func(i int) bool { return large[i].node >= s.node })
		if i < len(large) {
			l := large[i]
			cands = append(cands, witness{node: ix.oracleLCA(s.node, l.node), score: s.score + l.score})
		}
		if i > 0 {
			l := large[i-1]
			cands = append(cands, witness{node: ix.oracleLCA(s.node, l.node), score: s.score + l.score})
		}
	}
	sortWitnesses(cands)
	cands = dedupMax(cands)
	return minimalFilter(ix.doc, cands)
}

func (ix *Index) oracleLCA(a, b xmltree.NodeID) xmltree.NodeID {
	d := ix.doc
	for d.Level(a) > d.Level(b) {
		a = d.Parent(a)
	}
	for d.Level(b) > d.Level(a) {
		b = d.Parent(b)
	}
	for a != b {
		a = d.Parent(a)
		b = d.Parent(b)
	}
	return a
}

func sortWitnesses(w []witness) {
	sort.Slice(w, func(i, j int) bool { return w[i].node < w[j].node })
}

// dedupMax collapses duplicate nodes in a sorted witness list, keeping the
// maximum score.
func dedupMax(w []witness) []witness {
	if len(w) == 0 {
		return w
	}
	out := w[:1]
	for _, x := range w[1:] {
		if x.node == out[len(out)-1].node {
			if x.score > out[len(out)-1].score {
				out[len(out)-1].score = x.score
			}
		} else {
			out = append(out, x)
		}
	}
	return out
}

// minimalFilter keeps only witnesses with no other witness inside their
// subtree. In a list sorted by start position, a node's descendants are
// contiguous immediately after it, so it suffices to test the next entry.
func minimalFilter(doc *xmltree.Document, w []witness) []witness {
	if len(w) <= 1 {
		return w
	}
	out := w[:0:0]
	for i := range w {
		if i+1 < len(w) && w[i+1].node <= doc.End(w[i].node) {
			continue
		}
		out = append(out, w[i])
	}
	return out
}

func anyWithin(doc *xmltree.Document, w []witness, x xmltree.NodeID) bool {
	i := sort.Search(len(w), func(i int) bool { return w[i].node >= x })
	return i < len(w) && w[i].node <= doc.End(x)
}

func oracleNormalize(w []witness) {
	maxScore := 0.0
	for _, x := range w {
		if x.score > maxScore {
			maxScore = x.score
		}
	}
	if maxScore <= 0 {
		for i := range w {
			w[i].score = 1
		}
		return
	}
	for i := range w {
		w[i].score /= maxScore
	}
}

// nodeLen returns the number of tokens directly inside node n, by binary
// search of the length column (the merge evaluator walks it with a
// cursor instead).
func (ix *Index) nodeLen(n xmltree.NodeID) int32 {
	if i, ok := slices.BinarySearch(ix.nlNode, n); ok {
		return ix.nlLen[i]
	}
	return 0
}
