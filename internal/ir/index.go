package ir

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"flexpath/internal/fxp3"
	"flexpath/internal/xmltree"
)

// posting records one token occurrence: the element that directly owns the
// text and the token's global position (ordinal over all index terms in
// document order, used for phrase and proximity matching).
type posting struct {
	node xmltree.NodeID
	pos  int32
}

// Scoring selects the term-weighting function for witness scores. All
// scoring functions produce the same match (witness) sets; only scores —
// and thus keyword-score rankings — differ. The FleXPath paper treats the
// IR scoring function as a black box ("Numerous algorithms have been
// proposed in the IR community"), so both classical choices are offered.
type Scoring int8

const (
	// ScoringTFIDF weights a witness by idf(t)·(1+log tf), the default.
	ScoringTFIDF Scoring = iota
	// ScoringBM25 weights a witness by the Okapi BM25 formula with
	// k1=1.2, b=0.75, using the element's own token count as document
	// length.
	ScoringBM25
)

// IndexOptions configures index construction.
type IndexOptions struct {
	Scoring Scoring
}

// Index is an element-level inverted index over a document. It is built
// once, never changes and is safe for concurrent readers. It keeps no
// evaluated expressions: a query's relaxation chain evaluates each of its
// expressions once and holds the results for as long as its plans live.
//
// Its only representation is the column layout an FXP3 index section
// stores (see columnar.go): a sorted term dictionary looked up by binary
// search, one flat posting array, and the text nodes' token counts as a
// sorted column pair. The columns are heap slices when NewIndex built
// them and views over the snapshot when DecodeColumnar did.
type Index struct {
	doc *xmltree.Document
	// Text node nlNode[i] (ascending) holds nlLen[i] tokens.
	nlNode []xmltree.NodeID
	nlLen  []int32
	// Term i, in ascending order, is termBlob[termOff[i]:termOff[i+1]];
	// it occurs in df[i] nodes and its postings, in position order, are
	// posts[postOff[i]:postOff[i+1]].
	termOff  []uint64
	termBlob []byte
	df       []int32
	postOff  []uint64
	posts    []posting

	avgLen    float64
	textNodes int
	scoring   Scoring
}

// NewIndex tokenizes the direct text of every element and builds the
// inverted index with default (tf-idf) scoring.
func NewIndex(doc *xmltree.Document) *Index {
	return NewIndexOptions(doc, IndexOptions{})
}

// NewIndexOptions is NewIndex with explicit options.
func NewIndexOptions(doc *xmltree.Document, opt IndexOptions) *Index {
	ix := &Index{doc: doc, scoring: opt.Scoring}
	// One pass over the text assigns term ids in first-seen order and
	// records the id of every token; the posting array is then scattered
	// from that column, so the postings exist once.
	ids := make(map[string]int32)
	var terms []string
	var counts []uint64
	var tokens []int32
	var toks []string
	for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
		text := doc.Text(n)
		if text == "" {
			continue
		}
		toks = appendTokens(toks[:0], text)
		ix.nlNode = append(ix.nlNode, n)
		ix.nlLen = append(ix.nlLen, int32(len(toks)))
		for _, tok := range toks {
			id, ok := ids[tok]
			if !ok {
				id = int32(len(terms))
				ids[tok] = id
				terms = append(terms, tok)
				counts = append(counts, 0)
			}
			counts[id]++
			tokens = append(tokens, id)
		}
	}
	ix.textNodes = len(ix.nlNode)
	if ix.textNodes > 0 {
		ix.avgLen = float64(len(tokens)) / float64(ix.textNodes)
	}

	order := make([]int32, len(terms))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(terms[a], terms[b]) })
	slot := make([]int32, len(terms)) // term id -> dictionary position
	next := make([]uint64, len(terms))
	ix.termOff = make([]uint64, 1, len(terms)+1)
	ix.postOff = make([]uint64, 1, len(terms)+1)
	for i, id := range order {
		slot[id] = int32(i)
		next[id] = ix.postOff[i]
		ix.termBlob = append(ix.termBlob, terms[id]...)
		ix.termOff = append(ix.termOff, uint64(len(ix.termBlob)))
		ix.postOff = append(ix.postOff, ix.postOff[i]+counts[id])
	}
	ix.df = make([]int32, len(terms))
	ix.posts = make([]posting, len(tokens))
	pos := 0
	for i, n := range ix.nlNode {
		for end := pos + int(ix.nlLen[i]); pos < end; pos++ {
			id := tokens[pos]
			at := next[id]
			if at == ix.postOff[slot[id]] || ix.posts[at-1].node != n {
				ix.df[slot[id]]++
			}
			ix.posts[at] = posting{node: n, pos: int32(pos)}
			next[id]++
		}
	}
	return ix
}

// term returns the dictionary position of word, or -1 when the document
// does not contain it.
func (ix *Index) term(word string) int {
	i, ok := sort.Find(len(ix.df), func(i int) int { return strings.Compare(word, ix.termAt(i)) })
	if !ok {
		return -1
	}
	return i
}

// termAt returns the i-th dictionary term as a view of the term blob.
func (ix *Index) termAt(i int) string {
	s, _ := fxp3.String(ix.termBlob, ix.termOff[i], ix.termOff[i+1]-ix.termOff[i])
	return s
}

// lookup returns word's occurrences in position order, the number of
// distinct nodes they fall in and its inverse document frequency, from
// one search of the dictionary.
func (ix *Index) lookup(word string) (posts []posting, df int, idf float64) {
	if i := ix.term(word); i >= 0 {
		posts, df = ix.posts[ix.postOff[i]:ix.postOff[i+1]], int(ix.df[i])
	}
	return posts, df, math.Log(1 + float64(ix.textNodes)/float64(1+df))
}

// termScore weights tf occurrences of a term with the given idf in a node
// of nodeLen tokens under the configured scoring function.
func (ix *Index) termScore(idf float64, nodeLen int32, tf int) float64 {
	if ix.scoring == ScoringBM25 {
		const k1, b = 1.2, 0.75
		norm := 1 - b + b*float64(nodeLen)/math.Max(ix.avgLen, 1)
		return idf * (float64(tf) * (k1 + 1)) / (float64(tf) + k1*norm)
	}
	return idf * (1 + math.Log(float64(tf)))
}

// Doc returns the indexed document.
func (ix *Index) Doc() *xmltree.Document { return ix.doc }

// IsBM25 reports whether the index uses BM25 term weighting.
func (ix *Index) IsBM25() bool { return ix.scoring == ScoringBM25 }

// Result is the outcome of evaluating a full-text expression: the most
// specific elements satisfying it (in document order) with scores
// normalized to [0, 1]. A context node satisfies the expression iff its
// subtree contains at least one witness.
type Result struct {
	doc    *xmltree.Document
	nodes  []xmltree.NodeID
	scores []float64

	mu     sync.Mutex
	within map[string][]xmltree.NodeID // memo of Within
}

// Len returns the number of witness elements.
func (r *Result) Len() int { return len(r.nodes) }

// Node returns the i-th witness in document order.
func (r *Result) Node(i int) xmltree.NodeID { return r.nodes[i] }

// Score returns the normalized score of the i-th witness.
func (r *Result) Score(i int) float64 { return r.scores[i] }

// firstWithin returns the index of the first witness >= x, for interval
// queries against the sorted witness list.
func (r *Result) firstWithin(x xmltree.NodeID) int {
	i, _ := slices.BinarySearch(r.nodes, x)
	return i
}

// Satisfies reports whether context node x satisfies the expression, i.e.
// whether x's subtree contains a witness. Callers with many context nodes
// in document order use SemiJoinInto instead.
func (r *Result) Satisfies(x xmltree.NodeID) bool {
	i := r.firstWithin(x)
	return i < len(r.nodes) && r.nodes[i] <= r.doc.End(x)
}

// ScoreWithin returns the keyword score of context node x: the maximum
// witness score within x's subtree, or 0 if x does not satisfy the
// expression.
func (r *Result) ScoreWithin(x xmltree.NodeID) float64 {
	end := r.doc.End(x)
	best := 0.0
	for i := r.firstWithin(x); i < len(r.nodes) && r.nodes[i] <= end; i++ {
		if r.scores[i] > best {
			best = r.scores[i]
		}
	}
	return best
}

// cursor is the self-or-descendant semijoin of context nodes, presented
// in document order, against a witness column: satisfies(x) reports
// whether x's subtree holds one of nodes. The witness position only
// gallops forward, so a pass costs a merge, not a search per node.
type cursor struct {
	nodes, ends []xmltree.NodeID
	at          int
}

func (c *cursor) satisfies(x xmltree.NodeID) bool {
	c.at = xmltree.GallopGE(c.nodes, c.at, x)
	return c.at < len(c.nodes) && c.nodes[c.at] <= c.ends[x]
}

// SemiJoinInto appends to dst[:0] the nodes of xs, which must be sorted
// in document order, whose subtree contains a witness, and returns it. dst
// may share xs's storage, so a list can be filtered in place.
func (r *Result) SemiJoinInto(dst, xs []xmltree.NodeID) []xmltree.NodeID {
	dst = dst[:0]
	c := cursor{nodes: r.nodes, ends: r.doc.Ends()}
	for _, x := range xs {
		if c.satisfies(x) {
			dst = append(dst, x)
		} else if c.at == len(c.nodes) { // no later node can be satisfied
			break
		}
	}
	return dst
}

// Eval evaluates a full-text expression, returning its witness set. Every
// call evaluates: the operators build into pooled scratch, and only the
// returned Result, sized to its witnesses, is allocated.
func (ix *Index) Eval(e Expr) *Result {
	s := getScratch()
	w := ix.eval(s, e)
	w.minimal(ix.doc.Ends())
	normalize(w.scores)
	r := &Result{doc: ix.doc, nodes: exact(w.nodes), scores: exact(w.scores)}
	s.put(w)
	putScratch(s)
	return r
}

// CountSatisfyingWithTag counts the elements with the given tag whose
// subtree contains a witness: #contains(tag, E) of the penalty formulas.
// It is len(Within(tag)), so the penalties, the estimator and the plan
// leaves share one list.
func (r *Result) CountSatisfyingWithTag(tag string) int {
	return len(r.Within(tag))
}

// walkFactor is Within's direction rule: walking up from the witnesses
// beats scanning the tag list when the tag list is more than walkFactor
// times longer than the witness list (it over-approximates the depth of
// a typical document, i.e. the length of one ancestor walk).
const walkFactor = 16

// Within returns the elements with the given tag whose subtree contains a
// witness, in document order: the #contains(tag, E) list. It is computed
// once per tag — the denominator of one closure predicate's penalty is
// the numerator of its parent's, the estimator asks again, and a plan
// leaf starts from it — and held at exactly its length. The returned
// slice is shared and must not be modified.
//
// This is §5.1's choice between evaluating the contains predicate first
// and matching structure first, made in one place: when the witnesses are
// few against the tag list it walks up from each witness, otherwise it
// gallops the tag list against the witnesses.
func (r *Result) Within(tag string) []xmltree.NodeID {
	r.mu.Lock()
	out, ok := r.within[tag]
	r.mu.Unlock()
	if ok {
		return out
	}
	t := r.doc.TagByName(tag)
	out = r.within1(t, len(r.nodes)*walkFactor < len(r.doc.NodesWithTagID(t)))
	r.mu.Lock()
	if prev, ok := r.within[tag]; ok {
		out = prev
	} else {
		if r.within == nil {
			r.within = make(map[string][]xmltree.NodeID)
		}
		r.within[tag] = out
	}
	r.mu.Unlock()
	return out
}

// within1 computes Within for tag t, walking up from the witnesses when
// walk is set and galloping the tag list otherwise. The list is collected
// in pooled scratch and returned as an exactly sized copy.
func (r *Result) within1(t xmltree.TagID, walk bool) []xmltree.NodeID {
	if t == xmltree.InvalidTag || len(r.nodes) == 0 {
		return nil
	}
	s := getScratch()
	out := s.ids[:0]
	if walk {
		// Witnesses are minimal, so an ancestor of witness w that is not
		// after the previous witness prev is also an ancestor of prev and
		// was collected by an earlier walk. Each walk therefore stops at
		// prev (or above the root: InvalidNode is -1), visits every element
		// once, and collects a descending run of ids after every earlier
		// run: reversed, the runs concatenate in document order.
		parents, prev := r.doc.Parents(), xmltree.InvalidNode
		for _, w := range r.nodes {
			run := len(out)
			for a := w; a > prev; a = parents[a] {
				if r.doc.Tag(a) == t {
					out = append(out, a)
				}
			}
			slices.Reverse(out[run:])
			prev = w
		}
	} else {
		c := cursor{nodes: r.nodes, ends: r.doc.Ends()}
		for _, n := range r.doc.NodesWithTagID(t) {
			if c.satisfies(n) {
				out = append(out, n)
			} else if c.at == len(c.nodes) { // no later node can be satisfied
				break
			}
		}
	}
	list := exact(out)
	s.ids = out[:0]
	putScratch(s)
	return list
}

// witnesses is a witness list during evaluation, as two columns: nodes in
// strictly increasing document order (sorted, no duplicates) and their
// unnormalized scores. Every operator returns one, so operators combine
// their operands by merging and galloping and never re-sort them.
type witnesses struct {
	nodes  []xmltree.NodeID
	scores []float64
}

func makeWitnesses(capacity int) witnesses {
	return witnesses{nodes: make([]xmltree.NodeID, 0, capacity), scores: make([]float64, 0, capacity)}
}

// fits reports whether n witnesses can be added without growing a column.
func (w witnesses) fits(n int) bool { return min(cap(w.nodes), cap(w.scores)) >= n }

// exact returns a copy of xs at its length, or nil when it is empty, so a
// kept list never aliases scratch.
func exact[T any](xs []T) []T {
	if len(xs) == 0 {
		return nil
	}
	out := make([]T, len(xs))
	copy(out, xs)
	return out
}

// scratch is the working memory of one evaluation: the witness columns
// the operators build into and hand back once consumed, the SLCA
// candidates, and Within's node list. Nothing built in it is ever
// returned: Eval and Within copy their answers out at their final size.
type scratch struct {
	free  []witnesses
	cands []witness
	ids   []xmltree.NodeID
}

// scratchFree bounds the columns a scratch keeps between evaluations, and
// scratchKeep the witnesses in one of them (3 MB), so that a pooled idle
// scratch does not pin an outsized evaluation's peak.
const (
	scratchFree = 8
	scratchKeep = 1 << 18
)

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(s *scratch) {
	if cap(s.cands) > scratchKeep {
		s.cands = nil
	}
	if cap(s.ids) > scratchKeep {
		s.ids = nil
	}
	scratchPool.Put(s)
}

// get returns empty columns with room for n witnesses: the smallest kept
// pair that fits, or a new one.
func (s *scratch) get(n int) witnesses {
	best := -1
	for i, w := range s.free {
		if w.fits(n) && (best < 0 || cap(w.nodes) < cap(s.free[best].nodes)) {
			best = i
		}
	}
	if best < 0 {
		return makeWitnesses(n)
	}
	w := s.free[best]
	s.free[best] = s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return witnesses{nodes: w.nodes[:0], scores: w.scores[:0]}
}

// put hands w's columns back for reuse; the caller must not read w again.
func (s *scratch) put(w witnesses) {
	if cap(w.nodes) == 0 || cap(w.nodes) > scratchKeep || len(s.free) == scratchFree {
		return
	}
	s.free = append(s.free, w)
}

func (w *witnesses) add(n xmltree.NodeID, score float64) {
	w.nodes = append(w.nodes, n)
	w.scores = append(w.scores, score)
}

// minimal keeps, in place, only witnesses with no other witness inside
// their subtree. A node's descendants follow it contiguously in document
// order, so it suffices to test the next entry.
func (w *witnesses) minimal(ends []xmltree.NodeID) {
	k := 0
	for i, n := range w.nodes {
		if i+1 < len(w.nodes) && w.nodes[i+1] <= ends[n] {
			continue
		}
		w.nodes[k], w.scores[k] = n, w.scores[i]
		k++
	}
	w.nodes, w.scores = w.nodes[:k], w.scores[:k]
}

// witness is one unnormalized (node, score) pair, for the SLCA
// candidates that have to be sorted.
type witness struct {
	node  xmltree.NodeID
	score float64
}

// eval evaluates e into columns of s, which the caller consumes and puts
// back.
func (ix *Index) eval(s *scratch, e Expr) witnesses {
	switch t := e.(type) {
	case Term:
		return ix.evalTerm(s, t.Word)
	case Phrase:
		return ix.evalPhrase(s, t.Words)
	case Near:
		return ix.evalNear(s, t.Words, t.Window)
	case And:
		var cur witnesses
		for i, c := range t.Exprs {
			w := ix.eval(s, c)
			w.minimal(ix.doc.Ends())
			if i == 0 {
				cur = w
			} else {
				cur = ix.slca(s, cur, w)
			}
			if len(cur.nodes) == 0 {
				s.put(cur)
				return witnesses{}
			}
		}
		return cur
	case Or:
		var operands [4]witnesses
		lists := operands[:0]
		for _, c := range t.Exprs {
			lists = append(lists, ix.eval(s, c))
		}
		return s.mergeMax(lists)
	case AndNot:
		pos := ix.eval(s, t.Pos)
		if len(pos.nodes) == 0 {
			return pos
		}
		pos.minimal(ix.doc.Ends())
		// A Neg witness lies inside p's subtree iff a minimal one does, so
		// Neg is joined unfiltered; pos is filtered in place.
		negW := ix.eval(s, t.Neg)
		neg := cursor{nodes: negW.nodes, ends: ix.doc.Ends()}
		k := 0
		for i, p := range pos.nodes {
			if !neg.satisfies(p) {
				pos.nodes[k], pos.scores[k] = p, pos.scores[i]
				k++
			}
		}
		s.put(negW)
		return witnesses{nodes: pos.nodes[:k], scores: pos.scores[:k]}
	default:
		return witnesses{}
	}
}

// evalTerm turns a term's postings, which are in node order, into one
// witness per distinct node: exactly df of them.
func (ix *Index) evalTerm(s *scratch, word string) witnesses {
	posts, df, idf := ix.lookup(word)
	if len(posts) == 0 {
		return witnesses{}
	}
	out := s.get(df)
	lens := 0 // cursor into the node-length column, for BM25
	for i := 0; i < len(posts); {
		n := posts[i].node
		tf := 0
		for i < len(posts) && posts[i].node == n {
			tf++
			i++
		}
		var nodeLen int32
		if ix.scoring == ScoringBM25 {
			lens = xmltree.GallopGE(ix.nlNode, lens, n)
			if lens < len(ix.nlNode) && ix.nlNode[lens] == n {
				nodeLen = ix.nlLen[lens]
			}
		}
		out.add(n, ix.termScore(idf, nodeLen, tf))
	}
	return out
}

// termCursor walks one word's postings for Phrase and Near.
type termCursor struct {
	posts []posting
	at    int
}

// seek moves to the first posting at position >= pos and returns that
// position, or false when there is none. Positions are strictly
// increasing (Validate) and callers seek non-decreasing targets, so the
// cursor gallops forward: it doubles a window until the window's end
// reaches pos, then bisects the window.
func (t *termCursor) seek(pos int64) (int64, bool) {
	p, lo, hi := t.posts, t.at, t.at
	for step := 1; hi < len(p) && int64(p[hi].pos) < pos; step <<= 1 {
		lo, hi = hi+1, hi+step
	}
	for hi = min(hi, len(p)); lo < hi; {
		if mid := int(uint(lo+hi) >> 1); int64(p[mid].pos) < pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if t.at = lo; lo == len(p) {
		return 0, false
	}
	return int64(p[lo].pos), true
}

// lookupAll opens a cursor on every word and sums their idfs.
func (ix *Index) lookupAll(words []string) ([]termCursor, float64) {
	terms := make([]termCursor, len(words))
	idfSum := 0.0
	for i, w := range words {
		var idf float64
		terms[i].posts, _, idf = ix.lookup(w)
		idfSum += idf
	}
	return terms, idfSum
}

// evalPhrase walks the first word's postings in order; the words after it
// must sit at the following positions, which their cursors seek.
func (ix *Index) evalPhrase(s *scratch, words []string) witnesses {
	if len(words) == 0 {
		return witnesses{}
	}
	terms, idfSum := ix.lookupAll(words)
	out := s.get(len(terms[0].posts))
	for _, p := range terms[0].posts {
		if n := len(out.nodes); n > 0 && out.nodes[n-1] == p.node {
			continue // already a witness, at the same score
		}
		ok := true
		for off := 1; off < len(terms) && ok; off++ {
			want := int64(p.pos) + int64(off)
			at, found := terms[off].seek(want)
			if !found {
				return out // later anchors seek further still
			}
			ok = at == want
		}
		if ok {
			out.add(p.node, idfSum)
		}
	}
	return out
}

// evalNear yields a witness at the owning element of every token that
// participates in a qualifying window, so a context containing any
// participant satisfies the expression. Each distinct word anchors one
// walk over its postings in order, the other words' cursors seeking the
// window's start; the walks' lists are merged.
func (ix *Index) evalNear(s *scratch, words []string, window int) witnesses {
	if len(words) == 0 {
		return witnesses{}
	}
	// Positions differ by less than the token count, so a wider window
	// admits nothing more; clamping keeps pos±window from overflowing.
	window = min(window, len(ix.posts))
	terms, idfSum := ix.lookupAll(words)
	var walks [4]witnesses
	lists := walks[:0]
	for ai, anchor := range words {
		if slices.Contains(words[:ai], anchor) {
			continue // a repeated word anchors the same walk
		}
		for i := range terms {
			terms[i].at = 0
		}
		w := s.get(len(terms[ai].posts))
	anchors:
		for _, p := range terms[ai].posts {
			if n := len(w.nodes); n > 0 && w.nodes[n-1] == p.node {
				continue
			}
			lo, hi := int64(p.pos)-int64(window), int64(p.pos)+int64(window)
			for i := range terms {
				if words[i] == anchor {
					continue
				}
				at, found := terms[i].seek(lo)
				if !found {
					break anchors
				}
				if at > hi {
					continue anchors
				}
			}
			w.add(p.node, idfSum)
		}
		lists = append(lists, w)
	}
	return s.mergeMax(lists)
}

// mergeMax merges witness lists into one, keeping the higher score of a
// node found in several: a k-way merge as a balanced tree of two-way
// merges. It consumes the lists.
func (s *scratch) mergeMax(lists []witnesses) witnesses {
	switch len(lists) {
	case 0:
		return witnesses{}
	case 1:
		return lists[0]
	}
	h := len(lists) / 2
	return s.merge2(s.mergeMax(lists[:h]), s.mergeMax(lists[h:]))
}

// merge2 merges two witness lists into one, consuming both.
func (s *scratch) merge2(a, b witnesses) witnesses {
	if len(a.nodes) == 0 {
		s.put(a)
		return b
	}
	if len(b.nodes) == 0 {
		s.put(b)
		return a
	}
	out := s.get(len(a.nodes) + len(b.nodes))
	i, j := 0, 0
	for i < len(a.nodes) && j < len(b.nodes) {
		switch x, y := a.nodes[i], b.nodes[j]; {
		case x < y:
			out.add(x, a.scores[i])
			i++
		case y < x:
			out.add(y, b.scores[j])
			j++
		default:
			out.add(x, max(a.scores[i], b.scores[j]))
			i++
			j++
		}
	}
	out.nodes = append(append(out.nodes, a.nodes[i:]...), b.nodes[j:]...)
	out.scores = append(append(out.scores, a.scores[i:]...), b.scores[j:]...)
	s.put(a)
	s.put(b)
	return out
}

// slca computes the smallest lowest common ancestors of one witness from
// each minimal input (Xu & Papakonstantinou), consuming both: each witness
// of the smaller list meets its two neighbours in the larger, found by
// galloping. The LCAs come out unordered: the one list evaluation sorts.
func (ix *Index) slca(s *scratch, a, b witnesses) witnesses {
	if len(a.nodes) == 0 || len(b.nodes) == 0 {
		s.put(a)
		s.put(b)
		return witnesses{}
	}
	small, large := a, b
	if len(b.nodes) < len(a.nodes) {
		small, large = b, a
	}
	ends, parents := ix.doc.Ends(), ix.doc.Parents()
	cands := s.cands[:0]
	j := 0
	for k, sn := range small.nodes {
		j = xmltree.GallopGE(large.nodes, j, sn)
		// Both neighbours' LCAs are ancestors-or-self of sn. When they
		// differ the shallower encloses the deeper and cannot be minimal,
		// so only the deeper (larger) one is a candidate.
		c := witness{node: -1}
		if j < len(large.nodes) {
			c = witness{lca(ends, parents, sn, large.nodes[j]), small.scores[k] + large.scores[j]}
		}
		if j > 0 {
			n, sc := lca(ends, parents, sn, large.nodes[j-1]), small.scores[k]+large.scores[j-1]
			if n > c.node || n == c.node && sc > c.score {
				c = witness{n, sc}
			}
		}
		cands = append(cands, c)
	}
	s.put(a)
	s.put(b)
	slices.SortFunc(cands, func(x, y witness) int { return int(x.node) - int(y.node) })
	out := s.get(len(cands))
	for _, c := range cands {
		if n := len(out.nodes); n > 0 && out.nodes[n-1] == c.node {
			out.scores[n-1] = max(out.scores[n-1], c.score)
		} else {
			out.add(c.node, c.score)
		}
	}
	s.cands = cands[:0]
	out.minimal(ends)
	return out
}

// lca returns the lowest common ancestor-or-self of a and b: the first
// ancestor-or-self of the earlier node whose interval reaches the later.
func lca(ends, parents []xmltree.NodeID, a, b xmltree.NodeID) xmltree.NodeID {
	if a > b {
		a, b = b, a
	}
	for ends[a] < b {
		a = parents[a]
	}
	return a
}

func normalize(scores []float64) {
	maxScore := 0.0
	for _, s := range scores {
		if s > maxScore {
			maxScore = s
		}
	}
	if maxScore <= 0 {
		for i := range scores {
			scores[i] = 1
		}
		return
	}
	for i := range scores {
		scores[i] /= maxScore
	}
}
